// Package pvtest holds the generic conformance suite every registered
// predictor family must pass. It lives outside package pv so importing pv
// never drags the testing package into a binary.
package pvtest

import (
	"reflect"
	"testing"

	"pvsim/internal/core"
	"pvsim/internal/memsys"
	"pvsim/pv"
)

// nullBackend serves PV fetches and writebacks with zero latency, so a
// virtualized instance's readyAt values match the dedicated form's and the
// two prediction streams can be compared element for element.
type nullBackend struct{}

func (nullBackend) Read(memsys.Addr) memsys.Result  { return memsys.Result{Level: memsys.LevelMem} }
func (nullBackend) Write(memsys.Addr) memsys.Result { return memsys.Result{Level: memsys.LevelMem} }

// prediction is one sink event.
type prediction struct {
	Addr memsys.Addr
	At   uint64
}

// recorder captures the prediction stream.
type recorder struct{ preds []prediction }

func (r *recorder) Prefetch(a memsys.Addr, at uint64) {
	r.preds = append(r.preds, prediction{a, at})
}

// build constructs one instance of spec with a fresh recorder, using the
// same Env the simulator would provide.
func build(t *testing.T, s pv.Spec) (pv.Instance, *recorder) {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatalf("conformance spec invalid: %v", err)
	}
	b, ok := pv.Lookup(s.Name)
	if !ok {
		t.Fatalf("predictor %q not registered", s.Name)
	}
	var pcfg core.ProxyConfig
	if s.Mode == pv.Virtualized {
		pcfg, _ = pv.ProxyConfigFor(s, s.Name+".conformance")
	}
	rec := &recorder{}
	inst, err := b.New(s, pv.Env{
		Core: 0, Cores: 1, Seed: 7,
		L1BlockBytes: 64, L2BlockBytes: 64,
		Start: pv.TableStart(0), Proxy: pcfg,
		Backend: nullBackend{}, Sink: rec,
		Shared: map[string]any{},
	})
	if err != nil {
		t.Fatalf("build %s: %v", s.Label(), err)
	}
	return inst, rec
}

// drive feeds the synthetic conformance stream: two trigger PCs walking
// eight 2KB regions, each region walked block by block and each walk
// closed by an eviction of its first block. The working set is
// deliberately tiny — at most two distinct keys per table set — so
// dedicated-LRU and virtualized-round-robin replacement can never diverge
// and any stream difference is a real conformance failure. Predictors that
// ignore the access stream (the BTB replays its own branch trace) are
// still stepped once per access, with the same determinism requirement.
func drive(inst pv.Instance, rec *recorder) ([]prediction, pv.Stats) {
	const (
		regionBytes = 2048 // 32 x 64B blocks, the default SMS region
		rounds      = 400
		base        = memsys.Addr(0x10_0000)
	)
	pcs := [2]memsys.Addr{0x1000, 0x2000}
	for r := 0; r < rounds; r++ {
		pc := pcs[r%len(pcs)]
		region := base + memsys.Addr(r%8)*regionBytes
		for b := 0; b < 6; b++ {
			inst.OnAccess(0, pc, region+memsys.Addr(b*64))
		}
		inst.OnEvict(0, region)
	}
	return rec.preds, inst.Stats()
}

// Run executes the conformance suite against every registered predictor
// family: the dedicated spec and the virtualized spec with a PVCache as
// large as the table must produce identical prediction streams and
// identical predictor statistics.
//
// Register the families first (import pvsim/pv/predictors, or the
// packages under test).
func Run(t *testing.T) {
	names := pv.Names()
	if len(names) == 0 {
		t.Fatal("no predictors registered; import pvsim/pv/predictors")
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			b, _ := pv.Lookup(name)
			ded, virt := b.Conformance()
			if ded.Name != name || virt.Name != name {
				t.Fatalf("conformance specs name %q/%q, want %q", ded.Name, virt.Name, name)
			}
			if ded.Mode != pv.Dedicated || virt.Mode != pv.Virtualized {
				t.Fatalf("conformance modes %v/%v, want dedicated/virtualized", ded.Mode, virt.Mode)
			}
			if virt.PVCacheEntries < virt.Sets {
				t.Fatalf("virtualized conformance PVCache (%d) smaller than the table (%d sets); equivalence not guaranteed",
					virt.PVCacheEntries, virt.Sets)
			}

			t.Run("equivalence", func(t *testing.T) {
				dinst, drec := build(t, ded)
				vinst, vrec := build(t, virt)
				dstream, dstats := drive(dinst, drec)
				vstream, vstats := drive(vinst, vrec)
				if len(dstream) == 0 && name != "btb" {
					t.Logf("note: %s produced no predictions on the conformance stream", name)
				}
				if !reflect.DeepEqual(dstream, vstream) {
					t.Fatalf("prediction streams diverge: dedicated %d events, virtualized %d events\nded:  %v\nvirt: %v",
						len(dstream), len(vstream), head(dstream), head(vstream))
				}
				if !reflect.DeepEqual(dstats, vstats) {
					t.Fatalf("statistics diverge:\nded:  %+v\nvirt: %+v", dstats, vstats)
				}
			})
		})
	}
}

// head truncates a stream for failure messages.
func head(p []prediction) []prediction {
	if len(p) > 8 {
		return p[:8]
	}
	return p
}
