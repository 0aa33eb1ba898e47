package sim

import (
	"math"
	"testing"

	"pvsim/internal/memsys"
	"pvsim/internal/trace"
)

// inflightEntries sums outstanding in-flight prefetch records across cores.
func inflightEntries(s *System) int {
	n := 0
	for i := range s.inflight {
		n += s.inflight[i].Len()
	}
	return n
}

// TestTimingTracksInflightPrefetches pins that timing runs record issued
// prefetches in the in-flight table: the timeliness model charges a late
// prefetch's residual latency from it.
func TestTimingTracksInflightPrefetches(t *testing.T) {
	cfg := quickConfig(t, "Apache")
	cfg.Prefetch = PV8
	cfg.Timing = true
	sys := NewSystem(cfg)
	seen := 0
	for i := 0; i < 5_000 && seen == 0; i++ {
		sys.StepAll()
		seen = inflightEntries(sys)
	}
	if seen == 0 {
		t.Fatal("timing stepping never tracked an in-flight prefetch; the timeliness path is dead")
	}
}

// TestPruneInflightMatchesMapLoop pins the in-flight prune: Retain must
// leave exactly the records the map-based prune kept, which deleted every
// record whose ready time had passed during a range over the map. The
// table holds the records of a real timing run plus synthetic ones whose
// ready times straddle the core clock, enough to cross growth thresholds.
func TestPruneInflightMatchesMapLoop(t *testing.T) {
	cfg := quickConfig(t, "Apache")
	cfg.Prefetch = PV8
	cfg.Timing = true
	sys := NewSystem(cfg)
	for i := 0; i < 5_000; i++ {
		sys.StepAll()
	}
	const c = 0
	now := sys.clock[c]
	tb := &sys.inflight[c]
	for i := uint64(0); i < 3*inflightHint; i++ {
		tb.Put(memsys.Addr(i*0x9E37+1)<<6, now-3*inflightHint/2+i)
	}

	want := map[memsys.Addr]uint64{}
	tb.Retain(func(b memsys.Addr, ready uint64) bool {
		want[b] = ready
		return true
	})
	for b, ready := range want {
		if ready <= now {
			delete(want, b)
		}
	}
	if len(want) == 0 || len(want) == tb.Len() {
		t.Fatalf("prune input has %d records, %d pending: not a discriminating case", tb.Len(), len(want))
	}

	sys.pruneInflight(c)
	if tb.Len() != len(want) {
		t.Fatalf("prune kept %d records, the map loop %d", tb.Len(), len(want))
	}
	for b, ready := range want {
		if got, ok := tb.Get(b); !ok || got != ready {
			t.Fatalf("record %#x: got %d, %v; want %d", b, got, ok, ready)
		}
	}
}

// scripted is an access stream the test sets one access at a time.
type scripted struct{ next trace.Access }

func (s *scripted) Next() trace.Access { return s.next }

// TestLatePrefetchCharging pins which demand accesses take an in-flight
// record. A prefetch through the sink a predictor is given, with a future
// availableAt, puts one. The first demand access to the line before it is
// ready pays the residual stall, whether a read or a write uses the line
// in the L1D, or a read misses on it after it was evicted unused. A plain
// L1 hit leaves the table untouched. The stall is measured against the
// same script on a twin system whose record the test deletes first.
func TestLatePrefetchCharging(t *testing.T) {
	cfg := quickConfig(t, "Apache")
	cfg.Timing = true
	l1 := cfg.Hier.L1D
	const pc = memsys.Addr(0x40_0000)
	target := memsys.Addr(0x100_0000)
	hot := target + memsys.Addr(l1.BlockBytes) // another set: plain hits
	setStride := memsys.Addr(l1.Sets() * l1.BlockBytes)

	for _, tc := range []struct {
		name         string
		write, evict bool
	}{
		{"read uses the line", false, false},
		{"write uses the line", true, false},
		{"read after the line was evicted", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// run plays the script and returns the demand step's cycles
			// and the residual its record held (ready - now).
			run := func(dropRecord bool) (cycles float64, residual uint64) {
				sys := NewSystem(cfg)
				src := &scripted{}
				sys.gens[0] = src
				step := func(a memsys.Addr, write bool) float64 {
					src.next = trace.Access{PC: pc, Addr: a, Write: write}
					before := sys.cores[0].Cycles()
					sys.Step(0)
					return sys.cores[0].Cycles() - before
				}
				tb := &sys.inflight[0]
				step(hot, false) // fills hot and the PC's instruction block
				prefetchSink{sys: sys, core: 0}.Prefetch(target, sys.clock[0]+100_000)
				ready, ok := tb.Get(target)
				if !ok || tb.Len() != 1 {
					t.Fatalf("prefetch left %d records, target's found = %v", tb.Len(), ok)
				}
				step(hot, false)
				if got, ok := tb.Get(target); !ok || got != ready || tb.Len() != 1 {
					t.Fatalf("a plain L1 hit changed the table: %d records, target %d/%v, want %d", tb.Len(), got, ok, ready)
				}
				if tc.evict {
					for k := 1; k <= l1.Ways; k++ {
						step(target+memsys.Addr(k)*setStride, false)
					}
					if sys.Hier.L1D(0).Contains(target) {
						t.Fatal("conflict misses did not evict the prefetched line")
					}
					if _, ok := tb.Get(target); !ok {
						t.Fatal("the record was lost before its block was demanded")
					}
				}
				if dropRecord {
					tb.Delete(target)
				}
				now := sys.clock[0]
				cycles = step(target, tc.write)
				if _, ok := tb.Get(target); ok {
					t.Fatal("the record survived the first demand access to its block")
				}
				return cycles, ready - now
			}
			late, residual := run(false)
			onTime, _ := run(true)
			if residual == 0 || residual > 1<<40 {
				t.Fatalf("residual %d: the prefetch was not late at its first use", residual)
			}
			want := float64(residual) / cfg.Workload.Params.MLP
			if got := late - onTime; math.Abs(got-want) > 1e-6 {
				t.Errorf("late first use paid %.3f stall cycles, want residual %d / MLP = %.3f", got, residual, want)
			}
		})
	}
}
