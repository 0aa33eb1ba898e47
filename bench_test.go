// Package pvsim_test holds the benchmark harness: one testing.B benchmark
// per table and figure of the paper (run `go test -bench=. -benchmem`), so
// every number in EXPERIMENTS.md can be regenerated from a single command.
// Benchmarks run the experiments at a reduced scale; use cmd/pvsim with
// -scale 1 (or higher) for the full-fidelity reports.
package pvsim_test

import (
	"testing"

	"pvsim/internal/btb"
	pvcore "pvsim/internal/core"
	"pvsim/internal/experiments"
	"pvsim/internal/memsys"
	"pvsim/internal/sim"
	"pvsim/internal/sms"
	"pvsim/internal/timing"
	"pvsim/internal/trace"
	"pvsim/internal/workloads"
)

// benchScale keeps full `go test -bench=.` runs in the minutes range while
// preserving every experiment's structure.
const benchScale = 0.05

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(experiments.Options{Scale: benchScale, Seed: 42})
		doc := e.Run(r)
		if len(doc.Sections) == 0 {
			b.Fatalf("%s produced no output", id)
		}
		if i == 0 && testing.Verbose() {
			b.Logf("\n%s", doc.Text())
		}
	}
}

// One benchmark per paper artifact.

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkSpace(b *testing.B)  { benchExperiment(b, "space") }
func BenchmarkTiming(b *testing.B) { benchExperiment(b, "timing") }

// Ablation benches for the design options DESIGN.md calls out.

// BenchmarkAblationPVCacheSize sweeps the PVCache size (§4.3 studied 8 vs
// 16 vs 32 and found little benefit beyond 8).
func BenchmarkAblationPVCacheSize(b *testing.B) {
	w, _ := workloads.ByName("Zeus")
	for _, entries := range []int{4, 8, 16, 32} {
		entries := entries
		b.Run(benchName("pvcache", entries), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := sim.Default(w)
				cfg.Warmup, cfg.Measure = 30_000, 30_000
				cfg.Prefetch = sim.SMSVirtualizedSized(entries)
				res := sim.Run(cfg)
				pt := res.ProxyTotals()
				b.ReportMetric(pt.HitRate()*100, "pvcache-hit-%")
				b.ReportMetric(float64(res.Mem.L2Requests[memsys.PVFetch]), "pv-l2-reqs")
			}
		})
	}
}

// BenchmarkAblationOnChipOnly compares normal PV against the §2.2 option
// that never writes predictor metadata off-chip.
func BenchmarkAblationOnChipOnly(b *testing.B) {
	w, _ := workloads.ByName("Oracle")
	for _, onChipOnly := range []bool{false, true} {
		name := "offchip-backed"
		if onChipOnly {
			name = "onchip-only"
		}
		onChipOnly := onChipOnly
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := sim.Default(w)
				cfg.Warmup, cfg.Measure = 30_000, 30_000
				// A small L2 forces PV lines off chip so the option matters
				// even at bench scale.
				cfg.Hier.L2.SizeBytes = 256 << 10
				cfg.Prefetch = sim.PV8
				cfg.Prefetch.OnChipOnly = onChipOnly
				res := sim.Run(cfg)
				offchip := res.Mem.OffChipWrites[memsys.ClassPV]
				b.ReportMetric(float64(offchip), "pv-offchip-writes")
				b.ReportMetric(float64(res.Mem.PVDroppedWritebacks), "pv-dropped")
			}
		})
	}
}

// BenchmarkAblationSharedTable compares per-core PVTables with the §2.1
// shared-table alternative.
func BenchmarkAblationSharedTable(b *testing.B) {
	w, _ := workloads.ByName("Apache")
	for _, shared := range []bool{false, true} {
		name := "per-core"
		if shared {
			name = "shared"
		}
		shared := shared
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := sim.Default(w)
				cfg.Warmup, cfg.Measure = 30_000, 30_000
				cfg.Prefetch = sim.PV8
				cfg.Prefetch.SharedTable = shared
				base := cfg
				base.Prefetch = sim.Baseline
				cov := sim.CoverageOf(sim.Run(base), sim.Run(cfg))
				b.ReportMetric(cov.Covered*100, "cov-%")
			}
		})
	}
}

// Component microbenchmarks: the hot paths of the simulator itself.

// randomBlocks returns 4096 block addresses drawn uniformly from the
// first span blocks of 64 bytes. A benchmark cycling through them hits
// its cache in a way no branch predictor learns, as the generator's
// streams do; a sequential walk hits a way the predictor learns.
func randomBlocks(span int) []memsys.Addr {
	rng := trace.NewRNG(1)
	blocks := make([]memsys.Addr, 4096)
	for i := range blocks {
		blocks[i] = memsys.Addr(rng.Intn(span)) << 6
	}
	return blocks
}

// BenchmarkCacheLookup is the hit scan: a full Table 1 L1 (64 KB, 4-way)
// probed at random among its 1024 resident blocks, so every lookup hits
// in an unpredictable way.
func BenchmarkCacheLookup(b *testing.B) {
	c := memsys.NewCache(memsys.DefaultConfig().L1D)
	n := c.Config().Sets() * c.Config().Ways
	for i := range n {
		c.Fill(memsys.Addr(i)<<6, false, false)
	}
	blocks := randomBlocks(n)
	for i := 0; b.Loop(); i++ {
		c.Lookup(blocks[i&4095], false)
	}
}

// BenchmarkCacheLookupL2 is the miss scan: a full Table 1 L2 (8 MB,
// 16-way) probed by a hashed block stream that misses ~99% of the time, so
// nearly every lookup compares all 16 ways of a full set.
func BenchmarkCacheLookupL2(b *testing.B) {
	c := memsys.NewCache(memsys.DefaultConfig().L2)
	for i := 0; i < c.Config().Sets()*c.Config().Ways; i++ {
		c.Fill(memsys.Addr(i)<<6, false, false)
	}
	for i := 0; b.Loop(); i++ {
		block := uint64(i) * 0x9E3779B97F4A7C15 >> 40
		c.Lookup(memsys.Addr(block)<<6, false)
	}
}

// BenchmarkCacheFill is the victim pick: a full Table 1 L2 (8 MB, 16-way)
// takes fills of blocks drawn from a hashed stream over twice its
// capacity. About half the fills find their block resident and only
// refresh its stamp, in random order, so each set's LRU way lands
// anywhere in the set, as hits leave it in the simulator. The rest miss
// all 16 ways and evict the LRU way among 16 valid ones.
func BenchmarkCacheFill(b *testing.B) {
	c := memsys.NewCache(memsys.DefaultConfig().L2)
	n := uint64(c.Config().Sets() * c.Config().Ways)
	if n&(n-1) != 0 {
		b.Fatalf("L2 holds %d lines, not a power of two", n)
	}
	for i := range n {
		c.Fill(memsys.Addr(i)<<6, false, false)
	}
	for i := uint64(0); b.Loop(); i++ {
		// A 64-bit mixer (splitmix64's finalizer) on the fill count.
		x := (i ^ i>>30) * 0xBF58476D1CE4E5B9
		x = (x ^ x>>27) * 0x94D049BB133111EB
		c.Fill(memsys.Addr((x^x>>31)&(2*n-1))<<6, false, false)
	}
}

// BenchmarkHierarchyData reads 4096 random blocks of a 4 MB region, all
// resident in the L2 once warmed, from four cores: about half the reads
// hit the L1D and the rest hit the L2, each in an unpredictable way.
func BenchmarkHierarchyData(b *testing.B) {
	h := memsys.New(memsys.DefaultConfig())
	for i := range 0x10000 {
		h.Data(i&3, memsys.Addr(i)<<6, false)
	}
	blocks := randomBlocks(0x10000)
	for i := 0; b.Loop(); i++ {
		h.Data(i&3, blocks[i&4095], false)
	}
}

func BenchmarkProxyAccess(b *testing.B) {
	h := memsys.New(memsys.DefaultConfig())
	v := sms.NewVirtualizedPHT(sms.DefaultVPHTConfig(0xF0000000), pvcore.HierarchyBackend{H: h})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Proxy().Access(uint64(i), i&1023)
	}
}

func BenchmarkEngineOnAccess(b *testing.B) {
	pht := sms.NewInfinitePHT()
	e := sms.NewEngine(sms.DefaultGeometry(), sms.DefaultAGTConfig(), pht, nullSink{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := memsys.Addr(0x400 + (i&0xFF)*4)
		addr := memsys.Addr(uint64(i&0xFFF) << 11)
		e.OnAccess(0, pc, addr)
	}
}

type nullSink struct{}

func (nullSink) Prefetch(memsys.Addr, uint64) {}

func BenchmarkGeneratorNext(b *testing.B) {
	w, _ := workloads.ByName("DB2")
	g := trace.NewGenerator(w.Params, 42, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

func BenchmarkSystemStep(b *testing.B) {
	w, _ := workloads.ByName("Apache")
	cfg := sim.Default(w)
	cfg.Prefetch = sim.PV8
	cfg.Timing = true
	sys := sim.NewSystem(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step(i & 3)
	}
}

// BenchmarkSystemStepCost is BenchmarkSystemStep with the passive cost
// model folding every step: the fold must keep the hot path at 0
// allocs/op (its accumulators are fixed per-core structs).
func BenchmarkSystemStepCost(b *testing.B) {
	w, _ := workloads.ByName("Apache")
	cfg := sim.Default(w)
	cfg.Prefetch = sim.PV8
	cfg.Timing = true
	cfg.Cost = timing.Config{Enabled: true}
	sys := sim.NewSystem(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step(i & 3)
	}
}

func benchName(prefix string, n int) string {
	return prefix + "-" + string(rune('0'+n/10)) + string(rune('0'+n%10))
}

// BenchmarkAblationPVArbitration implements the arbitration knob §2.2
// mentions but the paper left unimplemented: application requests
// prioritized over PVProxy requests at the L2 banks. The paper's implicit
// claim — that not prioritizing costs nothing — shows as near-identical
// speedups.
func BenchmarkAblationPVArbitration(b *testing.B) {
	w, _ := workloads.ByName("DB2")
	for _, prio := range []bool{false, true} {
		name := "equal-priority"
		if prio {
			name = "app-first"
		}
		prio := prio
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := sim.Default(w)
				cfg.Warmup, cfg.Measure = 30_000, 30_000
				cfg.Timing = true
				cfg.Windows = 10
				cfg.Hier.PrioritizeAppOverPV = prio
				base := cfg
				base.Prefetch = sim.Baseline
				cfg.Prefetch = sim.PV8
				bres, res := sim.Run(base), sim.Run(cfg)
				iv, err := sim.SpeedupOver(bres, res)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric((iv.Mean-1)*100, "speedup-%")
				b.ReportMetric(float64(res.Mem.BankWaitCycles[memsys.PVFetch]), "pv-bank-wait-cyc")
			}
		})
	}
}

// BenchmarkBTBVirtualization exercises the §6 future-work predictor: a
// large virtualized BTB vs small/large dedicated ones on the same branch
// stream.
func BenchmarkBTBVirtualization(b *testing.B) {
	stream := btb.DefaultStreamParams()
	const branches = 200_000
	for i := 0; i < b.N; i++ {
		small := btb.Measure(btb.NewDedicated(btb.DefaultConfig(512)), stream, 7, branches)
		large := btb.Measure(btb.NewDedicated(btb.DefaultConfig(16384)), stream, 7, branches)
		h := memsys.New(memsys.DefaultConfig())
		virt := btb.Measure(
			btb.NewVirtualized(btb.DefaultConfig(16384), pvcore.DefaultProxyConfig("btb"), 0xF0000000, 64,
				pvcore.HierarchyBackend{H: h}),
			stream, 7, branches)
		b.ReportMetric(small*100, "small-hit-%")
		b.ReportMetric(large*100, "large-hit-%")
		b.ReportMetric(virt*100, "virt-hit-%")
	}
}
