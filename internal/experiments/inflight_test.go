package experiments

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pvsim/internal/sim"
	"pvsim/internal/workloads"
)

// countingRunner builds a runner whose "run %s" log lines — one per
// claimed simulation — are counted.
func countingRunner(parallel int, runs *atomic.Int32) *Runner {
	return NewRunner(Options{Scale: 0.02, Seed: 42, Parallel: parallel,
		Log: func(string, ...interface{}) { runs.Add(1) }})
}

// runAllWithin runs cfgs through r.RunAll and fails the test if it does not
// return within a minute, so a deadlock reports instead of hanging.
func runAllWithin(t *testing.T, r *Runner, cfgs []sim.Config) []sim.Result {
	t.Helper()
	done := make(chan []sim.Result, 1)
	go func() { done <- r.RunAll(cfgs) }()
	select {
	case res := <-done:
		return res
	case <-time.After(time.Minute):
		t.Fatal("RunAll did not return: a waiter and its twin deadlocked")
		return nil
	}
}

// TestRunAllDedupInFlight: two concurrent runs of one configuration
// simulate it once; the second waits for the first's result.
func TestRunAllDedupInFlight(t *testing.T) {
	var runs atomic.Int32
	r := countingRunner(2, &runs)
	w, _ := workloads.ByName("Apache")
	cfg := r.baseConfig(w)
	cfg.Prefetch = sim.PV8
	res := runAllWithin(t, r, []sim.Config{cfg, cfg})
	if n := runs.Load(); n != 1 {
		t.Fatalf("RunAll([cfg, cfg]) at Parallel 2 simulated %d times, want 1", n)
	}
	if res[0].L1DReads() == 0 || res[0].Config.Signature() != res[1].Config.Signature() ||
		res[0].Mem.OffChipReads != res[1].Mem.OffChipReads {
		t.Fatalf("waiter's result differs from its twin's")
	}
}

// TestRunAllInFlightSerial: at Parallel 1 a waiter must not hold the one
// slot its twin needs; the list still finishes, simulating each distinct
// configuration once.
func TestRunAllInFlightSerial(t *testing.T) {
	var runs atomic.Int32
	r := countingRunner(1, &runs)
	w, _ := workloads.ByName("Apache")
	cfg := r.baseConfig(w)
	other := cfg
	other.Prefetch = sim.PV8
	runAllWithin(t, r, []sim.Config{cfg, cfg, other})
	if n := runs.Load(); n != 2 {
		t.Fatalf("RunAll([cfg, cfg, other]) at Parallel 1 simulated %d times, want 2", n)
	}
}

// TestRunInFlightWaiterHoldsNoSlot forces the order in which a waiter that took a
// Parallel slot before waiting would deadlock the runner: at Parallel 1
// the test itself claims cfg and holds the claim, a Run(cfg) blocks on
// that twin, and a Run(other) must still get the one slot and return
// before the claim is resolved.
func TestRunInFlightWaiterHoldsNoSlot(t *testing.T) {
	r := NewRunner(Options{Scale: 0.02, Seed: 42, Parallel: 1})
	w, _ := workloads.ByName("Apache")
	cfg := r.baseConfig(w)
	other := cfg
	other.Prefetch = sim.PV8
	if _, twin, claimed := r.Lookup(cfg); !claimed || twin != nil {
		t.Fatal("a fresh runner did not hand out the claim on cfg")
	}
	waited := make(chan sim.Result, 1)
	go func() { waited <- r.Run(cfg) }()
	waitForBlockedRun(t)

	done := make(chan struct{})
	go func() { r.Run(other); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("Run(other) did not return while a Run(cfg) waited on the claimed twin: the waiter holds the Parallel slot")
	}

	want := sim.Run(cfg)
	r.StoreResult(cfg, want)
	select {
	case got := <-waited:
		if got.Mem.OffChipReads != want.Mem.OffChipReads || got.Config.Signature() != cfg.Signature() {
			t.Fatal("the waiter did not return the stored result")
		}
	case <-time.After(time.Minute):
		t.Fatal("the waiter did not return after StoreResult resolved its twin")
	}
}

// waitForBlockedRun returns once some goroutine is blocked receiving on a
// channel inside Runner.Run — a waiter parked on its twin — and fails the
// test if none is within a minute.
func waitForBlockedRun(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		stacks := string(buf[:runtime.Stack(buf, true)])
		for _, g := range strings.Split(stacks, "\n\n") {
			header, _, _ := strings.Cut(g, "\n")
			if strings.Contains(header, "[chan receive") && strings.Contains(g, "experiments.(*Runner).Run(") {
				return
			}
		}
	}
	t.Fatal("no Run call blocked waiting on its twin")
}

// TestRunnerSignatureInclusiveL2 is the regression test for a result
// cache keyed by an incomplete signature: a PV-8 run and the same run
// with an inclusive L2 differ in off-chip writes, so the second must not
// be served the first's cached result.
func TestRunnerSignatureInclusiveL2(t *testing.T) {
	r := NewRunner(Options{Scale: 0.02, Seed: 42})
	w, _ := workloads.ByName("Apache")
	cfg := r.baseConfig(w)
	cfg.Prefetch = sim.PV8
	cfg.Hier.L2.SizeBytes = 64 << 10
	plain := r.Run(cfg)
	cfg.Hier.InclusiveL2 = true
	inclusive := r.Run(cfg)
	if plain.Mem.OffChipWrites == inclusive.Mem.OffChipWrites {
		t.Fatalf("inclusive L2 run returned the non-inclusive run's OffChipWrites %v", plain.Mem.OffChipWrites)
	}
	if want := sim.Run(cfg).Mem.OffChipWrites; inclusive.Mem.OffChipWrites != want {
		t.Fatalf("inclusive L2 run: OffChipWrites %v, want %v", inclusive.Mem.OffChipWrites, want)
	}
}
