package sim

import (
	"testing"

	"pvsim/internal/memsys"
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
