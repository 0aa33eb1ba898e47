package trace_test

import (
	"math"
	"sync"
	"testing"

	"pvsim/internal/trace"
	"pvsim/internal/workloads"
)

// TestZipfSharedAndExact pins the NewZipf memo on every registered
// workload's two tables: repeated calls share one table, and that table
// is bit-equal to an uncached build, so sharing cannot move a sample.
func TestZipfSharedAndExact(t *testing.T) {
	for _, w := range workloads.All() {
		p := w.Params
		for _, c := range []struct {
			name string
			n    int
			s    float64
		}{
			{"pc", p.NumPCs, p.PCZipf},
			{"region", p.RegionPool, p.RegionZipf},
		} {
			t.Run(w.Name+"/"+c.name, func(t *testing.T) {
				a, b := trace.NewZipf(c.n, c.s), trace.NewZipf(c.n, c.s)
				if a != b {
					t.Fatalf("NewZipf(%d, %v) returned two tables", c.n, c.s)
				}
				fresh := trace.BuildZipf(c.n, c.s)
				if a.N() != fresh.N() {
					t.Fatalf("shared table has %d ranks, fresh build %d", a.N(), fresh.N())
				}
				got, want := a.CDF(), fresh.CDF()
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("cdf[%d] = %x, fresh build %x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
			})
		}
	}
}

// TestZipfConcurrentFirstBuild races eight first calls for one (n, s) no
// other test uses: every caller must get the same table (run it under
// -race to check the memo's synchronisation too).
func TestZipfConcurrentFirstBuild(t *testing.T) {
	const callers = 8
	got := make([]*trace.Zipf, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = trace.NewZipf(4099, 0.77)
		}()
	}
	close(start)
	wg.Wait()
	for i, z := range got {
		if z != got[0] {
			t.Fatalf("caller %d got table %p, caller 0 got %p", i, z, got[0])
		}
	}
	if z := trace.NewZipf(4099, 0.77); z != got[0] {
		t.Fatal("a later call built a second table")
	}
}
