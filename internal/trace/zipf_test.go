package trace_test

import (
	"math"
	"math/bits"
	"sort"
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

// TestZipfSampleMatchesSearch checks the guided search Sample uses
// against sort.SearchFloat64s on the CDF, for every registered workload's
// two tables and for tiny and large rank counts: at every guide bucket
// edge j/m, at that edge's float64 neighbours, and at 10^5 uniform draws.
// It also holds each guide to the least power of two >= n buckets.
func TestZipfSampleMatchesSearch(t *testing.T) {
	type table struct {
		n int
		s float64
	}
	tables := []table{{1, 0.8}, {2, 0.8}, {3, 0.8}, {3, 0}, {16384, 0.8}, {16384, 1.2}}
	for _, w := range workloads.All() {
		tables = append(tables, table{w.Params.NumPCs, w.Params.PCZipf}, table{w.Params.RegionPool, w.Params.RegionZipf})
	}
	for _, tc := range tables {
		z := trace.NewZipf(tc.n, tc.s)
		cdf := z.CDF()
		m := z.GuideLen()
		if want := 1 << bits.Len(uint(tc.n-1)); m != want {
			t.Errorf("n=%d s=%v: %d guide buckets, want %d", tc.n, tc.s, m, want)
		}
		check := func(u float64) {
			if u < 0 || u >= 1 {
				return
			}
			if got, want := z.Search(u), sort.SearchFloat64s(cdf, u); got != want {
				t.Fatalf("n=%d s=%v u=%v: guided search %d, binary search %d", tc.n, tc.s, u, got, want)
			}
		}
		for j := range m {
			edge := float64(j) / float64(m)
			check(edge)
			check(math.Nextafter(edge, -1))
			check(math.Nextafter(edge, 2))
		}
		r := trace.NewRNG(uint64(tc.n))
		for range 100_000 {
			check(r.Float64())
		}
	}
}
