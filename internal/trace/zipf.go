package trace

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Zipf samples ranks 0..N-1 with probability proportional to 1/(rank+1)^S.
// Commercial-workload locality (hot database pages, hot code paths) is
// conventionally modeled as Zipf-distributed reuse; the exponent controls
// how concentrated the working set is.
//
// A Zipf is immutable once built, so one table serves every generator in
// the process: NewZipf hands out a shared instance per (n, s), and Sample
// is safe for concurrent use.
type Zipf struct {
	n   int
	cdf []float64
	// guide[j] is the first rank whose CDF is at least j/len(guide); see
	// Sample. len(guide) is the least power of two >= n.
	guide []uint32
}

// zipfKey identifies one table: the rank count and the exponent's bits (a
// float64 key would never match itself for NaN).
type zipfKey struct {
	n int
	s uint64
}

// zipfTables memoises NewZipf: zipfKey -> *Zipf. It grows by one table per
// distinct (n, s) and never shrinks. Workload and branch-stream parameters
// come from code, not from requests, so the set is finite — a few dozen
// tables of at most a few hundred kilobytes each.
var zipfTables sync.Map

// NewZipf returns the CDF table for n items with exponent s (s = 0
// degrades to uniform). Every call with the same (n, s) returns the same
// shared, immutable table; the first call builds it. It panics for n <= 0
// or negative s.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic(fmt.Sprintf("trace: Zipf over %d items", n))
	}
	if s < 0 {
		panic(fmt.Sprintf("trace: negative Zipf exponent %v", s))
	}
	k := zipfKey{n: n, s: math.Float64bits(s)}
	if z, ok := zipfTables.Load(k); ok {
		return z.(*Zipf)
	}
	// Concurrent first calls may each build a table; LoadOrStore keeps
	// one, and every caller gets that one.
	z, _ := zipfTables.LoadOrStore(k, buildZipf(n, s))
	return z.(*Zipf)
}

// buildZipf computes the CDF for n items with exponent s.
func buildZipf(n int, s float64) *Zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1 // guard against rounding
	guide := make([]uint32, 1<<bits.Len(uint(n-1)))
	m, i := float64(len(guide)), 0
	for j := range guide {
		for cdf[i] < float64(j)/m {
			i++
		}
		guide[j] = uint32(i)
	}
	return &Zipf{n: n, cdf: cdf, guide: guide}
}

// N returns the number of ranks.
func (z *Zipf) N() int { return z.n }

// Sample draws a rank using r: the first rank whose CDF is at least a
// uniform u in [0, 1), the rank sort.SearchFloat64s(cdf, u) returns.
func (z *Zipf) Sample(r *RNG) int { return z.search(r.Float64()) }

// search returns the first rank whose CDF is at least u in [0, 1). The
// guide bucket j = floor(u*m) holds the first rank whose CDF reaches j/m
// <= u, where the answer cannot lie below, so the walk starts there. m is
// a power of two, so u*m and j/m are exact. With m >= n buckets the walk
// takes about one step on average, where a binary search takes log2(n)
// unpredictable ones.
func (z *Zipf) search(u float64) int {
	i := int(z.guide[int(u*float64(len(z.guide)))])
	for z.cdf[i] < u {
		i++
	}
	return i
}

// P returns the probability of rank i (tests use it).
func (z *Zipf) P(i int) float64 {
	if i == 0 {
		return z.cdf[0]
	}
	return z.cdf[i] - z.cdf[i-1]
}
