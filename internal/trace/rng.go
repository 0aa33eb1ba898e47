// Package trace generates deterministic synthetic memory-access streams
// with the structure SMS exploits: spatially-correlated accesses inside
// fixed-size regions, keyed by recurring trigger PCs, mixed with uncoverable
// one-off noise. It substitutes for the paper's commercial traces (TPC-C,
// TPC-H, SPECweb), which are proprietary; see DESIGN.md §1.
package trace

// RNG is xorshift128+, a small fast deterministic generator. Every source
// of randomness in the simulator flows from explicitly-seeded RNGs so a
// (workload, seed) pair always replays the identical access stream —
// baseline and prefetched runs are matched-trace comparable.
type RNG struct {
	s0, s1 uint64
}

// SplitMix64 advances x and returns a well-mixed 64-bit value; it seeds
// RNGs and derives per-PC canonical patterns.
func SplitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from seed via SplitMix64.
func NewRNG(seed uint64) *RNG {
	s := seed
	r := &RNG{}
	r.s0 = SplitMix64(&s)
	r.s1 = SplitMix64(&s)
	if r.s0 == 0 && r.s1 == 0 {
		r.s1 = 1
	}
	return r
}

// Uint64 returns the next raw 64-bit value.
func (r *RNG) Uint64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// Intn returns Uint64() % n; it panics for n <= 0. A power-of-two n,
// the bound of every paper workload's draws, takes a mask, which gives
// the same value without a division.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("trace: Intn with non-positive bound")
	}
	x := r.Uint64()
	if n&(n-1) == 0 {
		return int(x & uint64(n-1))
	}
	return int(x % uint64(n))
}

// Float64 returns a value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }
