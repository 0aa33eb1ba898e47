package sms

import (
	"fmt"
	"math/bits"

	"pvsim/internal/memsys"
)

// PatternStore is the PHT abstraction the SMS engine programs against. The
// paper's point is that this interface survives virtualization unchanged
// (§2.2: "the interface between the optimization engine and the original
// predictor table is preserved"); the three implementations are the
// infinite table, the dedicated set-associative table, and the virtualized
// table built on internal/core.
//
// All operations are clocked: now is the current cycle and Lookup returns
// the cycle at which the pattern is architecturally available (later than
// now only for virtualized stores that miss in the PVCache).
type PatternStore interface {
	// Lookup retrieves the pattern recorded for key, if any.
	Lookup(now uint64, key uint32) (pat Pattern, readyAt uint64, ok bool)
	// Store records the pattern observed for key at the end of a generation.
	Store(now uint64, key uint32, pat Pattern)
	// Name describes the configuration (for reports).
	Name() string
}

// InfinitePHT records every pattern ever seen; it upper-bounds coverage
// (the "Infinite" bars of Figures 4 and 5).
type InfinitePHT struct {
	m map[uint32]Pattern
}

// NewInfinitePHT returns an unbounded pattern store.
func NewInfinitePHT() *InfinitePHT { return &InfinitePHT{m: make(map[uint32]Pattern, 1<<12)} }

// Lookup implements PatternStore.
func (t *InfinitePHT) Lookup(now uint64, key uint32) (Pattern, uint64, bool) {
	p, ok := t.m[key]
	return p, now, ok
}

// Store implements PatternStore.
func (t *InfinitePHT) Store(_ uint64, key uint32, pat Pattern) { t.m[key] = pat }

// Name implements PatternStore.
func (t *InfinitePHT) Name() string { return "Infinite" }

// Len returns the number of recorded patterns.
func (t *InfinitePHT) Len() int { return len(t.m) }

// DedicatedPHT is the conventional on-chip PHT: a set-associative LRU table
// of (tag, pattern) pairs, indexed by the low bits of the 21-bit key.
type DedicatedPHT struct {
	sets    int
	ways    int
	setBits uint
	entries []phtEntry // sets*ways, set-major
	// lastUse holds each way's LRU stamp, 0 for an empty way; tick
	// advances before every stamp, as memsys.LeastStamp requires.
	lastUse []uint64
	tick    uint64

	Stats PHTStats
}

// phtEntry is one way's payload; its stamp lives in DedicatedPHT.lastUse.
type phtEntry struct {
	pat Pattern
	tag uint32
}

// PHTStats counts dedicated-PHT events.
type PHTStats struct {
	Lookups uint64
	Hits    uint64
	Stores  uint64
	Evicts  uint64
}

// NewDedicatedPHT builds a sets x ways table; sets must be a power of two.
func NewDedicatedPHT(sets, ways int) *DedicatedPHT {
	if sets <= 0 || sets&(sets-1) != 0 || ways <= 0 {
		panic(fmt.Sprintf("sms: bad PHT geometry %dx%d", sets, ways))
	}
	return &DedicatedPHT{
		sets:    sets,
		ways:    ways,
		setBits: uint(bits.TrailingZeros(uint(sets))),
		entries: make([]phtEntry, sets*ways),
		lastUse: make([]uint64, sets*ways),
	}
}

// Name implements PatternStore.
func (t *DedicatedPHT) Name() string { return fmt.Sprintf("%d-%da", t.sets, t.ways) }

// Sets returns the set count.
func (t *DedicatedPHT) Sets() int { return t.sets }

// Ways returns the associativity.
func (t *DedicatedPHT) Ways() int { return t.ways }

// Lookup implements PatternStore.
func (t *DedicatedPHT) Lookup(now uint64, key uint32) (Pattern, uint64, bool) {
	t.tick++
	t.Stats.Lookups++
	if _, i := t.find(key); i >= 0 {
		t.lastUse[i] = t.tick
		t.Stats.Hits++
		return t.entries[i].pat, now, true
	}
	return 0, now, false
}

// Store implements PatternStore.
func (t *DedicatedPHT) Store(_ uint64, key uint32, pat Pattern) {
	t.tick++
	t.Stats.Stores++
	base, i := t.find(key)
	if i < 0 {
		i = base + memsys.LeastStamp(t.lastUse[base:base+t.ways])
		if t.lastUse[i] != 0 {
			t.Stats.Evicts++
		}
		t.entries[i].tag = key >> t.setBits
	}
	t.entries[i].pat = pat
	t.lastUse[i] = t.tick
}

// find returns the first way of key's set and the way holding key, or -1.
func (t *DedicatedPHT) find(key uint32) (base, way int) {
	base = int(key&uint32(t.sets-1)) * t.ways
	tag := key >> t.setBits
	for i := base; i < base+t.ways; i++ {
		if t.lastUse[i] != 0 && t.entries[i].tag == tag {
			return base, i
		}
	}
	return base, -1
}

// Len returns the number of valid entries.
func (t *DedicatedPHT) Len() int {
	n := 0
	for _, s := range t.lastUse {
		if s != 0 {
			n++
		}
	}
	return n
}
