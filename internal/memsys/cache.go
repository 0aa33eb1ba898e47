package memsys

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// CacheConfig describes one set-associative cache.
type CacheConfig struct {
	Name        string
	SizeBytes   int    // total data capacity
	Ways        int    // associativity
	BlockBytes  int    // line size; must be a power of two
	TagLatency  uint64 // cycles to determine hit/miss
	DataLatency uint64 // cycles to deliver data on a hit
}

// Sets returns the number of sets implied by the geometry.
func (c CacheConfig) Sets() int { return c.SizeBytes / (c.Ways * c.BlockBytes) }

// Validate checks that the geometry is internally consistent.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.BlockBytes <= 0 {
		return fmt.Errorf("cache %s: non-positive geometry %+v", c.Name, c)
	}
	if c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("cache %s: block size %d is not a power of two", c.Name, c.BlockBytes)
	}
	sets := c.Sets()
	if sets <= 0 || sets*c.Ways*c.BlockBytes != c.SizeBytes {
		return fmt.Errorf("cache %s: size %d not divisible into %d-way sets of %d-byte blocks",
			c.Name, c.SizeBytes, c.Ways, c.BlockBytes)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d is not a power of two", c.Name, sets)
	}
	if sets == 1 && c.BlockBytes == 1 {
		// A tag would use all 64 address bits, leaving none for the
		// valid bit of its tag word.
		return fmt.Errorf("cache %s: one set of 1-byte blocks", c.Name)
	}
	return nil
}

// EvictCause says why a line left the cache.
type EvictCause uint8

const (
	// CauseReplacement means the line was displaced by a fill.
	CauseReplacement EvictCause = iota
	// CauseInvalidation means the line was invalidated (coherence).
	CauseInvalidation
)

func (c EvictCause) String() string {
	if c == CauseReplacement {
		return "replacement"
	}
	return "invalidation"
}

// Victim describes a line displaced by a fill or invalidation.
type Victim struct {
	Addr           Addr // block-aligned address of the displaced line
	Valid          bool // false when the fill used an empty way
	Dirty          bool // line must be written back
	UnusedPrefetch bool // line was prefetched and never demand-referenced
}

// Line flag bits. Data contents are not modeled (the simulator is
// trace-driven), except for PV metadata whose contents live in the PVTable
// backing store.
const (
	flagDirty      uint8 = 1 << iota
	flagPrefetched       // filled by a prefetch and not yet demand-referenced
)

// CacheStats counts events local to one cache.
type CacheStats struct {
	Hits           uint64
	Misses         uint64
	Fills          uint64
	Evictions      uint64 // valid lines displaced by fills
	DirtyEvictions uint64
	Invalidations  uint64
	PrefetchFills  uint64
	PrefetchUnused uint64 // prefetched lines that left without a demand hit
	PrefetchDemand uint64 // first demand references to prefetched lines
	WriteHits      uint64
	WriteMisses    uint64
}

// Cache is a set-associative, write-back, write-allocate cache with LRU
// replacement. It tracks dirty bits and a per-line "prefetched, not yet
// used" bit so the harness can account overpredictions exactly as Figure 4
// does.
//
// Line state is split by how often it is read. Each way's tag word is
// tag<<1|1 (0 for an empty way). tags holds its low 32 bits and is the
// only array a lookup scans. tagsHi holds its high 32 bits; the first fill
// whose word needs them allocates it, so it stays nil while every address
// is narrow (below 2^43 for the Table 1 hierarchy), and a lookup reads it
// only after a low-half match. lastUse holds 32-bit LRU stamps (see
// renumber) and flags the dirty/prefetched bits, both touched only on a
// hit, fill or invalidation. That is 9 B per way without tagsHi, 13 B with
// it. Every array is sets*ways long, set-major.
type Cache struct {
	cfg       CacheConfig
	blockBits uint
	setBits   uint
	keyShift  uint // blockBits + setBits - 1; see locate
	setMask   uint64
	ways      int
	tags      []uint32
	tagsHi    []uint32
	lastUse   []uint32
	flags     []uint8
	tick      uint32

	// onEvict, when set, fires for every valid line that leaves the cache
	// (replacement or invalidation), before the replacement completes.
	onEvict func(addr Addr, cause EvictCause)

	Stats CacheStats
}

// NewCache builds a cache from cfg; it panics on invalid geometry because a
// bad geometry is a programming error, not a runtime condition.
func NewCache(cfg CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	n := sets * cfg.Ways
	blockBits := uint(bits.TrailingZeros(uint(cfg.BlockBytes)))
	setBits := uint(bits.TrailingZeros(uint(sets)))
	return &Cache{
		cfg:       cfg,
		blockBits: blockBits,
		setBits:   setBits,
		keyShift:  blockBits + setBits - 1, // Validate rejects blockBits+setBits == 0
		setMask:   uint64(sets - 1),
		ways:      cfg.Ways,
		tags:      make([]uint32, n),
		lastUse:   make([]uint32, n),
		flags:     make([]uint8, n),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// SetEvictHook registers fn to run whenever a valid line leaves the cache.
// The address passed is block-aligned.
func (c *Cache) SetEvictHook(fn func(addr Addr, cause EvictCause)) { c.onEvict = fn }

// BlockAddr returns the block-aligned address containing a.
func (c *Cache) BlockAddr(a Addr) Addr {
	return a &^ Addr(c.cfg.BlockBytes-1)
}

// locate returns the index of a's set's first way and the tag word a's
// block would be stored under, tag<<1|1. Shifting one bit less than the
// block and set bits leaves a set-index bit below the tag, which the OR
// overwrites with the valid bit.
func (c *Cache) locate(a Addr) (base int, key uint64) {
	return int(uint64(a)>>c.blockBits&c.setMask) * c.ways, uint64(a)>>c.keyShift | 1
}

// find returns the index of the way holding key in the set starting at
// base, or -1 when the block is absent. key is never the empty word 0, so
// at most one way can hold it.
//
// While every tag word fits in 32 bits (no tagsHi, narrow key), a
// low-half match is a whole match, and find scans every way with no early
// exit, keeping the match in a conditional move: the simulated streams
// hit a random way, so a branch that left the loop at the hit would
// mispredict on most hits. Once tagsHi exists, or the key is wide, two
// ways can share a low half, and find takes the early-exit loop, which
// checks the high half after each low-half match; it compares the rebuilt
// word with key rather than shifting key, which keeps that loop free of
// register copies.
//
// find stays out of line. Inlined into Lookup, Invalidate or Contains,
// Go 1.24 compiles the narrow loop's select as a compare and branch
// instead of a conditional move, and the branch mispredicts on most hits.
//
//go:noinline
func (c *Cache) find(base int, key uint64) int {
	tags := c.tags[base : base+c.ways]
	if c.tagsHi != nil || key>>32 != 0 {
		for i, t := range tags {
			if t == uint32(key) && c.wordAt(base+i) == key {
				return base + i
			}
		}
		return -1
	}
	k, w := uint32(key), -1
	for i, t := range tags {
		if t == k {
			w = base + i
		}
	}
	return w
}

// wordAt returns way i's whole tag word.
func (c *Cache) wordAt(i int) uint64 {
	if c.tagsHi == nil {
		return uint64(c.tags[i])
	}
	return uint64(c.tagsHi[i])<<32 | uint64(c.tags[i])
}

// setTag stores key as way i's tag word, allocating the high halves the
// first time a word needs them.
func (c *Cache) setTag(i int, key uint64) {
	hi := uint32(key >> 32)
	if hi != 0 && c.tagsHi == nil {
		c.tagsHi = make([]uint32, len(c.tags))
	}
	c.tags[i] = uint32(key)
	if c.tagsHi != nil {
		c.tagsHi[i] = hi
	}
}

// victimAt describes the valid line at index i as a Victim, rebuilding
// its block-aligned address from the tag word and the set index.
func (c *Cache) victimAt(i int) Victim {
	block := c.wordAt(i)>>1<<c.setBits | uint64(i/c.ways)
	f := c.flags[i]
	return Victim{
		Addr:           Addr(block << c.blockBits),
		Valid:          true,
		Dirty:          f&flagDirty != 0,
		UnusedPrefetch: f&flagPrefetched != 0,
	}
}

// LeastStamp returns the index of the least stamp in stamps, the lowest
// index on a tie; stamps must be non-empty and every stamp below 2^63.
// Every LRU table calls it under one contract: a stamp of 0 marks an
// empty slot, and live stamps are distinct, at least 1 and below 2^63,
// so the result is the first empty slot, else the least recently used.
// The running minimum is kept by an arithmetic select, not a compare and
// branch: LRU victims fall in unpredictable ways, and Go's branch
// eliminator turns only one-value selects into conditional moves, so any
// form that updates the minimum and its index under one condition
// compiles to a branch that mispredicts on most picks.
func LeastStamp[S ~uint32 | ~uint64](stamps []S) int {
	m, w := uint64(stamps[0]), 0
	for i, s := range stamps {
		// mask is all ones when s < m: s-m wraps to a value with the top
		// bit set, since both are below 2^63.
		mask := uint64(int64(uint64(s)-m) >> 63)
		m ^= (m ^ uint64(s)) & mask
		w ^= (w ^ i) & int(mask)
	}
	return w
}

// stamp advances the LRU clock and returns the new stamp, renumbering the
// stamps first when the clock is about to wrap.
func (c *Cache) stamp() uint32 {
	if c.tick == math.MaxUint32 {
		c.renumber()
	}
	c.tick++
	return c.tick
}

// renumber rewrites each set's valid stamps as their ranks within the set
// (1 for the least recent) and restarts the clock above every rank. LRU
// compares stamps only among one set's ways, where they are distinct, so
// the cache picks exactly the victims it would have with a clock that
// never wraps.
func (c *Cache) renumber() {
	order := make([]int, 0, c.ways)
	for base := 0; base < len(c.tags); base += c.ways {
		order = order[:0]
		for i := base; i < base+c.ways; i++ {
			if c.tags[i] != 0 {
				order = append(order, i)
			}
		}
		slices.SortFunc(order, func(x, y int) int { return cmp.Compare(c.lastUse[x], c.lastUse[y]) })
		for r, i := range order {
			c.lastUse[i] = uint32(r + 1)
		}
	}
	c.tick = uint32(c.ways)
}

// LookupResult reports the outcome of a demand lookup.
type LookupResult struct {
	Hit          bool
	FirstUseOfPF bool // the hit consumed a prefetched line for the first time
}

// Lookup performs a demand access. On a hit the line's LRU state is updated,
// the dirty bit is set for writes, and the prefetched bit is consumed.
func (c *Cache) Lookup(a Addr, write bool) LookupResult {
	now := c.stamp()
	i := c.find(c.locate(a))
	if i < 0 {
		c.Stats.Misses++
		if write {
			c.Stats.WriteMisses++
		}
		return LookupResult{}
	}
	c.lastUse[i] = now
	f := c.flags[i]
	first := f&flagPrefetched != 0
	if first {
		f &^= flagPrefetched
		c.Stats.PrefetchDemand++
	}
	if write {
		f |= flagDirty
		c.Stats.WriteHits++
	}
	c.flags[i] = f
	c.Stats.Hits++
	return LookupResult{Hit: true, FirstUseOfPF: first}
}

// Contains reports presence without disturbing LRU or prefetch state. It
// spells out locate to stay within the inlining budget.
func (c *Cache) Contains(a Addr) bool {
	return c.find(int(uint64(a)>>c.blockBits&c.setMask)*c.ways, uint64(a)>>c.keyShift|1) >= 0
}

// Touch updates LRU state for a resident block without other side effects.
// It reports whether the block was present.
func (c *Cache) Touch(a Addr) bool {
	i := c.find(c.locate(a))
	if i < 0 {
		return false
	}
	c.lastUse[i] = c.stamp()
	return true
}

// Fill installs the block containing a. If the block is already resident
// (e.g. a writeback arriving for a block that is still resident) the fill
// only merges flags: a dirty fill marks the line dirty. Otherwise the way
// with the least stamp, lowest on a tie, takes it, and its line, if
// valid, is returned as the victim. An empty way holds stamp 0 and a valid
// one a distinct stamp of at least 1 (see CheckInvariants), so that way is
// the first empty way if there is one, else the LRU way.
func (c *Cache) Fill(a Addr, dirty, prefetch bool) Victim {
	now := c.stamp()
	base, key := c.locate(a)
	if i := c.find(base, key); i >= 0 {
		if dirty {
			c.flags[i] |= flagDirty
		}
		c.lastUse[i] = now
		return Victim{}
	}
	w := base + LeastStamp(c.lastUse[base:base+c.ways])
	var v Victim
	if c.tags[w] != 0 {
		v = c.victimAt(w)
		c.Stats.Evictions++
		if v.Dirty {
			c.Stats.DirtyEvictions++
		}
		if v.UnusedPrefetch {
			c.Stats.PrefetchUnused++
		}
		if c.onEvict != nil {
			c.onEvict(v.Addr, CauseReplacement)
		}
	}
	var f uint8
	if dirty {
		f |= flagDirty
	}
	if prefetch {
		f |= flagPrefetched
		c.Stats.PrefetchFills++
	}
	c.setTag(w, key)
	c.lastUse[w], c.flags[w] = now, f
	c.Stats.Fills++
	return v
}

// Invalidate removes the block containing a, if present, and returns its
// state as a victim (Valid=false when the block was absent).
func (c *Cache) Invalidate(a Addr) Victim {
	i := c.find(c.locate(a))
	if i < 0 {
		return Victim{}
	}
	v := c.victimAt(i)
	c.Stats.Invalidations++
	if v.UnusedPrefetch {
		c.Stats.PrefetchUnused++
	}
	if c.onEvict != nil {
		c.onEvict(v.Addr, CauseInvalidation)
	}
	c.setTag(i, 0)
	c.lastUse[i], c.flags[i] = 0, 0
	return v
}

// Reset clears every line and all statistics in place, returning the cache
// to its post-construction state without reallocating the line arrays. It
// drops the high tag halves, which a new cache does not have, so a reused
// cache keeps find's branch-free scan until a wide fill needs them again.
func (c *Cache) Reset() {
	clear(c.tags)
	c.tagsHi = nil
	clear(c.lastUse)
	clear(c.flags)
	c.tick = 0
	c.Stats = CacheStats{}
}

// ResidentBlocks returns the number of valid lines; useful for tests.
func (c *Cache) ResidentBlocks() int {
	n := 0
	for _, t := range c.tags {
		if t != 0 {
			n++
		}
	}
	return n
}

// CheckInvariants verifies internal consistency: no duplicate tags within a
// set, no flags, high tag half or stamp on empty ways, and distinct
// non-zero stamps on a set's valid ways, which makes Fill's least-stamp
// way the first empty way, else the LRU way. It is used by property tests.
func (c *Cache) CheckInvariants() error {
	for base := 0; base < len(c.tags); base += c.ways {
		set := base / c.ways
		seen := make(map[uint64]bool, c.ways)
		stamps := make(map[uint32]bool, c.ways)
		for i := base; i < base+c.ways; i++ {
			t, u := c.wordAt(i), c.lastUse[i]
			if c.tags[i] == 0 {
				if t != 0 || c.flags[i] != 0 || u != 0 {
					return fmt.Errorf("cache %s set %d: empty way with tag %#x, flags %#x, stamp %d", c.cfg.Name, set, t, c.flags[i], u)
				}
				continue
			}
			if seen[t] || u == 0 || stamps[u] {
				return fmt.Errorf("cache %s set %d: tag %#x with stamp %d repeats a tag or stamp, or has stamp 0", c.cfg.Name, set, t>>1, u)
			}
			seen[t], stamps[u] = true, true
		}
	}
	return nil
}
