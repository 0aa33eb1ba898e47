package memsys

import (
	"fmt"
	"math/bits"
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
// Line state is split by how often it is read. tags holds each way's
// tag<<1|1 (0 for an empty way) and is the only array a lookup scans;
// lastUse holds the LRU stamps and flags the dirty/prefetched bits, both
// touched only on a hit, fill or invalidation. All three are sets*ways
// long, set-major.
type Cache struct {
	cfg       CacheConfig
	blockBits uint
	setBits   uint
	setMask   uint64
	ways      int
	tags      []uint64
	lastUse   []uint64
	flags     []uint8
	tick      uint64

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
	return &Cache{
		cfg:       cfg,
		blockBits: uint(bits.TrailingZeros(uint(cfg.BlockBytes))),
		setBits:   uint(bits.TrailingZeros(uint(sets))),
		setMask:   uint64(sets - 1),
		ways:      cfg.Ways,
		tags:      make([]uint64, n),
		lastUse:   make([]uint64, n),
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
// block would be stored under.
func (c *Cache) locate(a Addr) (base int, key uint64) {
	block := uint64(a) >> c.blockBits
	return int(block&c.setMask) * c.ways, block>>c.setBits<<1 | 1
}

// find returns the index of the way holding key in the set starting at
// base, or -1 when the block is absent.
func (c *Cache) find(base int, key uint64) int {
	for i, t := range c.tags[base : base+c.ways] {
		if t == key {
			return base + i
		}
	}
	return -1
}

// victimAt describes the valid line at index i as a Victim, rebuilding
// its block-aligned address from the tag word and the set index.
func (c *Cache) victimAt(i int) Victim {
	block := c.tags[i]>>1<<c.setBits | uint64(i/c.ways)
	f := c.flags[i]
	return Victim{
		Addr:           Addr(block << c.blockBits),
		Valid:          true,
		Dirty:          f&flagDirty != 0,
		UnusedPrefetch: f&flagPrefetched != 0,
	}
}

// LookupResult reports the outcome of a demand lookup.
type LookupResult struct {
	Hit          bool
	FirstUseOfPF bool // the hit consumed a prefetched line for the first time
}

// Lookup performs a demand access. On a hit the line's LRU state is updated,
// the dirty bit is set for writes, and the prefetched bit is consumed.
func (c *Cache) Lookup(a Addr, write bool) LookupResult {
	c.tick++
	i := c.find(c.locate(a))
	if i < 0 {
		c.Stats.Misses++
		if write {
			c.Stats.WriteMisses++
		}
		return LookupResult{}
	}
	c.lastUse[i] = c.tick
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

// Contains reports presence without disturbing LRU or prefetch state.
func (c *Cache) Contains(a Addr) bool {
	return c.find(c.locate(a)) >= 0
}

// Touch updates LRU state for a resident block without other side effects.
// It reports whether the block was present.
func (c *Cache) Touch(a Addr) bool {
	i := c.find(c.locate(a))
	if i < 0 {
		return false
	}
	c.tick++
	c.lastUse[i] = c.tick
	return true
}

// Fill installs the block containing a. If the block is already resident the
// fill only merges flags (a dirty fill marks the line dirty). Otherwise the
// LRU way is displaced and returned as the victim.
func (c *Cache) Fill(a Addr, dirty, prefetch bool) Victim {
	c.tick++
	base, key := c.locate(a)

	// Merge into an existing line if present (e.g. a writeback arriving for
	// a block that is still resident).
	if i := c.find(base, key); i >= 0 {
		if dirty {
			c.flags[i] |= flagDirty
		}
		c.lastUse[i] = c.tick
		return Victim{}
	}

	// The first empty way, else the least recently used one (lowest way on
	// a tie).
	w := c.find(base, 0)
	var v Victim
	if w < 0 {
		w = base
		for i := base + 1; i < base+c.ways; i++ {
			if c.lastUse[i] < c.lastUse[w] {
				w = i
			}
		}
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
	c.tags[w], c.lastUse[w], c.flags[w] = key, c.tick, f
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
	c.tags[i], c.lastUse[i], c.flags[i] = 0, 0, 0
	return v
}

// Reset clears every line and all statistics in place, returning the cache
// to its post-construction state without reallocating the line arrays.
func (c *Cache) Reset() {
	clear(c.tags)
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
// set and no flags on empty ways. It is used by property tests.
func (c *Cache) CheckInvariants() error {
	for base := 0; base < len(c.tags); base += c.ways {
		set := base / c.ways
		seen := make(map[uint64]bool, c.ways)
		for i := base; i < base+c.ways; i++ {
			t := c.tags[i]
			if t == 0 {
				if c.flags[i] != 0 {
					return fmt.Errorf("cache %s set %d: empty way with flags %#x", c.cfg.Name, set, c.flags[i])
				}
				continue
			}
			if seen[t] {
				return fmt.Errorf("cache %s set %d: duplicate tag %#x", c.cfg.Name, set, t>>1)
			}
			seen[t] = true
		}
	}
	return nil
}
