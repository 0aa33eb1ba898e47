package memsys

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func testCacheConfig(size, ways, block int) CacheConfig {
	return CacheConfig{Name: "test", SizeBytes: size, Ways: ways, BlockBytes: block,
		TagLatency: 1, DataLatency: 2}
}

func TestCacheConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  CacheConfig
		ok   bool
	}{
		{"default L1", testCacheConfig(64<<10, 4, 64), true},
		{"default L2", testCacheConfig(8<<20, 16, 64), true},
		{"tiny", testCacheConfig(128, 2, 64), true},
		{"zero size", testCacheConfig(0, 4, 64), false},
		{"zero ways", testCacheConfig(64<<10, 0, 64), false},
		{"non-pow2 block", testCacheConfig(64<<10, 4, 48), false},
		{"non-divisible", testCacheConfig(1000, 3, 64), false},
		{"non-pow2 sets", testCacheConfig(3*64*4, 4, 64), false},
		{"one set of 1-byte blocks", testCacheConfig(4, 4, 1), false},
		{"1-byte blocks", testCacheConfig(8, 4, 1), true},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestCacheSets(t *testing.T) {
	cfg := testCacheConfig(64<<10, 4, 64)
	if got := cfg.Sets(); got != 256 {
		t.Errorf("Sets() = %d, want 256", got)
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(testCacheConfig(1024, 2, 64)) // 8 sets x 2 ways
	if r := c.Lookup(0x1000, false); r.Hit {
		t.Fatal("hit in empty cache")
	}
	c.Fill(0x1000, false, false)
	if r := c.Lookup(0x1000, false); !r.Hit {
		t.Fatal("miss after fill")
	}
	// Another address in the same block hits too.
	if r := c.Lookup(0x1038, false); !r.Hit {
		t.Fatal("miss within same block")
	}
	if c.Stats.Hits != 2 || c.Stats.Misses != 1 {
		t.Errorf("stats = %+v, want 2 hits / 1 miss", c.Stats)
	}
}

func TestCacheLRUReplacement(t *testing.T) {
	c := NewCache(testCacheConfig(256, 2, 64)) // 2 sets x 2 ways
	// Three blocks mapping to set 0: block addresses 0, 128*1, 128*2 with
	// 64B blocks and 2 sets: set = (addr>>6) & 1.
	a0, a1, a2 := Addr(0x000), Addr(0x100), Addr(0x200)
	c.Fill(a0, false, false)
	c.Fill(a1, false, false)
	c.Lookup(a0, false) // a0 now MRU; a1 is LRU
	v := c.Fill(a2, false, false)
	if !v.Valid || v.Addr != a1 {
		t.Fatalf("victim = %+v, want eviction of %#x", v, uint64(a1))
	}
	if !c.Contains(a0) || c.Contains(a1) || !c.Contains(a2) {
		t.Fatal("LRU replacement kept the wrong lines")
	}
}

func TestCacheDirtyWriteback(t *testing.T) {
	c := NewCache(testCacheConfig(128, 1, 64)) // 2 sets x 1 way
	c.Fill(0x000, false, false)
	c.Lookup(0x000, true) // write marks dirty
	v := c.Fill(0x100, false, false)
	if !v.Valid || !v.Dirty {
		t.Fatalf("victim = %+v, want dirty eviction", v)
	}
	if c.Stats.DirtyEvictions != 1 {
		t.Errorf("DirtyEvictions = %d, want 1", c.Stats.DirtyEvictions)
	}
}

func TestCacheDirtyFillMerge(t *testing.T) {
	c := NewCache(testCacheConfig(128, 1, 64))
	c.Fill(0x000, false, false)
	c.Fill(0x000, true, false) // writeback arrives for resident line
	v := c.Fill(0x100, false, false)
	if !v.Dirty {
		t.Fatal("dirty fill did not mark resident line dirty")
	}
}

func TestCachePrefetchLifecycle(t *testing.T) {
	c := NewCache(testCacheConfig(128, 1, 64))
	c.Fill(0x000, false, true)
	if c.Stats.PrefetchFills != 1 {
		t.Fatalf("PrefetchFills = %d", c.Stats.PrefetchFills)
	}
	r := c.Lookup(0x000, false)
	if !r.Hit || !r.FirstUseOfPF {
		t.Fatalf("first demand use = %+v, want hit with FirstUseOfPF", r)
	}
	r = c.Lookup(0x000, false)
	if !r.Hit || r.FirstUseOfPF {
		t.Fatalf("second use = %+v, want plain hit", r)
	}
	if c.Stats.PrefetchDemand != 1 {
		t.Errorf("PrefetchDemand = %d, want 1", c.Stats.PrefetchDemand)
	}
}

func TestCacheUnusedPrefetchEviction(t *testing.T) {
	c := NewCache(testCacheConfig(128, 1, 64))
	c.Fill(0x000, false, true)
	v := c.Fill(0x100, false, false) // evicts the unused prefetch
	if !v.UnusedPrefetch {
		t.Fatalf("victim = %+v, want UnusedPrefetch", v)
	}
	if c.Stats.PrefetchUnused != 1 {
		t.Errorf("PrefetchUnused = %d, want 1", c.Stats.PrefetchUnused)
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache(testCacheConfig(128, 1, 64))
	c.Fill(0x000, true, false)
	v := c.Invalidate(0x000)
	if !v.Valid || !v.Dirty {
		t.Fatalf("invalidate victim = %+v, want valid dirty", v)
	}
	if c.Contains(0x000) {
		t.Fatal("line still present after invalidate")
	}
	if v = c.Invalidate(0x000); v.Valid {
		t.Fatal("second invalidate returned a victim")
	}
	if c.Stats.Invalidations != 1 {
		t.Errorf("Invalidations = %d, want 1", c.Stats.Invalidations)
	}
}

func TestCacheEvictHook(t *testing.T) {
	c := NewCache(testCacheConfig(128, 1, 64))
	var got []struct {
		addr  Addr
		cause EvictCause
	}
	c.SetEvictHook(func(a Addr, cause EvictCause) {
		got = append(got, struct {
			addr  Addr
			cause EvictCause
		}{a, cause})
	})
	c.Fill(0x000, false, false)
	c.Fill(0x100, false, false) // replacement of 0x000
	c.Invalidate(0x100)
	if len(got) != 2 {
		t.Fatalf("hook fired %d times, want 2", len(got))
	}
	if got[0].addr != 0x000 || got[0].cause != CauseReplacement {
		t.Errorf("first event = %+v", got[0])
	}
	if got[1].addr != 0x100 || got[1].cause != CauseInvalidation {
		t.Errorf("second event = %+v", got[1])
	}
}

func TestCacheTouch(t *testing.T) {
	c := NewCache(testCacheConfig(256, 2, 64))
	a0, a1, a2 := Addr(0x000), Addr(0x100), Addr(0x200)
	c.Fill(a0, false, false)
	c.Fill(a1, false, false)
	if !c.Touch(a0) {
		t.Fatal("Touch missed resident block")
	}
	c.Fill(a2, false, false)
	if !c.Contains(a0) {
		t.Fatal("touched block was evicted")
	}
	if c.Touch(0x4000) {
		t.Fatal("Touch hit absent block")
	}
}

func TestCacheBlockAddr(t *testing.T) {
	c := NewCache(testCacheConfig(128, 1, 64))
	if got := c.BlockAddr(0x1234); got != 0x1200 {
		t.Errorf("BlockAddr(0x1234) = %#x, want 0x1200", uint64(got))
	}
}

// TestCacheInvariantsQuick drives a random operation sequence and checks
// structural invariants plus an exact model of residency.
func TestCacheInvariantsQuick(t *testing.T) {
	fn := func(seed int64, ops []uint16) bool {
		c := NewCache(testCacheConfig(1024, 2, 64)) // 8 sets x 2 ways
		rng := rand.New(rand.NewSource(seed))
		for _, op := range ops {
			addr := Addr(op&0x3FF) << 6 // 1024 distinct blocks
			switch rng.Intn(4) {
			case 0:
				c.Lookup(addr, rng.Intn(2) == 0)
			case 1:
				c.Fill(addr, rng.Intn(2) == 0, rng.Intn(2) == 0)
			case 2:
				c.Invalidate(addr)
			case 3:
				c.Contains(addr)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Log(err)
				return false
			}
			if c.ResidentBlocks() > 16 {
				t.Logf("resident %d > capacity 16", c.ResidentBlocks())
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestCacheFillThenContains is a quick property: a filled block is always
// resident immediately after the fill.
func TestCacheFillThenContains(t *testing.T) {
	c := NewCache(testCacheConfig(4096, 4, 64))
	fn := func(raw uint32) bool {
		addr := Addr(raw) << 3
		c.Fill(addr, false, false)
		return c.Contains(addr)
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewCachePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCache accepted invalid geometry")
		}
	}()
	NewCache(testCacheConfig(100, 3, 48))
}

// refCache is the line-struct cache the packed-tag Cache replaced, kept as
// a reference model: the differential tests below drive both with the same
// operations and require identical results, victims, hook events and
// statistics.
type refCache struct {
	blockBits, setBits uint
	setMask            uint64
	ways               int
	lines              []refLine
	tick               uint64
	onEvict            func(addr Addr, cause EvictCause)
	Stats              CacheStats
}

type refLine struct {
	tag, lastUse             uint64
	valid, dirty, prefetched bool
}

func newRefCache(cfg CacheConfig) *refCache {
	c := NewCache(cfg) // validates and derives the shifts
	return &refCache{blockBits: c.blockBits, setBits: c.setBits, setMask: c.setMask,
		ways: cfg.Ways, lines: make([]refLine, cfg.Sets()*cfg.Ways)}
}

func (c *refCache) decompose(a Addr) (set int, tag uint64) {
	block := uint64(a) >> c.blockBits
	return int(block & c.setMask), block >> c.setBits
}

func (c *refCache) compose(set int, tag uint64) Addr {
	return Addr((tag<<c.setBits | uint64(set)) << c.blockBits)
}

func (c *refCache) setLines(set int) []refLine { return c.lines[set*c.ways : (set+1)*c.ways] }

func (c *refCache) Lookup(a Addr, write bool) LookupResult {
	c.tick++
	set, tag := c.decompose(a)
	s := c.setLines(set)
	for i := range s {
		if s[i].valid && s[i].tag == tag {
			s[i].lastUse = c.tick
			first := s[i].prefetched
			if first {
				s[i].prefetched = false
				c.Stats.PrefetchDemand++
			}
			if write {
				s[i].dirty = true
				c.Stats.WriteHits++
			}
			c.Stats.Hits++
			return LookupResult{Hit: true, FirstUseOfPF: first}
		}
	}
	c.Stats.Misses++
	if write {
		c.Stats.WriteMisses++
	}
	return LookupResult{}
}

func (c *refCache) Contains(a Addr) bool {
	set, tag := c.decompose(a)
	for _, ln := range c.setLines(set) {
		if ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

func (c *refCache) Touch(a Addr) bool {
	set, tag := c.decompose(a)
	s := c.setLines(set)
	for i := range s {
		if s[i].valid && s[i].tag == tag {
			c.tick++
			s[i].lastUse = c.tick
			return true
		}
	}
	return false
}

func (c *refCache) Fill(a Addr, dirty, prefetch bool) Victim {
	c.tick++
	set, tag := c.decompose(a)
	s := c.setLines(set)
	for i := range s {
		if s[i].valid && s[i].tag == tag {
			if dirty {
				s[i].dirty = true
			}
			s[i].lastUse = c.tick
			return Victim{}
		}
	}
	w := -1
	for i := range s {
		if !s[i].valid {
			w = i
			break
		}
	}
	var v Victim
	if w < 0 {
		w = 0
		for i := 1; i < len(s); i++ {
			if s[i].lastUse < s[w].lastUse {
				w = i
			}
		}
		old := s[w]
		v = Victim{Addr: c.compose(set, old.tag), Valid: true, Dirty: old.dirty, UnusedPrefetch: old.prefetched}
		c.Stats.Evictions++
		if old.dirty {
			c.Stats.DirtyEvictions++
		}
		if old.prefetched {
			c.Stats.PrefetchUnused++
		}
		if c.onEvict != nil {
			c.onEvict(v.Addr, CauseReplacement)
		}
	}
	s[w] = refLine{tag: tag, lastUse: c.tick, valid: true, dirty: dirty, prefetched: prefetch}
	c.Stats.Fills++
	if prefetch {
		c.Stats.PrefetchFills++
	}
	return v
}

func (c *refCache) Invalidate(a Addr) Victim {
	set, tag := c.decompose(a)
	s := c.setLines(set)
	for i := range s {
		if s[i].valid && s[i].tag == tag {
			v := Victim{Addr: c.compose(set, tag), Valid: true, Dirty: s[i].dirty, UnusedPrefetch: s[i].prefetched}
			c.Stats.Invalidations++
			if s[i].prefetched {
				c.Stats.PrefetchUnused++
			}
			if c.onEvict != nil {
				c.onEvict(v.Addr, CauseInvalidation)
			}
			s[i] = refLine{}
			return v
		}
	}
	return Victim{}
}

func (c *refCache) Reset() {
	clear(c.lines)
	c.tick = 0
	c.Stats = CacheStats{}
}

func (c *refCache) ResidentBlocks() int {
	n := 0
	for _, ln := range c.lines {
		if ln.valid {
			n++
		}
	}
	return n
}

type evictEvent struct {
	addr  Addr
	cause EvictCause
}

// cachePair runs one operation stream on a Cache and a refCache side by
// side, recording each one's evict-hook events.
type cachePair struct {
	got            *Cache
	want           *refCache
	gotEv, wantEv  []evictEvent
	blocks, offset uint64 // address-space shape: block-number range, block size
}

func newCachePair(cfg CacheConfig) *cachePair {
	p := &cachePair{got: NewCache(cfg), want: newRefCache(cfg),
		blocks: uint64(4 * cfg.Sets() * cfg.Ways), offset: uint64(cfg.BlockBytes)}
	p.got.SetEvictHook(func(a Addr, c EvictCause) { p.gotEv = append(p.gotEv, evictEvent{a, c}) })
	p.want.onEvict = func(a Addr, c EvictCause) { p.wantEv = append(p.wantEv, evictEvent{a, c}) }
	return p
}

// addr maps a random word onto a small set of blocks, so sets conflict,
// with a random offset inside the block and, for some words, high address
// bits that exercise the top of the tag.
func (p *cachePair) addr(r uint64) Addr {
	a := r%p.blocks*p.offset + r>>32%p.offset
	if r>>48&3 == 0 {
		a |= 0xFFFF_0000_0000_0000
	}
	return Addr(a)
}

// step applies the operation that op selects to both caches and reports
// the first divergence.
func (p *cachePair) step(op uint8, r uint64) error {
	a := p.addr(r)
	write, prefetch := r>>56&1 != 0, r>>57&1 != 0
	var got, want any
	switch op % 16 {
	case 0, 1, 2, 3, 4:
		got, want = p.got.Lookup(a, write), p.want.Lookup(a, write)
	case 5, 6, 7, 8, 9:
		got, want = p.got.Fill(a, write, prefetch), p.want.Fill(a, write, prefetch)
	case 10:
		got, want = p.got.Contains(a), p.want.Contains(a)
	case 11:
		got, want = p.got.Touch(a), p.want.Touch(a)
	case 12, 13, 14:
		got, want = p.got.Invalidate(a), p.want.Invalidate(a)
	case 15:
		p.got.Reset()
		p.want.Reset()
	}
	if got != want {
		return fmt.Errorf("op %d on %#x: got %+v, reference %+v", op%16, uint64(a), got, want)
	}
	if !slices.Equal(p.gotEv, p.wantEv) {
		return fmt.Errorf("op %d on %#x: evict events %v, reference %v", op%16, uint64(a), p.gotEv, p.wantEv)
	}
	p.gotEv, p.wantEv = p.gotEv[:0], p.wantEv[:0]
	if p.got.Stats != p.want.Stats {
		return fmt.Errorf("op %d on %#x: stats %+v, reference %+v", op%16, uint64(a), p.got.Stats, p.want.Stats)
	}
	if g, w := p.got.ResidentBlocks(), p.want.ResidentBlocks(); g != w {
		return fmt.Errorf("op %d on %#x: %d resident blocks, reference %d", op%16, uint64(a), g, w)
	}
	return p.got.CheckInvariants()
}

var diffGeometries = []CacheConfig{
	testCacheConfig(256, 1, 64),   // 4 sets x 1 way
	testCacheConfig(1024, 4, 64),  // 4 sets x 4 ways
	testCacheConfig(4096, 16, 64), // 4 sets x 16 ways
}

// TestCacheMatchesReference drives seeded random operation sequences on
// 1-, 4- and 16-way geometries and checks the Cache against the reference
// model after every operation.
func TestCacheMatchesReference(t *testing.T) {
	for _, cfg := range diffGeometries {
		for seed := int64(1); seed <= 4; seed++ {
			p := newCachePair(cfg)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 20000; i++ {
				if err := p.step(uint8(rng.Intn(16)), rng.Uint64()); err != nil {
					t.Fatalf("%d-way seed %d step %d: %v", cfg.Ways, seed, i, err)
				}
			}
		}
	}
}

// FuzzCacheOps is TestCacheMatchesReference with the operation stream
// decoded from the fuzz input: the first byte picks the geometry, then
// each 9-byte record is one operation byte and one 64-bit operand.
func FuzzCacheOps(f *testing.F) {
	f.Add([]byte{0, 5, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 9, 7, 0, 0, 0, 0, 0, 0, 3, 12, 7, 0, 0, 0, 0, 0, 0, 0, 15, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		p := newCachePair(diffGeometries[int(data[0])%len(diffGeometries)])
		for data = data[1:]; len(data) >= 9; data = data[9:] {
			if err := p.step(data[0], binary.LittleEndian.Uint64(data[1:9])); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// jumpClock moves the packed cache's LRU clock forward to t, never back,
// so its stamps keep the reference's order.
func (p *cachePair) jumpClock(t uint32) { p.got.tick = max(p.got.tick, t) }

// TestCacheStampWrap is TestCacheMatchesReference with the packed cache's
// 32-bit clock jumped to within 500 of the wrap every 2,500 operations, so
// every stretch crosses the wrap and renumbers its stamps. Resets, which
// restart the clock, are skipped.
func TestCacheStampWrap(t *testing.T) {
	const stretch = 2500
	for _, cfg := range diffGeometries {
		for seed := int64(1); seed <= 4; seed++ {
			p := newCachePair(cfg)
			rng := rand.New(rand.NewSource(seed))
			wraps := 0
			for i := 0; i < 20000; i++ {
				if i%stretch == 0 {
					p.jumpClock(math.MaxUint32 - uint32(rng.Intn(500)))
				}
				before := p.got.tick
				if err := p.step(uint8(rng.Intn(15)), rng.Uint64()); err != nil {
					t.Fatalf("%d-way seed %d step %d: %v", cfg.Ways, seed, i, err)
				}
				if p.got.tick < before {
					wraps++
				}
			}
			if wraps != 20000/stretch {
				t.Fatalf("%d-way seed %d: clock wrapped %d times, want %d", cfg.Ways, seed, wraps, 20000/stretch)
			}
		}
	}
}

// FuzzCacheStampWrap is FuzzCacheOps with the packed cache's clock started
// within 2^16 of the wrap: after the geometry byte, two little-endian bytes
// give the distance, then come FuzzCacheOps' 9-byte records. Reset records
// are skipped, as in TestCacheStampWrap. Each seed starts 40 ticks short
// of the wrap and runs 100 operations, so it renumbers with full sets.
func FuzzCacheStampWrap(f *testing.F) {
	for g := range len(diffGeometries) {
		rng := rand.New(rand.NewSource(int64(g)))
		seed := []byte{byte(g), 40, 0}
		for range 100 {
			seed = append(seed, byte(rng.Intn(15)))
			seed = binary.LittleEndian.AppendUint64(seed, rng.Uint64())
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		p := newCachePair(diffGeometries[int(data[0])%len(diffGeometries)])
		p.jumpClock(math.MaxUint32 - uint32(binary.LittleEndian.Uint16(data[1:3])))
		for data = data[3:]; len(data) >= 9; data = data[9:] {
			if data[0]%16 == 15 {
				continue
			}
			if err := p.step(data[0], binary.LittleEndian.Uint64(data[1:9])); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestCacheMatchesReferenceNarrow is TestCacheMatchesReference with every
// address below 2^32, so the cache never allocates its high tag halves and
// every operation takes find's branch-free scan. Bit 48 of each operand
// keeps cachePair.addr from adding high address bits.
func TestCacheMatchesReferenceNarrow(t *testing.T) {
	for _, cfg := range diffGeometries {
		for seed := int64(1); seed <= 4; seed++ {
			p := newCachePair(cfg)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 20000; i++ {
				if err := p.step(uint8(rng.Intn(16)), rng.Uint64()|1<<48); err != nil {
					t.Fatalf("%d-way seed %d step %d: %v", cfg.Ways, seed, i, err)
				}
			}
			if CacheHighHalf(p.got) {
				t.Fatalf("%d-way seed %d: narrow addresses allocated high tag halves", cfg.Ways, seed)
			}
		}
	}
}

// TestCacheFillTakesLowestEmptyWay fills one set, invalidates every way
// but the first and last, and checks that two fills land in ways 1 and 2:
// the empty ways tie at stamp 0, below every valid way, and Fill takes the
// lowest way of the least stamp.
func TestCacheFillTakesLowestEmptyWay(t *testing.T) {
	for _, cfg := range diffGeometries[1:] {
		c := NewCache(cfg)
		stride := Addr(cfg.Sets() * cfg.BlockBytes) // same set, next tag
		way := func(a Addr) int { return c.find(c.locate(a)) }
		for w := range cfg.Ways {
			c.Fill(Addr(w)*stride, false, false)
			if got := way(Addr(w) * stride); got != w {
				t.Fatalf("%d-way: fill %d landed in way %d", cfg.Ways, w, got)
			}
		}
		for w := 1; w < cfg.Ways-1; w++ {
			c.Invalidate(Addr(w) * stride)
		}
		for i, a := range []Addr{Addr(cfg.Ways) * stride, Addr(cfg.Ways+1) * stride} {
			if v := c.Fill(a, false, false); v.Valid {
				t.Fatalf("%d-way: fill %#x evicted %#x with empty ways left", cfg.Ways, uint64(a), uint64(v.Addr))
			}
			if got := way(a); got != 1+i {
				t.Errorf("%d-way: fill %d after invalidation landed in way %d, want %d", cfg.Ways, i, got, 1+i)
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCacheInvariantsCatchBadStamps corrupts one stamp at a time and checks
// that CheckInvariants names it: an empty way must hold stamp 0, and a
// set's valid ways distinct non-zero stamps, or Fill's least-stamp way is
// not the first empty way, else the LRU way.
func TestCacheInvariantsCatchBadStamps(t *testing.T) {
	cfg := diffGeometries[1]
	stride := Addr(cfg.Sets() * cfg.BlockBytes) // same set, next tag
	for _, tc := range []struct {
		name    string
		corrupt func(c *Cache)
	}{
		{"empty way with a stamp", func(c *Cache) { c.lastUse[2] = 7 }},
		{"valid way with stamp 0", func(c *Cache) { c.lastUse[0] = 0 }},
		{"repeated valid stamp", func(c *Cache) { c.lastUse[1] = c.lastUse[0] }},
	} {
		c := NewCache(cfg)
		c.Fill(0, false, false)
		c.Fill(stride, false, false)
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s: before corruption: %v", tc.name, err)
		}
		tc.corrupt(c)
		if err := c.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "stamp") {
			t.Errorf("%s: CheckInvariants returned %v, want a stamp error", tc.name, err)
		}
	}
}

// leastStampRef is the plain first-minimum loop LeastStamp must agree
// with.
func leastStampRef[S ~uint32 | ~uint64](stamps []S) int {
	w := 0
	for i, s := range stamps {
		if s < stamps[w] {
			w = i
		}
	}
	return w
}

// TestLeastStamp checks LeastStamp against the reference on every length
// from 1 to 64, with ties, zeros and stamps at the 2^63-1 bound, for both
// stamp widths.
func TestLeastStamp(t *testing.T) {
	const top = 1<<63 - 1
	rng := rand.New(rand.NewSource(1))
	pools := [][]uint64{
		{0, 1, 2, 3},                     // many ties, zeros
		{0, top, top - 1, 1},             // the bound and both ends
		{top, top - 1},                   // ties near the bound
		{5, 1 << 31, 1<<32 - 1, 1 << 32}, // around the 32-bit edge
	}
	for n := 1; n <= 64; n++ {
		for _, pool := range pools {
			for range 200 {
				s64 := make([]uint64, n)
				s32 := make([]uint32, n)
				for i := range s64 {
					s64[i] = pool[rng.Intn(len(pool))]
					s32[i] = uint32(s64[i])
				}
				if got, want := LeastStamp(s64), leastStampRef(s64); got != want {
					t.Fatalf("LeastStamp(%v) = %d, want %d", s64, got, want)
				}
				if got, want := LeastStamp(s32), leastStampRef(s32); got != want {
					t.Fatalf("LeastStamp(%v) = %d, want %d", s32, got, want)
				}
			}
		}
	}
	if got := LeastStamp([]uint64{top, top, 0, 0}); got != 2 {
		t.Errorf("LeastStamp(top, top, 0, 0) = %d, want 2", got)
	}
}

// FuzzLeastStamp checks LeastStamp against the reference on arbitrary
// stamps: each 8 bytes of input give one stamp, its top bit cleared to
// keep it below 2^63, and at most 64 stamps are used. The 32-bit form is
// checked on the low halves.
func FuzzLeastStamp(f *testing.F) {
	f.Add(binary.LittleEndian.AppendUint64(nil, 7))
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 1<<63-1), 0))
	f.Add(make([]byte, 8*16))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := min(len(data)/8, 64)
		if n == 0 {
			return
		}
		s64 := make([]uint64, n)
		s32 := make([]uint32, n)
		for i := range s64 {
			s64[i] = binary.LittleEndian.Uint64(data[8*i:]) &^ (1 << 63)
			s32[i] = uint32(s64[i])
		}
		if got, want := LeastStamp(s64), leastStampRef(s64); got != want {
			t.Fatalf("LeastStamp(%v) = %d, want %d", s64, got, want)
		}
		if got, want := LeastStamp(s32), leastStampRef(s32); got != want {
			t.Fatalf("LeastStamp(%v) = %d, want %d", s32, got, want)
		}
	})
}
