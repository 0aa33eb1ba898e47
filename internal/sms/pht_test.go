package sms

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestInfinitePHT(t *testing.T) {
	pht := NewInfinitePHT()
	if _, _, ok := pht.Lookup(0, 42); ok {
		t.Fatal("hit in empty table")
	}
	pht.Store(0, 42, Pattern(0b101))
	pat, ready, ok := pht.Lookup(7, 42)
	if !ok || pat != 0b101 || ready != 7 {
		t.Fatalf("Lookup = (%v, %d, %v)", pat, ready, ok)
	}
	pht.Store(0, 42, Pattern(0b111)) // overwrite
	pat, _, _ = pht.Lookup(0, 42)
	if pat != 0b111 {
		t.Errorf("overwrite failed: %v", pat)
	}
	if pht.Len() != 1 {
		t.Errorf("Len = %d", pht.Len())
	}
	if pht.Name() != "Infinite" {
		t.Errorf("Name = %q", pht.Name())
	}
}

func TestDedicatedPHTBasic(t *testing.T) {
	pht := NewDedicatedPHT(16, 2)
	pht.Store(0, 0x100, Pattern(1))
	pat, _, ok := pht.Lookup(0, 0x100)
	if !ok || pat != 1 {
		t.Fatalf("Lookup = (%v, %v)", pat, ok)
	}
	if _, _, ok := pht.Lookup(0, 0x200); ok {
		t.Fatal("hit on absent key")
	}
	if pht.Stats.Lookups != 2 || pht.Stats.Hits != 1 || pht.Stats.Stores != 1 {
		t.Errorf("stats = %+v", pht.Stats)
	}
}

func TestDedicatedPHTNames(t *testing.T) {
	if got := NewDedicatedPHT(1024, 11).Name(); got != "1024-11a" {
		t.Errorf("Name = %q", got)
	}
	if got := NewDedicatedPHT(16, 11).Name(); got != "16-11a" {
		t.Errorf("Name = %q", got)
	}
}

func TestDedicatedPHTSetConflictLRU(t *testing.T) {
	pht := NewDedicatedPHT(4, 2)                   // keys with equal low-2 bits conflict
	k := func(i uint32) uint32 { return i<<2 | 1 } // all map to set 1
	pht.Store(0, k(1), 1)
	pht.Store(0, k(2), 2)
	pht.Lookup(0, k(1)) // k1 MRU, k2 LRU
	pht.Store(0, k(3), 3)
	if _, _, ok := pht.Lookup(0, k(2)); ok {
		t.Error("LRU entry survived")
	}
	if _, _, ok := pht.Lookup(0, k(1)); !ok {
		t.Error("MRU entry evicted")
	}
	if pht.Stats.Evicts != 1 {
		t.Errorf("Evicts = %d", pht.Stats.Evicts)
	}
}

func TestDedicatedPHTUpdateInPlace(t *testing.T) {
	pht := NewDedicatedPHT(4, 2)
	pht.Store(0, 9, 1)
	pht.Store(0, 9, 2)
	if pht.Len() != 1 {
		t.Errorf("Len = %d after double store of one key", pht.Len())
	}
	pat, _, _ := pht.Lookup(0, 9)
	if pat != 2 {
		t.Errorf("pattern = %v", pat)
	}
}

// TestPHTEntrySize pins the dedicated PHT at 24 B per way, the entry plus
// its 8-byte LRU stamp: a 1K-11a table holds 11,264 ways per core.
func TestPHTEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(phtEntry{}) + unsafe.Sizeof(uint64(0)); n != 24 {
		t.Errorf("a PHT way is %d B, want 24", n)
	}
}

// refPHT is the dedicated PHT written the direct way: a valid bit and a
// stamp per entry, and a victim picked in two passes, the first invalid
// way, else the first way with the least stamp.
type refPHT struct {
	sets, ways int
	tags       []uint32
	pats       []Pattern
	valid      []bool
	lastUse    []uint64
	tick       uint64
	stats      PHTStats
}

func newRefPHT(sets, ways int) *refPHT {
	n := sets * ways
	return &refPHT{sets: sets, ways: ways, tags: make([]uint32, n), pats: make([]Pattern, n),
		valid: make([]bool, n), lastUse: make([]uint64, n)}
}

func (r *refPHT) way(key uint32) (base int, tag uint32, hit int) {
	base = int(key%uint32(r.sets)) * r.ways
	tag = key / uint32(r.sets)
	for i := base; i < base+r.ways; i++ {
		if r.valid[i] && r.tags[i] == tag {
			return base, tag, i
		}
	}
	return base, tag, -1
}

func (r *refPHT) Lookup(now uint64, key uint32) (Pattern, uint64, bool) {
	r.tick++
	r.stats.Lookups++
	if _, _, i := r.way(key); i >= 0 {
		r.lastUse[i] = r.tick
		r.stats.Hits++
		return r.pats[i], now, true
	}
	return 0, now, false
}

func (r *refPHT) Store(_ uint64, key uint32, pat Pattern) {
	r.tick++
	r.stats.Stores++
	base, tag, i := r.way(key)
	if i < 0 {
		for w := base; w < base+r.ways; w++ {
			if !r.valid[w] {
				i = w
				break
			}
		}
		if i < 0 {
			i = base
			for w := base + 1; w < base+r.ways; w++ {
				if r.lastUse[w] < r.lastUse[i] {
					i = w
				}
			}
			r.stats.Evicts++
		}
	}
	r.tags[i], r.pats[i], r.valid[i], r.lastUse[i] = tag, pat, true, r.tick
}

// TestDedicatedPHTMatchesTwoPassLRU drives the stamp-0-is-empty table and
// the two-pass reference with the same random stream on a 2-set, 4-way
// geometry, with keys from a range of 16 tags per set, so sets fill, hit
// and evict throughout. Every return value and every counter must match.
func TestDedicatedPHTMatchesTwoPassLRU(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		got, want := NewDedicatedPHT(2, 4), newRefPHT(2, 4)
		for op := 0; op < 2000; op++ {
			key := uint32(rng.IntN(32))
			now := uint64(op)
			if rng.IntN(2) == 0 {
				pat := Pattern(rng.Uint64())
				got.Store(now, key, pat)
				want.Store(now, key, pat)
			} else {
				gp, gr, gok := got.Lookup(now, key)
				wp, wr, wok := want.Lookup(now, key)
				if gp != wp || gr != wr || gok != wok {
					t.Fatalf("seed %d op %d: Lookup(%d) = (%v, %d, %v), reference (%v, %d, %v)",
						seed, op, key, gp, gr, gok, wp, wr, wok)
				}
			}
			if got.Stats != want.stats {
				t.Fatalf("seed %d op %d: stats %+v, reference %+v", seed, op, got.Stats, want.stats)
			}
		}
		if got.Stats.Evicts == 0 || got.Stats.Hits == 0 {
			t.Fatalf("seed %d: stream never hit or evicted: %+v", seed, got.Stats)
		}
	}
}

func TestNewDedicatedPHTPanics(t *testing.T) {
	for _, bad := range [][2]int{{0, 4}, {3, 4}, {16, 0}} {
		func() {
			defer func() { recover() }()
			NewDedicatedPHT(bad[0], bad[1])
			t.Errorf("geometry %v accepted", bad)
		}()
	}
}

// TestDedicatedVsInfiniteQuick: while capacity is never exceeded, the
// dedicated table answers exactly like the infinite one.
func TestDedicatedVsInfiniteQuick(t *testing.T) {
	fn := func(ops []uint16) bool {
		ded := NewDedicatedPHT(64, 16) // 1024 entries: ops can't overflow
		inf := NewInfinitePHT()
		for i, op := range ops {
			key := uint32(op % 512)
			if i%2 == 0 {
				pat := Pattern(op) | 1 // non-zero
				ded.Store(0, key, pat)
				inf.Store(0, key, pat)
			} else {
				dp, _, dok := ded.Lookup(0, key)
				ip, _, iok := inf.Lookup(0, key)
				if dok != iok || dp != ip {
					t.Logf("key %d: dedicated (%v,%v) infinite (%v,%v)", key, dp, dok, ip, iok)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStorageTable3(t *testing.T) {
	g := DefaultGeometry()
	cases := []struct {
		sets, ways        int
		tags, pats, total float64
	}{
		{1024, 16, 22 * 1024, 64 * 1024, 86 * 1024},
		{1024, 11, 15488, 45056, 60544}, // 15.125KB + 44KB = 59.125KB
		{16, 11, 374, 704, 1078},
		{8, 11, 198, 352, 550},
	}
	for _, c := range cases {
		s := Storage(g, c.sets, c.ways)
		if s.TagBytes != c.tags || s.PatternBytes != c.pats || s.TotalBytes != c.total {
			t.Errorf("%d-%d: got %v/%v/%v want %v/%v/%v",
				c.sets, c.ways, s.TagBytes, s.PatternBytes, s.TotalBytes, c.tags, c.pats, c.total)
		}
	}
	// Tag widths: 11 bits for 1K sets, 17 for 16 sets, 18 for 8 sets.
	if Storage(g, 1024, 11).TagBits != 11 {
		t.Error("1K tag bits wrong")
	}
	if Storage(g, 16, 11).TagBits != 17 {
		t.Error("16-set tag bits wrong")
	}
	if Storage(g, 8, 11).TagBits != 18 {
		t.Error("8-set tag bits wrong")
	}
}

func TestKBFormat(t *testing.T) {
	if got := KB(512); got != "512B" {
		t.Errorf("KB(512) = %q", got)
	}
	if got := KB(60544); got != "59.125KB" {
		t.Errorf("KB(60544) = %q", got)
	}
}
