package memsys

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.L1I = CacheConfig{Name: "L1I", SizeBytes: 4 << 10, Ways: 2, BlockBytes: 64, TagLatency: 2, DataLatency: 2}
	cfg.L1D = CacheConfig{Name: "L1D", SizeBytes: 4 << 10, Ways: 2, BlockBytes: 64, TagLatency: 2, DataLatency: 2}
	cfg.L2 = CacheConfig{Name: "L2", SizeBytes: 64 << 10, Ways: 4, BlockBytes: 64, TagLatency: 6, DataLatency: 12}
	return cfg
}

func TestDefaultConfigIsTable1(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Cores != 4 {
		t.Errorf("Cores = %d, want 4", cfg.Cores)
	}
	if cfg.L1D.SizeBytes != 64<<10 || cfg.L1D.Ways != 4 || cfg.L1D.BlockBytes != 64 {
		t.Errorf("L1D = %+v, want 64KB 4-way 64B", cfg.L1D)
	}
	if cfg.L2.SizeBytes != 8<<20 || cfg.L2.Ways != 16 {
		t.Errorf("L2 = %+v, want 8MB 16-way", cfg.L2)
	}
	if cfg.L2.TagLatency != 6 || cfg.L2.DataLatency != 12 {
		t.Errorf("L2 latency = %d/%d, want 6/12", cfg.L2.TagLatency, cfg.L2.DataLatency)
	}
	if cfg.MemLatency != 400 {
		t.Errorf("MemLatency = %d, want 400", cfg.MemLatency)
	}
	if !cfg.NextLineIPrefetch {
		t.Error("next-line instruction prefetch should be on in the baseline")
	}
}

func TestConfigValidateRejectsBlockMismatch(t *testing.T) {
	cfg := smallConfig()
	cfg.L1D.BlockBytes = 32
	cfg.L1D.SizeBytes = 4 << 10
	if err := cfg.Validate(); err == nil {
		t.Fatal("mismatched L1/L2 block sizes accepted")
	}
}

func TestDataMissLatencies(t *testing.T) {
	h := New(smallConfig())

	// Cold: L1 miss, L2 miss -> memory.
	r := h.Data(0, 0x10000, false)
	if r.Level != LevelMem {
		t.Fatalf("cold access level = %v", r.Level)
	}
	wantMem := h.cfg.L1Latency + h.cfg.L2.TagLatency + h.cfg.MemLatency
	if r.Latency != wantMem {
		t.Errorf("memory latency = %d, want %d", r.Latency, wantMem)
	}

	// Same block: L1 hit.
	r = h.Data(0, 0x10008, false)
	if r.Level != LevelL1 || r.Latency != h.cfg.L1Latency {
		t.Errorf("L1 hit = %+v", r)
	}

	// Other core: L2 hit.
	r = h.Data(1, 0x10000, false)
	if r.Level != LevelL2 {
		t.Fatalf("remote access level = %v, want L2", r.Level)
	}
	wantL2 := h.cfg.L1Latency + h.cfg.L2.DataLatency
	if r.Latency != wantL2 {
		t.Errorf("L2 latency = %d, want %d", r.Latency, wantL2)
	}
}

func TestWritebackPath(t *testing.T) {
	cfg := smallConfig()
	cfg.L1D = CacheConfig{Name: "L1D", SizeBytes: 64, Ways: 1, BlockBytes: 64, TagLatency: 2, DataLatency: 2} // 1 line
	h := New(cfg)

	h.Data(0, 0x0000, true) // write-allocate, dirty in L1
	h.Data(0, 0x1000, false)
	if h.Stats.L1ToL2Writebacks != 1 {
		t.Fatalf("L1ToL2Writebacks = %d, want 1", h.Stats.L1ToL2Writebacks)
	}
	// The dirty block now lives in L2; reading it back hits L2.
	r := h.Data(0, 0x0000, false)
	if r.Level != LevelL2 {
		t.Errorf("read after writeback: level = %v, want L2", r.Level)
	}
}

func TestStoreInvalidatesSharers(t *testing.T) {
	h := New(smallConfig())
	ended := map[Addr]EvictCause{}
	h.SetL1DEvictHook(1, func(a Addr, c EvictCause) { ended[a] = c })

	h.Data(0, 0x2000, false)
	h.Data(1, 0x2000, false) // both L1Ds now hold the block
	h.Data(0, 0x2000, true)  // store by core 0 invalidates core 1

	if h.Stats.Core[1].Invalidations != 1 {
		t.Fatalf("core 1 invalidations = %d, want 1", h.Stats.Core[1].Invalidations)
	}
	if c, ok := ended[0x2000]; !ok || c != CauseInvalidation {
		t.Errorf("evict hook saw %v, want invalidation of 0x2000", ended)
	}
	if h.L1D(1).Contains(0x2000) {
		t.Error("core 1 still holds invalidated block")
	}
}

func TestPrefetchIntoL1(t *testing.T) {
	h := New(smallConfig())
	if _, issued := h.Prefetch(0, 0x3000); !issued {
		t.Fatal("prefetch not issued")
	}
	if _, issued := h.Prefetch(0, 0x3000); issued {
		t.Fatal("duplicate prefetch issued for resident block")
	}
	if h.Stats.Core[0].PrefetchIssued != 1 {
		t.Errorf("PrefetchIssued = %d, want 1", h.Stats.Core[0].PrefetchIssued)
	}
	r := h.Data(0, 0x3000, false)
	if r.Level != LevelL1 || !r.PrefetchUse {
		t.Errorf("demand after prefetch = %+v, want covered L1 hit", r)
	}
	if r := h.Data(0, 0x3000, false); r.Level != LevelL1 || r.PrefetchUse {
		t.Errorf("second demand after prefetch = %+v, want a plain L1 hit", r)
	}
	if h.Stats.Core[0].L1DPrefetchHits != 1 {
		t.Errorf("L1DPrefetchHits = %d, want 1", h.Stats.Core[0].L1DPrefetchHits)
	}
	if h.Stats.L2Requests[DPrefetch] != 1 {
		t.Errorf("L2 prefetch requests = %d, want 1", h.Stats.L2Requests[DPrefetch])
	}
	// A write is also a first use of a prefetched line, but no covered miss.
	h.Prefetch(0, 0x5000)
	if r := h.Data(0, 0x5000, true); r.Level != LevelL1 || !r.PrefetchUse {
		t.Errorf("write after prefetch = %+v, want an L1 hit using the prefetch", r)
	}
	if h.Stats.Core[0].L1DPrefetchHits != 1 {
		t.Errorf("L1DPrefetchHits = %d after a write used a prefetch, want 1", h.Stats.Core[0].L1DPrefetchHits)
	}
}

func TestNextLineInstructionPrefetch(t *testing.T) {
	h := New(smallConfig())
	h.Fetch(0, 0x8000)
	if h.Stats.L2Requests[IPrefetch] != 1 {
		t.Fatalf("IPrefetch requests = %d, want 1", h.Stats.L2Requests[IPrefetch])
	}
	// The next line is already in L1I: fetching it is a hit.
	r := h.Fetch(0, 0x8040)
	if r.Level != LevelL1 {
		t.Errorf("next-line fetch level = %v, want L1", r.Level)
	}

	cfg := smallConfig()
	cfg.NextLineIPrefetch = false
	h2 := New(cfg)
	h2.Fetch(0, 0x8000)
	if h2.Stats.L2Requests[IPrefetch] != 0 {
		t.Error("IPrefetch issued while disabled")
	}
}

func TestPVTrafficClassification(t *testing.T) {
	cfg := smallConfig()
	pvRange := AddrRange{Start: 0xF0000000, End: 0xF0010000}
	cfg.PVRanges = []AddrRange{pvRange}
	h := New(cfg)

	if h.ClassOf(0xF0000040) != ClassPV {
		t.Fatal("PV address not classified as PV")
	}
	if h.ClassOf(0x1000) != ClassApp {
		t.Fatal("app address classified as PV")
	}

	r := h.PVRead(0xF0000000)
	if r.Level != LevelMem {
		t.Fatalf("cold PV read level = %v", r.Level)
	}
	if h.Stats.OffChipReads[ClassPV] != 1 {
		t.Errorf("OffChipReads[PV] = %d, want 1", h.Stats.OffChipReads[ClassPV])
	}
	// Now resident in L2.
	r = h.PVRead(0xF0000000)
	if r.Level != LevelL2 {
		t.Errorf("warm PV read level = %v, want L2", r.Level)
	}
	if h.Stats.L2Requests[PVFetch] != 2 {
		t.Errorf("PVFetch requests = %d, want 2", h.Stats.L2Requests[PVFetch])
	}
}

func TestPVWritebackAllocatesWithoutOffChipRead(t *testing.T) {
	cfg := smallConfig()
	cfg.PVRanges = []AddrRange{{Start: 0xF0000000, End: 0xF0010000}}
	h := New(cfg)
	h.PVWriteback(0xF0000040)
	if h.Stats.OffChipReads[ClassPV] != 0 {
		t.Error("full-block PV writeback generated an off-chip read")
	}
	if !h.L2().Contains(0xF0000040) {
		t.Error("PV writeback did not allocate in L2")
	}
}

func TestOnChipOnlyPVDropsDirtyVictims(t *testing.T) {
	cfg := smallConfig()
	cfg.L2 = CacheConfig{Name: "L2", SizeBytes: 128, Ways: 1, BlockBytes: 64, TagLatency: 6, DataLatency: 12} // 2 lines
	cfg.PVRanges = []AddrRange{{Start: 0xF0000000, End: 0xF0010000}}
	cfg.OnChipOnlyPV = true
	h := New(cfg)

	var dropped []Addr
	h.SetPVDropHook(func(a Addr) { dropped = append(dropped, a) })

	h.PVWriteback(0xF0000000) // dirty PV line in L2 set 0
	h.Data(0, 0x0000, false)  // same set, displaces it
	h.Data(0, 0x1000, false)  // (set 0 again for 2-set L2: stride 128B) ensure eviction

	if h.Stats.PVDroppedWritebacks == 0 {
		t.Fatal("no PV writebacks dropped under OnChipOnlyPV")
	}
	if h.Stats.OffChipWrites[ClassPV] != 0 {
		t.Error("PV data written off-chip despite OnChipOnlyPV")
	}
	if len(dropped) == 0 {
		t.Error("drop hook not called")
	}
}

func TestStoreInvalidatesSharersAbove32Cores(t *testing.T) {
	cfg := smallConfig()
	cfg.Cores = 40
	h := New(cfg)
	h.Data(33, 0x2000, false)
	h.Data(0, 0x2000, true)
	if h.L1D(33).Contains(0x2000) {
		t.Fatal("store by core 0 left core 33's copy in place")
	}
	if h.Stats.Core[33].Invalidations != 1 {
		t.Errorf("core 33 invalidations = %d, want 1", h.Stats.Core[33].Invalidations)
	}
}

// TestStoreLeavesWriterSoleSharer drives random multi-core demand,
// prefetch and PV writeback streams and checks, after every store, that
// the writer's L1D is the only one holding the stored block.
func TestStoreLeavesWriterSoleSharer(t *testing.T) {
	for _, inclusive := range []bool{false, true} {
		for _, cores := range []int{4, 36} {
			cfg := smallConfig()
			cfg.Cores = cores
			cfg.L2 = CacheConfig{Name: "L2", SizeBytes: 8 << 10, Ways: 2, BlockBytes: 64, TagLatency: 6, DataLatency: 12}
			cfg.InclusiveL2 = inclusive
			h := New(cfg)
			rng := rand.New(rand.NewSource(int64(cores)))
			for i := 0; i < 20000; i++ {
				core := rng.Intn(cores)
				block := Addr(rng.Intn(512)) << 6
				switch rng.Intn(4) {
				case 0:
					h.Data(core, block, false)
				case 1:
					h.Prefetch(core, block)
				case 2:
					h.PVWriteback(block)
				case 3:
					h.Data(core, block, true)
					for c := 0; c < cores; c++ {
						if got := h.L1D(c).Contains(block); got != (c == core) {
							t.Fatalf("inclusive=%v cores=%d op %d: after core %d stored %#x, core %d holds it = %v",
								inclusive, cores, i, core, uint64(block), c, got)
						}
					}
				}
			}
		}
	}
}

// TestTrafficConservationQuick checks accounting identities under random
// access streams: L2 hits + misses == L2 requests per kind, and off-chip
// reads equal total L2 misses minus PV-writeback allocations.
func TestTrafficConservationQuick(t *testing.T) {
	fn := func(seed uint32, n uint8) bool {
		h := New(smallConfig())
		x := uint64(seed)
		for i := 0; i < int(n)*8; i++ {
			v := x
			x = x*6364136223846793005 + 1442695040888963407
			core := int(v % 2)
			addr := Addr(v>>8&0xFFF) << 6
			switch v >> 32 % 4 {
			case 0:
				h.Data(core, addr, v>>40%3 == 0)
			case 1:
				h.Fetch(core, addr)
			case 2:
				h.Prefetch(core, addr)
			case 3:
				h.Data(core, addr, false)
			}
		}
		for k := AccessKind(0); k < NumKinds; k++ {
			if h.Stats.L2Hits[k]+h.Stats.L2Misses[k] != h.Stats.L2Requests[k] {
				t.Logf("kind %v: hits %d + misses %d != requests %d",
					k, h.Stats.L2Hits[k], h.Stats.L2Misses[k], h.Stats.L2Requests[k])
				return false
			}
		}
		reads := h.Stats.OffChipReads[ClassApp] + h.Stats.OffChipReads[ClassPV]
		missTotal := h.Stats.L2MissesTotal() - h.Stats.L2Misses[PVWriteback]
		if reads != missTotal {
			t.Logf("off-chip reads %d != demandable L2 misses %d", reads, missTotal)
			return false
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestKindAndLevelStrings(t *testing.T) {
	if Load.String() != "load" || PVWriteback.String() != "pvwriteback" {
		t.Error("AccessKind strings wrong")
	}
	if !PVFetch.IsPV() || Load.IsPV() {
		t.Error("IsPV wrong")
	}
	if LevelL1.String() != "L1" || LevelMem.String() != "mem" {
		t.Error("Level strings wrong")
	}
	if ClassApp.String() != "app" || ClassPV.String() != "pv" {
		t.Error("Class strings wrong")
	}
}

func TestAddrRange(t *testing.T) {
	r := AddrRange{Start: 0x100, End: 0x200}
	if !r.Contains(0x100) || r.Contains(0x200) || r.Contains(0xFF) {
		t.Error("Contains boundaries wrong")
	}
	if r.Size() != 0x100 {
		t.Errorf("Size = %d", r.Size())
	}
}

func TestBankContention(t *testing.T) {
	cfg := smallConfig()
	cfg.L2Banks = 2
	cfg.BankServiceCycles = 4
	cfg.ModelBankContention = true
	h := New(cfg)
	h.Tick(100)

	// Two back-to-back requests to blocks in the same bank: the second
	// waits for the first's service slot.
	h.Data(0, 0x0000, false)      // bank 0
	r := h.Data(1, 0x0100, false) // also bank 0 (block 4, even)
	base := h.cfg.L1Latency + h.cfg.L2.TagLatency + h.cfg.MemLatency
	if r.Latency != base+4 {
		t.Errorf("contended latency = %d, want %d (+4 bank wait)", r.Latency, base+4)
	}
	if h.Stats.BankWaitCycles[Load] != 4 {
		t.Errorf("BankWaitCycles = %d, want 4", h.Stats.BankWaitCycles[Load])
	}

	// A request to the other bank proceeds unqueued.
	r = h.Data(0, 0x0040, false) // odd block -> bank 1
	if r.Latency != base {
		t.Errorf("uncontended latency = %d, want %d", r.Latency, base)
	}
}

// TestBankContentionWideBlocks pins bank interleaving to the L2 block
// size: with 128-byte blocks, eight consecutive blocks map to all eight
// banks, so none of the eight requests waits on another.
func TestBankContentionWideBlocks(t *testing.T) {
	cfg := DefaultConfig()
	for _, c := range []*CacheConfig{&cfg.L1I, &cfg.L1D, &cfg.L2} {
		c.BlockBytes = 128
	}
	cfg.ModelBankContention = true
	cfg.BankServiceCycles = 4
	h := New(cfg)
	h.Tick(100)
	for b := range cfg.L2Banks {
		h.Data(b%cfg.Cores, Addr(b*128), false)
	}
	if w := h.Stats.BankWaitCycles[Load]; w != 0 {
		t.Errorf("%d consecutive 128 B blocks waited %d bank cycles, want 0", cfg.L2Banks, w)
	}
	for b, free := range h.bankFree {
		if free != 100+cfg.BankServiceCycles {
			t.Errorf("bank %d free at cycle %d, want %d (booked once)", b, free, 100+cfg.BankServiceCycles)
		}
	}
}

func TestBankContentionDisabledByDefault(t *testing.T) {
	h := New(smallConfig())
	h.Tick(50)
	h.Data(0, 0x0000, false)
	r := h.Data(1, 0x0100, false)
	want := h.cfg.L1Latency + h.cfg.L2.TagLatency + h.cfg.MemLatency
	if r.Latency != want {
		t.Errorf("latency = %d with contention off, want %d", r.Latency, want)
	}
}

func TestPVArbitrationPriority(t *testing.T) {
	cfg := smallConfig()
	cfg.L2Banks = 1
	cfg.BankServiceCycles = 4
	cfg.ModelBankContention = true
	cfg.PrioritizeAppOverPV = true
	cfg.PVRanges = []AddrRange{{Start: 0xF0000000, End: 0xF0010000}}
	h := New(cfg)
	h.Tick(10)

	h.Data(0, 0x0000, false)  // books the bank
	r := h.PVRead(0xF0000000) // PV request loses an extra slot
	wait := r.Latency - (h.cfg.L2.TagLatency + h.cfg.MemLatency)
	if wait != 8 { // one busy slot + one yielded slot
		t.Errorf("PV wait = %d, want 8", wait)
	}
	if h.Stats.BankWaitCycles[PVFetch] != 8 {
		t.Errorf("BankWaitCycles[PVFetch] = %d", h.Stats.BankWaitCycles[PVFetch])
	}
}

func TestTickMonotone(t *testing.T) {
	h := New(smallConfig())
	h.Tick(100)
	h.Tick(50) // going backwards is ignored (per-core clocks drift)
	if h.Now() != 100 {
		t.Errorf("Now = %d, want 100", h.Now())
	}
}

func TestInclusiveL2BackInvalidates(t *testing.T) {
	cfg := smallConfig()
	cfg.L2 = CacheConfig{Name: "L2", SizeBytes: 128, Ways: 1, BlockBytes: 64, TagLatency: 6, DataLatency: 12} // 2 lines
	cfg.InclusiveL2 = true
	h := New(cfg)

	var evicted []Addr
	h.SetL1DEvictHook(0, func(a Addr, c EvictCause) {
		if c == CauseInvalidation {
			evicted = append(evicted, a)
		}
	})

	h.Data(0, 0x0000, false) // L2 set 0
	h.Data(0, 0x0080, false) // L2 set 0 (2-set L2, 64B blocks): displaces 0x0000
	if h.L1D(0).Contains(0x0000) {
		t.Fatal("L1 retains block evicted from inclusive L2")
	}
	if len(evicted) != 1 || evicted[0] != 0x0000 {
		t.Errorf("back-invalidation events = %v", evicted)
	}
}

func TestNonInclusiveL2KeepsL1Copies(t *testing.T) {
	cfg := smallConfig()
	cfg.L2 = CacheConfig{Name: "L2", SizeBytes: 128, Ways: 1, BlockBytes: 64, TagLatency: 6, DataLatency: 12}
	h := New(cfg)
	h.Data(0, 0x0000, false)
	h.Data(0, 0x0080, false)
	if !h.L1D(0).Contains(0x0000) {
		t.Fatal("non-inclusive hierarchy dropped a live L1 copy")
	}
}

func TestInclusiveL2DirtyL1CopyGoesOffChip(t *testing.T) {
	cfg := smallConfig()
	cfg.L2 = CacheConfig{Name: "L2", SizeBytes: 128, Ways: 1, BlockBytes: 64, TagLatency: 6, DataLatency: 12}
	cfg.InclusiveL2 = true
	h := New(cfg)
	h.Data(0, 0x0000, true) // dirty in L1
	before := h.Stats.OffChipWrites[ClassApp]
	h.Data(0, 0x0080, false) // back-invalidates the dirty copy
	if h.Stats.OffChipWrites[ClassApp] != before+1 {
		t.Errorf("dirty back-invalidated copy not written off-chip")
	}
}

// driveMixed sends a seeded mix of every request kind through h and
// returns each access's result.
func driveMixed(h *Hierarchy, seed int64, n int) []Result {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Result, 0, n)
	for i := 0; i < n; i++ {
		h.Tick(uint64(i) * 3)
		core := rng.Intn(h.cfg.Cores)
		a := Addr(rng.Intn(1<<16)) << 6
		if rng.Intn(4) == 0 {
			a += 0xF0000000 // inside the PV range of retargetPVConfig
		}
		var r Result
		switch rng.Intn(6) {
		case 0:
			r = h.Data(core, a, true)
		case 1:
			r = h.Fetch(core, a)
		case 2:
			r, _ = h.Prefetch(core, a)
		case 3:
			r = h.PVRead(a)
		case 4:
			r = h.PVWriteback(a)
		default:
			r = h.Data(core, a, false)
		}
		out = append(out, r)
	}
	return out
}

// retargetPVConfig is smallConfig with every per-run knob Retarget must
// replace turned on: PV ranges, on-chip-only PV and bank contention.
func retargetPVConfig() Config {
	cfg := smallConfig()
	cfg.PVRanges = []AddrRange{{Start: 0xF0000000, End: 0xF0400000}}
	cfg.OnChipOnlyPV = true
	cfg.ModelBankContention = true
	cfg.PrioritizeAppOverPV = true
	return cfg
}

// TestHierarchyRetargetMatchesNew pins Retarget: a used hierarchy
// retargeted to another config of its geometry answers every request
// exactly as New(cfg) does, and the old hooks never fire again.
func TestHierarchyRetargetMatchesNew(t *testing.T) {
	plain := smallConfig()
	plain.MemLatency = 250
	for _, c := range []struct {
		name       string
		prev, next Config
	}{
		{"pv-to-plain", retargetPVConfig(), plain},
		{"plain-to-pv", plain, retargetPVConfig()},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := New(c.prev)
			stale := 0
			for core := 0; core < c.prev.Cores; core++ {
				h.SetL1DEvictHook(core, func(Addr, EvictCause) { stale++ })
			}
			h.SetPVDropHook(func(Addr) { stale++ })
			driveMixed(h, 1, 4000)

			h.Retarget(c.next)
			stale = 0
			got := driveMixed(h, 2, 4000)
			want := New(c.next)
			if w := driveMixed(want, 2, 4000); !reflect.DeepEqual(got, w) {
				t.Fatal("retargeted hierarchy's results diverge from a fresh one")
			}
			if !reflect.DeepEqual(h.Stats, want.Stats) {
				t.Fatalf("retargeted stats diverge:\n%+v\nvs fresh\n%+v", h.Stats, want.Stats)
			}
			if stale != 0 {
				t.Errorf("hooks registered before Retarget fired %d times after it", stale)
			}
		})
	}
}

func TestHierarchyRetargetRejectsOtherGeometry(t *testing.T) {
	h := New(smallConfig())
	other := smallConfig()
	other.L2Banks = 4
	defer func() {
		if recover() == nil {
			t.Fatal("Retarget across geometries did not panic")
		}
	}()
	h.Retarget(other)
}
