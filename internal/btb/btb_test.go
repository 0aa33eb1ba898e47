package btb

import (
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"

	"pvsim/internal/core"
	"pvsim/internal/memsys"
)

type countBackend struct {
	reads, writes int
}

func (b *countBackend) Read(memsys.Addr) memsys.Result {
	b.reads++
	return memsys.Result{Level: memsys.LevelL2, Latency: 12}
}
func (b *countBackend) Write(memsys.Addr) memsys.Result {
	b.writes++
	return memsys.Result{Level: memsys.LevelL2, Latency: 12}
}

func newVirt(t *testing.T, sets int) (*Virtualized, *countBackend) {
	t.Helper()
	be := &countBackend{}
	return NewVirtualized(DefaultConfig(sets), core.DefaultProxyConfig("btb"), 0xF0000000, 64, be), be
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(512).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Sets: 0, Ways: 4, TagBits: 16, TargetBits: 32},
		{Sets: 3, Ways: 4, TagBits: 16, TargetBits: 32},
		{Sets: 16, Ways: 0, TagBits: 16, TargetBits: 32},
		{Sets: 16, Ways: 4, TagBits: 0, TargetBits: 32},
		{Sets: 16, Ways: 4, TagBits: 16, TargetBits: 64},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestStorageBytes(t *testing.T) {
	// 512 sets x 4 ways x 48 bits = 12KB.
	if got := DefaultConfig(512).StorageBytes(); got != 12288 {
		t.Errorf("StorageBytes = %v, want 12288", got)
	}
}

func TestDedicatedLookupUpdate(t *testing.T) {
	b := NewDedicated(DefaultConfig(16))
	pc, target := memsys.Addr(0x4000), memsys.Addr(0x8888)
	if _, _, ok := b.Lookup(0, pc); ok {
		t.Fatal("hit in empty BTB")
	}
	b.Update(0, pc, target)
	got, _, ok := b.Lookup(0, pc)
	if !ok || got != target {
		t.Fatalf("Lookup = (%#x, %v)", uint64(got), ok)
	}
	if b.Stats.Hits != 1 || b.Stats.Lookups != 2 {
		t.Errorf("stats = %+v", b.Stats)
	}
}

func TestDedicatedLRU(t *testing.T) {
	cfg := Config{Sets: 4, Ways: 2, TagBits: 16, TargetBits: 32}
	b := NewDedicated(cfg)
	// Three PCs in the same set (stride 4 sets x 4 bytes).
	pcs := []memsys.Addr{0x1000, 0x1000 + 4*4, 0x1000 + 8*4}
	b.Update(0, pcs[0], 0x10)
	b.Update(0, pcs[1], 0x20)
	b.Lookup(0, pcs[0]) // pcs[0] MRU
	b.Update(0, pcs[2], 0x30)
	if _, _, ok := b.Lookup(0, pcs[1]); ok {
		t.Error("LRU way survived")
	}
	if _, _, ok := b.Lookup(0, pcs[0]); !ok {
		t.Error("MRU way evicted")
	}
}

// refDedicated is the dedicated BTB written the direct way: a valid bit and
// a stamp per entry, and a victim picked in two passes, the first invalid
// way, else the first way with the least stamp.
type refDedicated struct {
	cfg     Config
	tags    []uint32
	targets []uint64
	valid   []bool
	lastUse []uint64
	tick    uint64
	stats   Stats
}

func newRefDedicated(cfg Config) *refDedicated {
	n := cfg.Entries()
	return &refDedicated{cfg: cfg, tags: make([]uint32, n), targets: make([]uint64, n),
		valid: make([]bool, n), lastUse: make([]uint64, n)}
}

func (r *refDedicated) way(pc memsys.Addr) (base int, tag uint32, hit int) {
	v := uint64(pc) / 4
	base = int(v%uint64(r.cfg.Sets)) * r.cfg.Ways
	tag = uint32(v/uint64(r.cfg.Sets)) % (1 << r.cfg.TagBits)
	for i := base; i < base+r.cfg.Ways; i++ {
		if r.valid[i] && r.tags[i] == tag {
			return base, tag, i
		}
	}
	return base, tag, -1
}

func (r *refDedicated) Lookup(now uint64, pc memsys.Addr) (memsys.Addr, uint64, bool) {
	r.tick++
	r.stats.Lookups++
	if _, _, i := r.way(pc); i >= 0 {
		r.lastUse[i] = r.tick
		r.stats.Hits++
		return memsys.Addr(r.targets[i]), now, true
	}
	return 0, now, false
}

func (r *refDedicated) Update(_ uint64, pc, target memsys.Addr) {
	r.tick++
	r.stats.Updates++
	base, tag, i := r.way(pc)
	if i < 0 {
		for w := base; w < base+r.cfg.Ways; w++ {
			if !r.valid[w] {
				i = w
				break
			}
		}
		if i < 0 {
			i = base
			for w := base + 1; w < base+r.cfg.Ways; w++ {
				if r.lastUse[w] < r.lastUse[i] {
					i = w
				}
			}
			r.stats.Evicts++
		}
	}
	r.tags[i], r.valid[i], r.lastUse[i] = tag, true, r.tick
	r.targets[i] = uint64(target) % (1 << r.cfg.TargetBits)
}

// TestDedicatedMatchesTwoPassLRU drives the stamp-0-is-empty BTB and the
// two-pass reference with the same random stream on a 2-set, 4-way
// geometry with 3-bit tags, and PCs from a range of 32 branches per set
// (so tags alias too): sets fill, hit and evict throughout. Every return
// value and every counter must match.
func TestDedicatedMatchesTwoPassLRU(t *testing.T) {
	cfg := Config{Sets: 2, Ways: 4, TagBits: 3, TargetBits: 8}
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		got, want := NewDedicated(cfg), newRefDedicated(cfg)
		for op := 0; op < 2000; op++ {
			pc := memsys.Addr(rng.IntN(64)<<2 | rng.IntN(4))
			now := uint64(op)
			if rng.IntN(2) == 0 {
				target := memsys.Addr(rng.Uint64())
				got.Update(now, pc, target)
				want.Update(now, pc, target)
			} else {
				gt, gr, gok := got.Lookup(now, pc)
				wt, wr, wok := want.Lookup(now, pc)
				if gt != wt || gr != wr || gok != wok {
					t.Fatalf("seed %d op %d: Lookup(%#x) = (%#x, %d, %v), reference (%#x, %d, %v)",
						seed, op, uint64(pc), uint64(gt), gr, gok, uint64(wt), wr, wok)
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

func TestSetCodecRoundTripQuick(t *testing.T) {
	cfg := DefaultConfig(1024)
	codec, err := NewSetCodec(cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	fn := func(tags [4]uint16, targets [4]uint32, valid uint8, victim uint8) bool {
		s := Set{Tags: make([]uint32, 4), Targets: make([]uint64, 4), Valid: make([]bool, 4), Victim: victim % 16}
		for i := 0; i < 4; i++ {
			s.Tags[i] = uint32(tags[i])
			s.Targets[i] = uint64(targets[i])
			s.Valid[i] = valid&(1<<uint(i)) != 0
		}
		buf := make([]byte, 64)
		codec.Pack(s, buf)
		got := codec.Unpack(buf)
		if got.Victim != s.Victim {
			return false
		}
		for i := 0; i < 4; i++ {
			if got.Tags[i] != s.Tags[i] || got.Targets[i] != s.Targets[i] || got.Valid[i] != s.Valid[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// Zero-is-empty law.
	empty := codec.Unpack(make([]byte, 64))
	for i := 0; i < 4; i++ {
		if empty.Valid[i] {
			t.Fatal("zero block decoded to valid entries")
		}
	}
}

func TestSetCodecRejectsOversize(t *testing.T) {
	cfg := Config{Sets: 16, Ways: 16, TagBits: 16, TargetBits: 32}
	if _, err := NewSetCodec(cfg, 64); err == nil {
		t.Fatal("16 ways x 49 bits accepted in 64B block")
	}
}

func TestVirtualizedBasic(t *testing.T) {
	v, be := newVirt(t, 1024)
	pc, target := memsys.Addr(0x4_0000_0000), memsys.Addr(0x1234)
	v.Update(0, pc, target)
	got, _, ok := v.Lookup(0, pc)
	if !ok || got != target {
		t.Fatalf("Lookup = (%#x, %v)", uint64(got), ok)
	}
	if be.reads == 0 {
		t.Error("no PV fetch issued")
	}
}

func TestVirtualizedSurvivesSpills(t *testing.T) {
	v, be := newVirt(t, 256)
	// Touch far more sets than the 8-entry PVCache holds.
	for i := 0; i < 200; i++ {
		v.Update(0, pcOf(i*7), memsys.Addr(uint64(i)*64+4))
	}
	if be.writes == 0 {
		t.Fatal("no PVCache writebacks despite overflow")
	}
	for i := 0; i < 200; i++ {
		got, _, ok := v.Lookup(0, pcOf(i*7))
		if !ok || got != memsys.Addr(uint64(i)*64+4) {
			t.Fatalf("site %d: got (%#x, %v)", i, uint64(got), ok)
		}
	}
}

// TestVirtualizedMatchesDedicatedQuick: below way-overflow, virtualized and
// dedicated BTBs of equal geometry answer identically.
func TestVirtualizedMatchesDedicatedQuick(t *testing.T) {
	fn := func(ops []uint32) bool {
		be := &countBackend{}
		cfg := DefaultConfig(256)
		v := NewVirtualized(cfg, core.DefaultProxyConfig("btb"), 0xF0000000, 64, be)
		d := NewDedicated(cfg)
		for i, op := range ops {
			pc := memsys.Addr(0x4_0000_0000) + memsys.Addr(op%4096)*4
			if i%2 == 0 {
				target := memsys.Addr(op | 4)
				v.Update(0, pc, target)
				d.Update(0, pc, target)
			} else {
				vt, _, vok := v.Lookup(0, pc)
				dt, _, dok := d.Lookup(0, pc)
				if vok != dok || vt != dt {
					t.Logf("pc %#x: virt (%#x,%v) ded (%#x,%v)", uint64(pc), uint64(vt), vok, uint64(dt), dok)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamDeterminism(t *testing.T) {
	p := DefaultStreamParams()
	a, b := NewStream(p, 9), NewStream(p, 9)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("streams diverged")
		}
	}
}

func TestStreamValidate(t *testing.T) {
	p := DefaultStreamParams()
	p.Sites = 0
	if err := p.Validate(); err == nil {
		t.Error("zero sites accepted")
	}
	p = DefaultStreamParams()
	p.FlipProb = 2
	if err := p.Validate(); err == nil {
		t.Error("bad flip probability accepted")
	}
}

// TestHitRateOrdering is the §6 claim in miniature: small dedicated BTB <<
// large dedicated ≈ large virtualized.
func TestHitRateOrdering(t *testing.T) {
	p := StreamParams{Sites: 8000, Zipf: 0.6, RunLength: 4, FlipProb: 0}
	const n = 60_000

	small := Measure(NewDedicated(DefaultConfig(64)), p, 5, n)
	large := Measure(NewDedicated(DefaultConfig(4096)), p, 5, n)
	be := &countBackend{}
	virt := Measure(NewVirtualized(DefaultConfig(4096), core.DefaultProxyConfig("btb"), 0xF0000000, 64, be), p, 5, n)

	if small >= large {
		t.Errorf("small BTB %.3f >= large %.3f", small, large)
	}
	if diff := large - virt; diff > 0.02 || diff < -0.02 {
		t.Errorf("virtualized %.3f differs from large dedicated %.3f by more than 2%%", virt, large)
	}
	if large < 0.5 {
		t.Errorf("large BTB hit rate %.3f implausibly low", large)
	}
}

func TestMeasureRespectsFlips(t *testing.T) {
	p := StreamParams{Sites: 100, Zipf: 0.3, RunLength: 2, FlipProb: 0.5}
	hit := Measure(NewDedicated(DefaultConfig(4096)), p, 3, 20_000)
	perfect := Measure(NewDedicated(DefaultConfig(4096)),
		StreamParams{Sites: 100, Zipf: 0.3, RunLength: 2, FlipProb: 0}, 3, 20_000)
	if hit >= perfect {
		t.Errorf("flips did not reduce hit rate: %.3f >= %.3f", hit, perfect)
	}
}

// fullBTBSet returns a 4-way set with every way valid and fields using
// their full widths.
func fullBTBSet(cfg Config) Set {
	s := Set{Tags: make([]uint32, cfg.Ways), Targets: make([]uint64, cfg.Ways), Valid: make([]bool, cfg.Ways), Victim: 2}
	for i := range s.Tags {
		s.Tags[i] = uint32(0xB5A5+i*0x137) & (1<<cfg.TagBits - 1)
		s.Targets[i] = uint64(0x9E3779B9 * uint32(i+1))
		s.Valid[i] = true
	}
	return s
}

// TestSetCodecZeroBlockIntoUsedSet: UnpackInto of the all-zero block, a
// never-written set, into a set holding decoded entries must leave it
// equal to Unpack of the zero block, as the Codec contract requires.
func TestSetCodecZeroBlockIntoUsedSet(t *testing.T) {
	cfg := DefaultConfig(1024)
	codec, err := NewSetCodec(cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	codec.Pack(fullBTBSet(cfg), buf)
	var dst Set
	codec.UnpackInto(buf, &dst)
	zero := make([]byte, 64)
	codec.UnpackInto(zero, &dst)
	if want := codec.Unpack(zero); !reflect.DeepEqual(dst, want) {
		t.Fatalf("UnpackInto(zero) over a used set = %+v, want %+v", dst, want)
	}
}

// BenchmarkSetCodecUnpack decodes one packed BTB set into a reused set, the
// PVProxy's refill on every PVCache miss.
func BenchmarkSetCodecUnpack(b *testing.B) {
	cfg := DefaultConfig(1024)
	codec, err := NewSetCodec(cfg, 64)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 64)
	codec.Pack(fullBTBSet(cfg), buf)
	var dst Set
	for b.Loop() {
		codec.UnpackInto(buf, &dst)
	}
}

// BenchmarkSetCodecPack encodes one BTB set into a cleared block, the
// PVTable's store on every dirty PVCache eviction.
func BenchmarkSetCodecPack(b *testing.B) {
	cfg := DefaultConfig(1024)
	codec, err := NewSetCodec(cfg, 64)
	if err != nil {
		b.Fatal(err)
	}
	s := fullBTBSet(cfg)
	buf := make([]byte, 64)
	for b.Loop() {
		clear(buf)
		codec.Pack(s, buf)
	}
}
