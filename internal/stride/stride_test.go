package stride

import (
	"reflect"
	"testing"
	"testing/quick"

	"pvsim/internal/core"
	"pvsim/internal/memsys"
)

type recSink struct {
	addrs []memsys.Addr
}

func (s *recSink) Prefetch(a memsys.Addr, _ uint64) { s.addrs = append(s.addrs, a) }

type l2Backend struct{}

func (l2Backend) Read(memsys.Addr) memsys.Result {
	return memsys.Result{Level: memsys.LevelL2, Latency: 12}
}
func (l2Backend) Write(memsys.Addr) memsys.Result {
	return memsys.Result{Level: memsys.LevelL2, Latency: 12}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(256).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Sets: 0, Ways: 4, TagBits: 14, Degree: 2, BlockBytes: 64},
		{Sets: 3, Ways: 4, TagBits: 14, Degree: 2, BlockBytes: 64},
		{Sets: 16, Ways: 4, TagBits: 0, Degree: 2, BlockBytes: 64},
		{Sets: 16, Ways: 4, TagBits: 14, Degree: 0, BlockBytes: 64},
		{Sets: 16, Ways: 4, TagBits: 14, Degree: 2, BlockBytes: 48},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

// drive feeds a unit-stride walk from one PC.
func drive(e *Engine, pc memsys.Addr, start memsys.Addr, strideBlocks, n int) {
	for i := 0; i < n; i++ {
		e.OnAccess(uint64(i), pc, start+memsys.Addr(i*strideBlocks*64))
	}
}

func TestDetectsUnitStride(t *testing.T) {
	sink := &recSink{}
	e := NewDedicated(DefaultConfig(256), sink)
	drive(e, 0x400, 0x100000, 1, 6)
	if len(sink.addrs) == 0 {
		t.Fatal("no prefetches for a unit-stride walk")
	}
	// After confidence saturates, each access prefetches Degree=2 ahead.
	last := sink.addrs[len(sink.addrs)-1]
	if last != 0x100000+5*64+2*64 {
		t.Errorf("last prefetch at %#x", uint64(last))
	}
}

func TestDetectsNegativeStride(t *testing.T) {
	sink := &recSink{}
	e := NewDedicated(DefaultConfig(256), sink)
	drive(e, 0x400, 0x200000, -2, 8)
	if len(sink.addrs) == 0 {
		t.Fatal("no prefetches for negative stride")
	}
	if sink.addrs[0] >= 0x200000 {
		t.Errorf("prefetch %#x not below the walk", uint64(sink.addrs[0]))
	}
}

func TestNoPrefetchOnIrregular(t *testing.T) {
	sink := &recSink{}
	e := NewDedicated(DefaultConfig(256), sink)
	// Same-PC accesses with alternating strides never gain confidence.
	offs := []int{0, 5, 1, 9, 2, 17, 3}
	for i, o := range offs {
		e.OnAccess(uint64(i), 0x400, memsys.Addr(0x300000+o*64))
	}
	if len(sink.addrs) != 0 {
		t.Errorf("prefetched %d blocks from an irregular stream", len(sink.addrs))
	}
}

func TestConfidenceRecovery(t *testing.T) {
	sink := &recSink{}
	e := NewDedicated(DefaultConfig(256), sink)
	drive(e, 0x400, 0x100000, 1, 5) // conf saturates at 3
	// Two wild jumps drop confidence below the prefetch threshold (the
	// saturating counter needs two misses from 3 to reach 1).
	e.OnAccess(100, 0x400, 0x900000)
	e.OnAccess(101, 0x400, 0xB00000)
	sink.addrs = sink.addrs[:0]
	e.OnAccess(102, 0x400, 0xD00000) // third irregular access: conf == 0
	if len(sink.addrs) != 0 {
		t.Error("prefetched with broken confidence")
	}
	drive(e, 0x400, 0xA00000, 1, 8)
	if len(sink.addrs) == 0 {
		t.Error("never recovered confidence")
	}
}

func TestPerPCIsolation(t *testing.T) {
	sink := &recSink{}
	e := NewDedicated(DefaultConfig(256), sink)
	// Two PCs with different strides interleaved: both must train.
	for i := 0; i < 8; i++ {
		e.OnAccess(uint64(i), 0x400, memsys.Addr(0x100000+i*64))
		e.OnAccess(uint64(i), 0x500, memsys.Addr(0x400000+i*3*64))
	}
	var up, up3 bool
	for _, a := range sink.addrs {
		if a >= 0x100000 && a < 0x200000 {
			up = true
		}
		if a >= 0x400000 {
			up3 = true
		}
	}
	if !up || !up3 {
		t.Errorf("missing prefetches per PC: unit=%v stride3=%v", up, up3)
	}
}

func TestSetCodecRoundTripQuick(t *testing.T) {
	cfg := DefaultConfig(256)
	codec, err := NewSetCodec(cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	fn := func(tags [4]uint16, blocks [4]uint32, strides [4]int8, confs [4]uint8, valid uint8, victim uint8) bool {
		s := Set{Entries: make([]Entry, 4), Victim: victim % 16}
		for i := 0; i < 4; i++ {
			s.Entries[i] = Entry{
				Tag:       uint32(tags[i]) & (1<<cfg.TagBits - 1),
				LastBlock: blocks[i],
				Stride:    strides[i],
				Conf:      confs[i] % 4,
				Valid:     valid&(1<<uint(i)) != 0,
			}
		}
		buf := make([]byte, 64)
		codec.Pack(s, buf)
		got := codec.Unpack(buf)
		if got.Victim != s.Victim {
			return false
		}
		for i := 0; i < 4; i++ {
			if got.Entries[i] != s.Entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestVirtualMatchesDedicatedQuick: the same access stream produces the
// same prefetch sequence through either table (below way overflow).
func TestVirtualMatchesDedicatedQuick(t *testing.T) {
	fn := func(ops []uint16) bool {
		ds, vs := &recSink{}, &recSink{}
		cfg := DefaultConfig(256)
		d := NewDedicated(cfg, ds)
		v := NewVirtualized(cfg, core.DefaultProxyConfig("stride"), 0xF0000000, 64, l2Backend{}, vs)
		for i, op := range ops {
			pc := memsys.Addr(0x400 + (op&0x3F)*4)
			addr := memsys.Addr(0x100000 + uint64(op)*64)
			d.OnAccess(uint64(i), pc, addr)
			v.OnAccess(uint64(i), pc, addr)
		}
		if len(ds.addrs) != len(vs.addrs) {
			t.Logf("dedicated %d prefetches, virtual %d", len(ds.addrs), len(vs.addrs))
			return false
		}
		for i := range ds.addrs {
			if ds.addrs[i] != vs.addrs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestVirtualSurvivesSpills(t *testing.T) {
	sink := &recSink{}
	cfg := DefaultConfig(256)
	e := NewVirtualized(cfg, core.DefaultProxyConfig("stride"), 0xF0000000, 64, l2Backend{}, sink)
	// Train many PCs mapping to distinct sets, exceeding the PVCache.
	for pc := 0; pc < 64; pc++ {
		drive(e, memsys.Addr(0x400+pc*4*16), memsys.Addr(0x100000+pc*0x10000), 1, 6)
	}
	if e.Virtual().Proxy().Stats.Writebacks == 0 {
		t.Fatal("no PVCache writebacks")
	}
	// Retraining an early PC continues where its spilled entry left off:
	// the first access after reload must still prefetch (conf persisted).
	sink.addrs = sink.addrs[:0]
	e.OnAccess(1000, 0x400, memsys.Addr(0x100000+6*64))
	if len(sink.addrs) == 0 {
		t.Error("spilled entry lost its training")
	}
}

func TestStorageBytes(t *testing.T) {
	// 256 sets x 4 ways x (42+14) bits = 7168 bytes.
	if got := DefaultConfig(256).StorageBytes(); got != 7168 {
		t.Errorf("StorageBytes = %v, want 7168", got)
	}
}

func TestNames(t *testing.T) {
	d := NewDedicated(DefaultConfig(256), &recSink{})
	if d.Name() != "stride-256x4" {
		t.Errorf("Name = %q", d.Name())
	}
	v := NewVirtualized(DefaultConfig(256), core.DefaultProxyConfig("stride"), 0xF0000000, 64, l2Backend{}, &recSink{})
	if v.Name() != "stride-PV8-256x4" {
		t.Errorf("Name = %q", v.Name())
	}
	if v.Virtual() == nil || d.Virtual() != nil {
		t.Error("Virtual() accessor wrong")
	}
}

// fullStrideSet returns a 4-way set with every way valid and fields using
// their full widths.
func fullStrideSet(cfg Config) Set {
	s := Set{Entries: make([]Entry, cfg.Ways), Victim: 3}
	for i := range s.Entries {
		s.Entries[i] = Entry{
			Valid:     true,
			Tag:       uint32(0x2A5B+i*0x137) & (1<<cfg.TagBits - 1),
			LastBlock: 0x9E3779B9 * uint32(i+1),
			Stride:    int8(-3 * (i + 1)),
			Conf:      uint8(i % 4),
		}
	}
	return s
}

// TestSetCodecZeroBlockIntoUsedSet: UnpackInto of the all-zero block, a
// never-written set, into a set holding decoded entries must leave it
// equal to Unpack of the zero block, as the Codec contract requires.
func TestSetCodecZeroBlockIntoUsedSet(t *testing.T) {
	cfg := DefaultConfig(256)
	codec, err := NewSetCodec(cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	codec.Pack(fullStrideSet(cfg), buf)
	var dst Set
	codec.UnpackInto(buf, &dst)
	zero := make([]byte, 64)
	codec.UnpackInto(zero, &dst)
	if want := codec.Unpack(zero); !reflect.DeepEqual(dst, want) {
		t.Fatalf("UnpackInto(zero) over a used set = %+v, want %+v", dst, want)
	}
}

// BenchmarkSetCodecUnpack decodes one packed stride set into a reused set,
// the PVProxy's refill on every PVCache miss.
func BenchmarkSetCodecUnpack(b *testing.B) {
	cfg := DefaultConfig(256)
	codec, err := NewSetCodec(cfg, 64)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 64)
	codec.Pack(fullStrideSet(cfg), buf)
	var dst Set
	for b.Loop() {
		codec.UnpackInto(buf, &dst)
	}
}

// BenchmarkSetCodecPack encodes one stride set into a cleared block, the
// PVTable's store on every dirty PVCache eviction.
func BenchmarkSetCodecPack(b *testing.B) {
	cfg := DefaultConfig(256)
	codec, err := NewSetCodec(cfg, 64)
	if err != nil {
		b.Fatal(err)
	}
	s := fullStrideSet(cfg)
	buf := make([]byte, 64)
	for b.Loop() {
		clear(buf)
		codec.Pack(s, buf)
	}
}
