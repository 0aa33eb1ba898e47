package sms

import (
	"reflect"
	"testing"
	"testing/quick"

	"pvsim/internal/core"
	"pvsim/internal/memsys"
)

type nullBackend struct {
	reads, writes int
}

func (b *nullBackend) Read(memsys.Addr) memsys.Result {
	b.reads++
	return memsys.Result{Level: memsys.LevelL2, Latency: 12}
}
func (b *nullBackend) Write(memsys.Addr) memsys.Result {
	b.writes++
	return memsys.Result{Level: memsys.LevelL2, Latency: 12}
}

func testVPHT(t *testing.T) (*VirtualizedPHT, *nullBackend) {
	t.Helper()
	be := &nullBackend{}
	cfg := DefaultVPHTConfig(0xF0000000)
	return NewVirtualizedPHT(cfg, be), be
}

func TestSetCodecGeometry(t *testing.T) {
	// The paper's layout: 11 entries x 43 bits in a 64B block.
	c, err := NewSetCodec(11, 11, 32, 64)
	if err != nil {
		t.Fatal(err)
	}
	if c.BlockBytes() != 64 {
		t.Errorf("BlockBytes = %d", c.BlockBytes())
	}
	// 512 - 473 - 4 cursor bits = 35 trailing unused.
	if c.UnusedBits() != 35 {
		t.Errorf("UnusedBits = %d, want 35", c.UnusedBits())
	}
	// Oversized layouts are rejected: 12 ways x 43 bits > 512.
	if _, err := NewSetCodec(12, 11, 32, 64); err == nil {
		t.Error("12-way 43-bit layout accepted in 64B block")
	}
}

// TestSetCodecRoundTripQuick: Pack/Unpack is the identity (Figure 3a
// layout), and the all-zero block decodes to an empty set.
func TestSetCodecRoundTripQuick(t *testing.T) {
	codec, err := NewSetCodec(11, 11, 32, 64)
	if err != nil {
		t.Fatal(err)
	}
	fn := func(tags [11]uint16, pats [11]uint32, victim uint8) bool {
		s := PHTSet{Tags: make([]uint32, 11), Pats: make([]Pattern, 11), Victim: victim % 16}
		for i := 0; i < 11; i++ {
			s.Tags[i] = uint32(tags[i]) & 0x7FF // 11-bit tags
			s.Pats[i] = Pattern(pats[i])
		}
		buf := make([]byte, 64)
		codec.Pack(s, buf)
		got := codec.Unpack(buf)
		if got.Victim != s.Victim {
			return false
		}
		for i := 0; i < 11; i++ {
			if got.Tags[i] != s.Tags[i] || got.Pats[i] != s.Pats[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}

	empty := codec.Unpack(make([]byte, 64))
	for i := 0; i < 11; i++ {
		if empty.Pats[i] != 0 {
			t.Fatal("zero block decoded to non-empty set (zero-is-empty law)")
		}
	}
}

func TestVPHTConfig(t *testing.T) {
	cfg := DefaultVPHTConfig(0xF0000000)
	if cfg.TagBits() != 11 {
		t.Errorf("TagBits = %d, want 11 (21-bit index, 1K sets)", cfg.TagBits())
	}
	r := cfg.TableRange()
	if r.Size() != 64<<10 {
		t.Errorf("table range = %d bytes, want 64KB", r.Size())
	}
}

func TestVPHTStoreLookup(t *testing.T) {
	v, be := testVPHT(t)
	key := uint32(0x12345) & (1<<21 - 1)
	v.Store(0, key, Pattern(0b1010))
	pat, _, ok := v.Lookup(0, key)
	if !ok || pat != 0b1010 {
		t.Fatalf("Lookup = (%v, %v)", pat, ok)
	}
	if be.reads == 0 {
		t.Error("no backend fetch for cold store")
	}
	// Same set: the second op hit the PVCache.
	if v.Proxy().Stats.Hits == 0 {
		t.Error("PVCache hit not recorded")
	}
}

func TestVPHTZeroPatternIgnored(t *testing.T) {
	v, _ := testVPHT(t)
	v.Store(0, 7, 0)
	if v.Stats.Stores != 0 {
		t.Error("zero pattern stored")
	}
	if _, _, ok := v.Lookup(0, 7); ok {
		t.Error("zero pattern retrievable")
	}
}

func TestVPHTPersistsThroughEviction(t *testing.T) {
	v, be := testVPHT(t)
	// Store into more distinct sets than the 8-entry PVCache holds.
	keys := make([]uint32, 0, 24)
	for i := 0; i < 24; i++ {
		key := uint32(i) // sets 0..23, distinct
		keys = append(keys, key)
		v.Store(0, key, Pattern(uint32(i+1)))
	}
	if be.writes == 0 {
		t.Fatal("no writebacks despite PVCache overflow")
	}
	// Every pattern must survive the round trip through the PVTable.
	for i, key := range keys {
		pat, _, ok := v.Lookup(0, key)
		if !ok || pat != Pattern(uint32(i+1)) {
			t.Fatalf("key %d: got (%v, %v), want %v", key, pat, ok, i+1)
		}
	}
}

func TestVPHTWayReplacementRoundRobin(t *testing.T) {
	v, _ := testVPHT(t)
	set := uint32(5)
	// Fill all 11 ways of one set (tags differ above the set bits).
	for i := 0; i < 11; i++ {
		key := uint32(i+1)<<10 | set
		v.Store(0, key, Pattern(uint32(i+1)))
	}
	// The 12th store evicts the round-robin victim (way 0 initially).
	v.Store(0, uint32(12)<<10|set, Pattern(99))
	if v.Stats.Evicts != 1 {
		t.Errorf("Evicts = %d, want 1", v.Stats.Evicts)
	}
	if _, _, ok := v.Lookup(0, uint32(1)<<10|set); ok {
		t.Error("round-robin victim still present")
	}
	if pat, _, ok := v.Lookup(0, uint32(12)<<10|set); !ok || pat != 99 {
		t.Error("new entry missing")
	}
}

func TestVPHTLatencyPropagates(t *testing.T) {
	v, _ := testVPHT(t)
	v.Store(0, 100, Pattern(3))
	// Push the set out of the PVCache.
	for i := 0; i < 16; i++ {
		v.Store(0, uint32(200+i), Pattern(1))
	}
	_, ready, ok := v.Lookup(1000, 100)
	if !ok {
		t.Fatal("pattern lost")
	}
	if ready != 1012 {
		t.Errorf("readyAt = %d, want 1012 (now + 12-cycle L2 fetch)", ready)
	}
}

func TestVPHTSharedTable(t *testing.T) {
	be := &nullBackend{}
	cfg := DefaultVPHTConfig(0xF0000000)
	v0 := NewVirtualizedPHT(cfg, be)
	cfg2 := cfg
	cfg2.Proxy.Name = "vpht.1"
	v1 := NewVirtualizedPHTWithTable(cfg2, v0.Table(), be)

	v0.Store(0, 77, Pattern(0b110))
	// Flush core 0's dirty PVCache so the shared table sees the update.
	v0.Proxy().Flush()
	pat, _, ok := v1.Lookup(0, 77)
	if !ok || pat != 0b110 {
		t.Fatalf("shared-table lookup = (%v, %v)", pat, ok)
	}
}

func TestVPHTName(t *testing.T) {
	v, _ := testVPHT(t)
	if v.Name() != "PV8(1024-11a)" {
		t.Errorf("Name = %q", v.Name())
	}
}

// TestVPHTMatchesDedicatedQuick: under light load (no way overflow), the
// virtualized PHT answers exactly like a dedicated table of the same
// geometry — the §2.2 interface-preservation property.
func TestVPHTMatchesDedicatedQuick(t *testing.T) {
	fn := func(ops []uint32) bool {
		be := &nullBackend{}
		v := NewVirtualizedPHT(DefaultVPHTConfig(0xF0000000), be)
		d := NewDedicatedPHT(1024, 11)
		for i, op := range ops {
			key := op & (1<<21 - 1)
			if i%2 == 0 {
				pat := Pattern(op|1) & 0xFFFFFFFF
				v.Store(0, key, pat)
				d.Store(0, key, pat)
			} else {
				vp, _, vok := v.Lookup(0, key)
				dp, _, dok := d.Lookup(0, key)
				if vok != dok || vp != dp {
					t.Logf("key %#x: virtualized (%v,%v) dedicated (%v,%v)", key, vp, vok, dp, dok)
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

func TestVPHTSwitchTable(t *testing.T) {
	be := &nullBackend{}
	cfg := DefaultVPHTConfig(0xF0000000)
	v := NewVirtualizedPHT(cfg, be)
	tableA := v.Table()

	codec, err := NewSetCodec(cfg.Ways, cfg.TagBits(), uint(cfg.Geom.RegionBlocks), cfg.BlockBytes)
	if err != nil {
		t.Fatal(err)
	}
	tableB := core.NewTable[PHTSet](core.TableConfig{
		Name: "procB", Start: 0xF0100000, Sets: cfg.Sets, BlockBytes: cfg.BlockBytes,
	}, codec)

	v.Store(0, 42, Pattern(0b11))
	v.SwitchTable(tableB)
	if _, _, ok := v.Lookup(0, 42); ok {
		t.Fatal("process B sees process A's pattern")
	}
	v.Store(0, 42, Pattern(0b101))
	v.SwitchTable(tableA)
	pat, _, ok := v.Lookup(0, 42)
	if !ok || pat != 0b11 {
		t.Fatalf("process A's pattern lost: (%v, %v)", pat, ok)
	}
}

// fullPHTSet returns a set of the paper's 11-way layout with every way
// valid and fields using their full widths.
func fullPHTSet() PHTSet {
	s := PHTSet{Tags: make([]uint32, 11), Pats: make([]Pattern, 11), Victim: 7}
	for i := range s.Tags {
		s.Tags[i] = uint32(0x5A5+i*0x93) & 0x7FF
		s.Pats[i] = Pattern(0x9E3779B9 * uint32(i+1))
	}
	return s
}

// TestSetCodecZeroBlockIntoUsedSet: UnpackInto of the all-zero block, a
// never-written set, into a set holding decoded entries must leave it
// equal to Unpack of the zero block, as the Codec contract requires.
func TestSetCodecZeroBlockIntoUsedSet(t *testing.T) {
	codec, err := NewSetCodec(11, 11, 32, 64)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	codec.Pack(fullPHTSet(), buf)
	var dst PHTSet
	codec.UnpackInto(buf, &dst)
	zero := make([]byte, 64)
	codec.UnpackInto(zero, &dst)
	if want := codec.Unpack(zero); !reflect.DeepEqual(dst, want) {
		t.Fatalf("UnpackInto(zero) over a used set = %+v, want %+v", dst, want)
	}
}

// BenchmarkSetCodecUnpack decodes one packed 11-way PHT set into a reused
// set, the PVProxy's refill on every PVCache miss.
func BenchmarkSetCodecUnpack(b *testing.B) {
	codec, err := NewSetCodec(11, 11, 32, 64)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 64)
	codec.Pack(fullPHTSet(), buf)
	var dst PHTSet
	for b.Loop() {
		codec.UnpackInto(buf, &dst)
	}
}

// BenchmarkSetCodecPack encodes one 11-way PHT set into a cleared block,
// the PVTable's store on every dirty PVCache eviction.
func BenchmarkSetCodecPack(b *testing.B) {
	codec, err := NewSetCodec(11, 11, 32, 64)
	if err != nil {
		b.Fatal(err)
	}
	s := fullPHTSet()
	buf := make([]byte, 64)
	for b.Loop() {
		clear(buf)
		codec.Pack(s, buf)
	}
}
