package btb

import (
	"fmt"

	"pvsim/internal/core"
	"pvsim/internal/memsys"
)

// Set is the decoded form of one virtualized-BTB set. A way is valid iff
// its Valid bit is set (targets may legitimately be zero-truncated, so
// unlike the SMS PHT a dedicated valid bit is packed per way). The Victim
// field is the round-robin replacement cursor kept in the trailing bits.
type Set struct {
	Tags    []uint32
	Targets []uint64
	Valid   []bool
	Victim  uint8
}

// SetCodec packs a BTB set into a cache block: ways x (valid, tag, target)
// plus a 4-bit cursor.
type SetCodec struct {
	Ways       int
	TagBits    uint
	TargetBits uint
	Block      int
}

// NewSetCodec validates the layout against the block size.
func NewSetCodec(cfg Config, blockBytes int) (SetCodec, error) {
	c := SetCodec{Ways: cfg.Ways, TagBits: cfg.TagBits, TargetBits: cfg.TargetBits, Block: blockBytes}
	need := cfg.Ways*int(1+cfg.TagBits+cfg.TargetBits) + 4
	if have := blockBytes * 8; need > have {
		return SetCodec{}, fmt.Errorf("btb: %d ways x %d bits + cursor = %d bits > %d-bit block",
			cfg.Ways, 1+cfg.TagBits+cfg.TargetBits, need, have)
	}
	return c, nil
}

// BlockBytes implements core.Codec.
func (c SetCodec) BlockBytes() int { return c.Block }

// Pack implements core.Codec.
func (c SetCodec) Pack(s Set, dst []byte) {
	w := core.NewBitWriter(dst)
	for i := 0; i < c.Ways; i++ {
		v := uint64(0)
		if s.Valid[i] {
			v = 1
		}
		w.Write(v, 1)
		w.Write(uint64(s.Tags[i]), c.TagBits)
		w.Write(s.Targets[i], c.TargetBits)
	}
	w.Write(uint64(s.Victim), 4)
}

// Unpack implements core.Codec.
func (c SetCodec) Unpack(src []byte) Set {
	var s Set
	c.UnpackInto(src, &s)
	return s
}

// UnpackInto implements core.Codec, reusing dst's way slices when they are
// already the right length.
func (c SetCodec) UnpackInto(src []byte, dst *Set) {
	if len(dst.Tags) != c.Ways {
		dst.Tags = make([]uint32, c.Ways)
	}
	if len(dst.Targets) != c.Ways {
		dst.Targets = make([]uint64, c.Ways)
	}
	if len(dst.Valid) != c.Ways {
		dst.Valid = make([]bool, c.Ways)
	}
	if core.AllZero(src) {
		clear(dst.Tags)
		clear(dst.Targets)
		clear(dst.Valid)
		dst.Victim = 0
		return
	}
	r := core.NewBitReader(src)
	for i := 0; i < c.Ways; i++ {
		dst.Valid[i] = r.Read(1) == 1
		dst.Tags[i] = uint32(r.Read(c.TagBits))
		dst.Targets[i] = r.Read(c.TargetBits)
	}
	dst.Victim = uint8(r.Read(4))
}

// Virtualized is the BTB behind a PVProxy: the logical table lives in a
// reserved physical range, a small PVCache services the front end.
type Virtualized struct {
	cfg   Config
	proxy *core.Proxy[Set]
	table *core.Table[Set]

	Stats Stats
}

// NewVirtualized builds a virtualized BTB over its own PVTable at start.
func NewVirtualized(cfg Config, proxy core.ProxyConfig, start memsys.Addr, blockBytes int, be core.Backend) *Virtualized {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	codec, err := NewSetCodec(cfg, blockBytes)
	if err != nil {
		panic(err)
	}
	table := core.NewTable[Set](core.TableConfig{
		Name: proxy.Name, Start: start, Sets: cfg.Sets, BlockBytes: blockBytes,
	}, codec)
	return &Virtualized{cfg: cfg, proxy: core.NewProxy[Set](proxy, table, be), table: table}
}

// Name implements Predictor.
func (b *Virtualized) Name() string {
	return fmt.Sprintf("PV%d-%dx%d", b.proxy.Config().CacheEntries, b.cfg.Sets, b.cfg.Ways)
}

// Config returns the logical geometry.
func (b *Virtualized) Config() Config { return b.cfg }

// Proxy exposes the PVProxy for statistics.
func (b *Virtualized) Proxy() *core.Proxy[Set] { return b.proxy }

// Table exposes the backing PVTable.
func (b *Virtualized) Table() *core.Table[Set] { return b.table }

// TableRange is the reserved physical range for traffic classification.
func (b *Virtualized) TableRange() memsys.AddrRange { return b.table.Config().Range() }

// Lookup implements Predictor.
func (b *Virtualized) Lookup(now uint64, pc memsys.Addr) (memsys.Addr, uint64, bool) {
	b.Stats.Lookups++
	set, tag := b.cfg.index(pc)
	s, ready, _ := b.proxy.Access(now, set)
	for i := 0; i < b.cfg.Ways; i++ {
		if s.Valid[i] && s.Tags[i] == tag {
			b.Stats.Hits++
			return memsys.Addr(s.Targets[i]), ready, true
		}
	}
	return 0, ready, false
}

// Update implements Predictor.
func (b *Virtualized) Update(now uint64, pc memsys.Addr, target memsys.Addr) {
	b.Stats.Updates++
	set, tag := b.cfg.index(pc)
	s, _, _ := b.proxy.Access(now, set)
	way := -1
	for i := 0; i < b.cfg.Ways; i++ {
		if s.Valid[i] && s.Tags[i] == tag {
			s.Targets[i] = b.cfg.truncTarget(target)
			b.proxy.MarkDirty(set)
			return
		}
		if way < 0 && !s.Valid[i] {
			way = i
		}
	}
	if way < 0 {
		way = int(s.Victim) % b.cfg.Ways
		s.Victim = uint8((way + 1) % b.cfg.Ways)
		b.Stats.Evicts++
	}
	s.Tags[way] = tag
	s.Targets[way] = b.cfg.truncTarget(target)
	s.Valid[way] = true
	b.proxy.MarkDirty(set)
}
