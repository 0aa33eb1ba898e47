package stride

import (
	"fmt"

	"pvsim/internal/core"
	"pvsim/internal/memsys"
)

// dedicatedTable is the on-chip reference prediction table with LRU.
type dedicatedTable struct {
	cfg     Config
	entries []Entry
	lastUse []uint64
	tick    uint64
	// lastSlot is where the next update stores: the hit slot or the chosen
	// victim of the most recent access.
	lastSlot int
}

func newDedicatedTable(cfg Config) *dedicatedTable {
	n := cfg.Sets * cfg.Ways
	return &dedicatedTable{cfg: cfg, entries: make([]Entry, n), lastUse: make([]uint64, n)}
}

func (t *dedicatedTable) name() string {
	return fmt.Sprintf("stride-%dx%d", t.cfg.Sets, t.cfg.Ways)
}

func (t *dedicatedTable) access(now uint64, pc memsys.Addr) (Entry, uint64) {
	t.tick++
	set, tag := t.cfg.index(pc)
	base := set * t.cfg.Ways
	for i := base; i < base+t.cfg.Ways; i++ {
		if t.entries[i].Valid && t.entries[i].Tag == tag {
			t.lastUse[i] = t.tick
			t.lastSlot = i
			return t.entries[i], now
		}
	}
	// Every miss is followed by an update that fills the victim, so an
	// empty way holds stamp 0 and a valid one a distinct stamp of at least
	// 1: the least stamp is the first empty way, else the LRU way.
	victim := base + memsys.LeastStamp(t.lastUse[base:base+t.cfg.Ways])
	t.lastUse[victim] = t.tick
	t.lastSlot = victim
	return Entry{}, now
}

func (t *dedicatedTable) update(e Entry) { t.entries[t.lastSlot] = e }

// Set is the decoded PVTable form of one virtualized stride set.
type Set struct {
	Entries []Entry
	Victim  uint8
}

// SetCodec packs a stride Set: per way (valid, tag, lastBlock 32, stride 8,
// conf 2) plus a 4-bit round-robin cursor.
type SetCodec struct {
	Ways    int
	TagBits uint
	Block   int
}

// NewSetCodec validates the layout.
func NewSetCodec(cfg Config, blockBytes int) (SetCodec, error) {
	c := SetCodec{Ways: cfg.Ways, TagBits: cfg.TagBits, Block: blockBytes}
	need := cfg.Ways*int(1+cfg.TagBits+32+8+2) + 4
	if have := blockBytes * 8; need > have {
		return SetCodec{}, fmt.Errorf("stride: %d ways of %d bits exceed %d-bit block",
			cfg.Ways, 1+cfg.TagBits+42, have)
	}
	return c, nil
}

// BlockBytes implements core.Codec.
func (c SetCodec) BlockBytes() int { return c.Block }

// Pack implements core.Codec.
func (c SetCodec) Pack(s Set, dst []byte) {
	w := core.NewBitWriter(dst)
	for i := 0; i < c.Ways; i++ {
		e := s.Entries[i]
		v := uint64(0)
		if e.Valid {
			v = 1
		}
		w.Write(v, 1)
		w.Write(uint64(e.Tag), c.TagBits)
		w.Write(uint64(e.LastBlock), 32)
		w.Write(uint64(uint8(e.Stride)), 8)
		w.Write(uint64(e.Conf), 2)
	}
	w.Write(uint64(s.Victim), 4)
}

// Unpack implements core.Codec.
func (c SetCodec) Unpack(src []byte) Set {
	var s Set
	c.UnpackInto(src, &s)
	return s
}

// UnpackInto implements core.Codec, reusing dst's entry slice when it is
// already the right length.
func (c SetCodec) UnpackInto(src []byte, dst *Set) {
	if len(dst.Entries) != c.Ways {
		dst.Entries = make([]Entry, c.Ways)
	}
	if core.AllZero(src) {
		clear(dst.Entries)
		dst.Victim = 0
		return
	}
	r := core.NewBitReader(src)
	for i := 0; i < c.Ways; i++ {
		e := &dst.Entries[i]
		e.Valid = r.Read(1) == 1
		e.Tag = uint32(r.Read(c.TagBits))
		e.LastBlock = uint32(r.Read(32))
		e.Stride = int8(uint8(r.Read(8)))
		e.Conf = uint8(r.Read(2))
	}
	dst.Victim = uint8(r.Read(4))
}

// VirtualTable keeps the reference prediction table behind a PVProxy.
type VirtualTable struct {
	cfg   Config
	proxy *core.Proxy[Set]
	table *core.Table[Set]

	// Store-back state for the access/update pair: the decoded set the last
	// access touched, its index, and the way that hit (-1 for a miss, where
	// update picks an empty way or the round-robin victim).
	lastSet    *Set
	lastSetIdx int
	lastWay    int
}

func newVirtualTable(cfg Config, proxy core.ProxyConfig, start memsys.Addr, blockBytes int, be core.Backend) *VirtualTable {
	codec, err := NewSetCodec(cfg, blockBytes)
	if err != nil {
		panic(err)
	}
	tbl := core.NewTable[Set](core.TableConfig{
		Name: proxy.Name, Start: start, Sets: cfg.Sets, BlockBytes: blockBytes,
	}, codec)
	return &VirtualTable{cfg: cfg, proxy: core.NewProxy[Set](proxy, tbl, be), table: tbl}
}

func (t *VirtualTable) name() string {
	return fmt.Sprintf("stride-PV%d-%dx%d", t.proxy.Config().CacheEntries, t.cfg.Sets, t.cfg.Ways)
}

// Proxy exposes the PVProxy for statistics.
func (t *VirtualTable) Proxy() *core.Proxy[Set] { return t.proxy }

// Table exposes the backing PVTable.
func (t *VirtualTable) Table() *core.Table[Set] { return t.table }

// TableRange is the reserved physical range.
func (t *VirtualTable) TableRange() memsys.AddrRange { return t.table.Config().Range() }

func (t *VirtualTable) access(now uint64, pc memsys.Addr) (Entry, uint64) {
	set, tag := t.cfg.index(pc)
	s, ready, _ := t.proxy.Access(now, set)
	t.lastSet, t.lastSetIdx = s, set
	for i := 0; i < t.cfg.Ways; i++ {
		if s.Entries[i].Valid && s.Entries[i].Tag == tag {
			t.lastWay = i
			return s.Entries[i], ready
		}
	}
	t.lastWay = -1
	return Entry{}, ready
}

func (t *VirtualTable) update(e Entry) {
	s := t.lastSet
	way := t.lastWay
	if way < 0 {
		// Miss: allocate into an empty way, else the round-robin victim.
		for i := 0; i < t.cfg.Ways; i++ {
			if !s.Entries[i].Valid {
				way = i
				break
			}
		}
		if way < 0 {
			way = int(s.Victim) % t.cfg.Ways
			s.Victim = uint8((way + 1) % t.cfg.Ways)
		}
	}
	s.Entries[way] = e
	t.proxy.MarkDirty(t.lastSetIdx)
}
