package sms

import (
	"fmt"
	"math/bits"

	"pvsim/internal/core"
	"pvsim/internal/memsys"
)

// PHTSet is the decoded form of one virtualized-PHT set: the tags and
// patterns of all ways, plus the round-robin insertion cursor kept in the
// trailing unused bits of the packed block (Figure 3a notes those bits
// "could be used for LRU information"; full LRU does not fit in the 39
// spare bits of the 11-way layout, so the hardware-honest choice is a small
// round-robin cursor). An entry is valid iff its pattern is non-zero, which
// makes the all-zero block decode to an empty set.
type PHTSet struct {
	Tags   []uint32
	Pats   []Pattern
	Victim uint8
}

// SetCodec packs a PHTSet into a cache block: ways x (tag, pattern) fields
// followed by the 4-bit victim cursor.
type SetCodec struct {
	Ways        int
	TagBits     uint
	PatternBits uint
	Block       int
}

// NewSetCodec validates and returns a codec; the packed payload must fit
// the block.
func NewSetCodec(ways int, tagBits, patternBits uint, blockBytes int) (SetCodec, error) {
	c := SetCodec{Ways: ways, TagBits: tagBits, PatternBits: patternBits, Block: blockBytes}
	need := ways*int(tagBits+patternBits) + 4
	if have := blockBytes * 8; need > have {
		return SetCodec{}, fmt.Errorf("sms: %d ways x (%d tag + %d pattern) + cursor = %d bits > %d-bit block",
			ways, tagBits, patternBits, need, have)
	}
	if patternBits == 0 || patternBits > 64 || tagBits == 0 || tagBits > 32 {
		return SetCodec{}, fmt.Errorf("sms: unsupported field widths tag=%d pattern=%d", tagBits, patternBits)
	}
	return c, nil
}

// BlockBytes implements core.Codec.
func (c SetCodec) BlockBytes() int { return c.Block }

// UnusedBits reports the trailing slack after entries and cursor. The
// paper's 11-way layout leaves 512 - 11x43 = 39 spare bits in a 64-byte
// block; the cursor takes 4 of them, leaving 35.
func (c SetCodec) UnusedBits() int {
	return c.Block*8 - c.Ways*int(c.TagBits+c.PatternBits) - 4
}

// Pack implements core.Codec.
func (c SetCodec) Pack(s PHTSet, dst []byte) {
	w := core.NewBitWriter(dst)
	for i := 0; i < c.Ways; i++ {
		w.Write(uint64(s.Tags[i]), c.TagBits)
		w.Write(uint64(s.Pats[i]), c.PatternBits)
	}
	w.Write(uint64(s.Victim), 4)
}

// Unpack implements core.Codec.
func (c SetCodec) Unpack(src []byte) PHTSet {
	var s PHTSet
	c.UnpackInto(src, &s)
	return s
}

// UnpackInto implements core.Codec, reusing dst's way slices when they are
// already the right length.
func (c SetCodec) UnpackInto(src []byte, dst *PHTSet) {
	if len(dst.Tags) != c.Ways {
		dst.Tags = make([]uint32, c.Ways)
	}
	if len(dst.Pats) != c.Ways {
		dst.Pats = make([]Pattern, c.Ways)
	}
	if core.AllZero(src) {
		clear(dst.Tags)
		clear(dst.Pats)
		dst.Victim = 0
		return
	}
	r := core.NewBitReader(src)
	for i := 0; i < c.Ways; i++ {
		dst.Tags[i] = uint32(r.Read(c.TagBits))
		dst.Pats[i] = Pattern(r.Read(c.PatternBits))
	}
	dst.Victim = uint8(r.Read(4))
}

// VPHTConfig describes a virtualized PHT.
type VPHTConfig struct {
	Geom Geometry
	// Sets and Ways give the logical PHT geometry; one set packs into one
	// block. The paper virtualizes the 1K-set 11-way table.
	Sets int
	Ways int
	// Start is the PVStart value for this table's reserved range.
	Start memsys.Addr
	// BlockBytes is the cache block size (packed set size).
	BlockBytes int
	// Proxy sizes the on-chip PVProxy.
	Proxy core.ProxyConfig
}

// DefaultVPHTConfig is the paper's final design: 1K sets x 11 ways packed
// into 64B blocks, fronted by an 8-entry PVCache.
func DefaultVPHTConfig(start memsys.Addr) VPHTConfig {
	return VPHTConfig{
		Geom:       DefaultGeometry(),
		Sets:       1024,
		Ways:       11,
		Start:      start,
		BlockBytes: 64,
		Proxy:      core.DefaultProxyConfig("vpht"),
	}
}

// TagBits is the tag width stored per entry (index bits minus set bits).
func (c VPHTConfig) TagBits() uint {
	return c.Geom.IndexBits() - uint(bits.TrailingZeros(uint(c.Sets)))
}

// codec returns the set codec of the configured layout, or the error
// naming the ways and bits when a set does not fit the block.
func (c VPHTConfig) codec() (SetCodec, error) {
	return NewSetCodec(c.Ways, c.TagBits(), uint(c.Geom.RegionBlocks), c.BlockBytes)
}

// TableRange returns the reserved physical range (needed for traffic
// classification in the hierarchy).
func (c VPHTConfig) TableRange() memsys.AddrRange {
	return core.TableConfig{Start: c.Start, Sets: c.Sets, BlockBytes: c.BlockBytes}.Range()
}

// VirtualizedPHT implements PatternStore on top of the PV framework: the
// logical PHT lives in memory (PVTable) and an 8-entry PVCache services the
// engine. Lookups that miss in the PVCache return readyAt in the future;
// the engine's predictions wait in the pattern buffer until then.
type VirtualizedPHT struct {
	cfg     VPHTConfig
	setMask uint32
	setBits uint
	proxy   *core.Proxy[PHTSet]
	table   *core.Table[PHTSet]

	Stats PHTStats
}

// NewVirtualizedPHT builds a virtualized PHT with its own private PVTable.
func NewVirtualizedPHT(cfg VPHTConfig, be core.Backend) *VirtualizedPHT {
	codec, err := cfg.codec()
	if err != nil {
		panic(err)
	}
	table := core.NewTable[PHTSet](core.TableConfig{
		Name:       cfg.Proxy.Name,
		Start:      cfg.Start,
		Sets:       cfg.Sets,
		BlockBytes: cfg.BlockBytes,
	}, codec)
	return NewVirtualizedPHTWithTable(cfg, table, be)
}

// NewVirtualizedPHTWithTable builds a virtualized PHT over an existing
// backing table; cores sharing one PVTable (§2.1's alternative) each get
// their own proxy over the same table.
func NewVirtualizedPHTWithTable(cfg VPHTConfig, table *core.Table[PHTSet], be core.Backend) *VirtualizedPHT {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic(fmt.Sprintf("sms: virtualized PHT set count %d not a power of two", cfg.Sets))
	}
	return &VirtualizedPHT{
		cfg:     cfg,
		setMask: uint32(cfg.Sets - 1),
		setBits: uint(bits.TrailingZeros(uint(cfg.Sets))),
		proxy:   core.NewProxy[PHTSet](cfg.Proxy, table, be),
		table:   table,
	}
}

// Name implements PatternStore.
func (t *VirtualizedPHT) Name() string {
	return fmt.Sprintf("PV%d(%d-%da)", t.cfg.Proxy.CacheEntries, t.cfg.Sets, t.cfg.Ways)
}

// Proxy exposes the underlying PVProxy (for statistics).
func (t *VirtualizedPHT) Proxy() *core.Proxy[PHTSet] { return t.proxy }

// Table exposes the backing PVTable.
func (t *VirtualizedPHT) Table() *core.Table[PHTSet] { return t.table }

func (t *VirtualizedPHT) index(key uint32) (set int, tag uint32) {
	return int(key & t.setMask), key >> t.setBits
}

// Lookup implements PatternStore. readyAt reflects the PVCache miss
// latency; the prediction is only usable once the set arrives from the
// memory hierarchy.
func (t *VirtualizedPHT) Lookup(now uint64, key uint32) (Pattern, uint64, bool) {
	t.Stats.Lookups++
	set, tag := t.index(key)
	s, ready, _ := t.proxy.Access(now, set)
	for i := 0; i < t.cfg.Ways; i++ {
		if s.Pats[i] != 0 && s.Tags[i] == tag {
			t.Stats.Hits++
			return s.Pats[i], ready, true
		}
	}
	return 0, ready, false
}

// Store implements PatternStore. The set is fetched (if absent), modified
// in the PVCache and marked dirty; the dirty copy migrates to the memory
// hierarchy on PVCache eviction.
func (t *VirtualizedPHT) Store(now uint64, key uint32, pat Pattern) {
	if pat == 0 {
		return // zero encodes "invalid"; an empty pattern carries no prediction
	}
	t.Stats.Stores++
	set, tag := t.index(key)
	s, _, _ := t.proxy.Access(now, set)
	for i := 0; i < t.cfg.Ways; i++ {
		if s.Pats[i] != 0 && s.Tags[i] == tag {
			s.Pats[i] = pat
			t.proxy.MarkDirty(set)
			return
		}
	}
	// Insert into an empty way, else at the round-robin cursor.
	way := -1
	for i := 0; i < t.cfg.Ways; i++ {
		if s.Pats[i] == 0 {
			way = i
			break
		}
	}
	if way < 0 {
		way = int(s.Victim) % t.cfg.Ways
		s.Victim = uint8((way + 1) % t.cfg.Ways)
		t.Stats.Evicts++
	}
	s.Tags[way] = tag
	s.Pats[way] = pat
	t.proxy.MarkDirty(set)
}

// SwitchTable retargets the proxy at a different backing table — the §2.1
// per-process scheme where a context switch reprograms PVStart: the old
// process's dirty sets are flushed to its table, and lookups resume against
// the new process's table.
func (t *VirtualizedPHT) SwitchTable(tbl *core.Table[PHTSet]) {
	t.proxy.Retarget(tbl)
	t.table = tbl
}
