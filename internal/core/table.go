package core

import (
	"fmt"

	"pvsim/internal/memsys"
)

// TableConfig describes an in-memory PVTable.
type TableConfig struct {
	Name string
	// Start is the PVStart register value: the base physical address of
	// the reserved chunk. It must be block-aligned.
	Start memsys.Addr
	// Sets is the number of predictor sets; each occupies one block.
	Sets int
	// BlockBytes is the size of one packed set (= cache block size).
	BlockBytes int
}

// Validate checks the table geometry.
func (c TableConfig) Validate() error {
	if c.Sets <= 0 || c.BlockBytes <= 0 {
		return fmt.Errorf("pvtable %s: non-positive geometry %+v", c.Name, c)
	}
	if uint64(c.Start)%uint64(c.BlockBytes) != 0 {
		return fmt.Errorf("pvtable %s: PVStart %#x not %d-byte aligned", c.Name, uint64(c.Start), c.BlockBytes)
	}
	return nil
}

// Range returns the physical address range the table reserves.
func (c TableConfig) Range() memsys.AddrRange {
	return memsys.AddrRange{Start: c.Start, End: c.Start + memsys.Addr(c.Sets*c.BlockBytes)}
}

// SizeBytes is the main-memory storage the table reserves (64KB per core for
// the virtualized SMS PHT: 1K sets x 64B).
func (c TableConfig) SizeBytes() int { return c.Sets * c.BlockBytes }

// Table is the PVTable backing store. In real hardware the packed bytes
// would live in DRAM and migrate through the cache hierarchy; the simulator
// keeps the authoritative bytes here while internal/memsys models where the
// blocks *reside* and what each movement costs. The two views are kept
// consistent by the PVProxy, which is the only writer.
type Table[S any] struct {
	cfg   TableConfig
	codec Codec[S]
	// blocks holds the packed bytes per set; nil means never written, which
	// decodes to an empty set by the Codec zero-is-empty law.
	blocks [][]byte
	// zero is a permanently all-zero block that never-written sets decode
	// from, so reads of empty sets need no scratch allocation.
	zero []byte
}

// NewTable builds a backing store; it panics on invalid geometry or a codec
// whose packed size disagrees with the table block size.
func NewTable[S any](cfg TableConfig, codec Codec[S]) *Table[S] {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if codec.BlockBytes() != cfg.BlockBytes {
		panic(fmt.Sprintf("pvtable %s: codec packs %dB, table blocks are %dB",
			cfg.Name, codec.BlockBytes(), cfg.BlockBytes))
	}
	return &Table[S]{
		cfg:    cfg,
		codec:  codec,
		blocks: make([][]byte, cfg.Sets),
		zero:   make([]byte, cfg.BlockBytes),
	}
}

// Config returns the table geometry.
func (t *Table[S]) Config() TableConfig { return t.cfg }

// AddrOf computes the physical address of a set: PVStart + set<<log2(block)
// (Figure 3b).
func (t *Table[S]) AddrOf(set int) memsys.Addr {
	return t.cfg.Start + memsys.Addr(set*t.cfg.BlockBytes)
}

// SetOf inverts AddrOf; ok is false when the address is outside the table.
func (t *Table[S]) SetOf(a memsys.Addr) (set int, ok bool) {
	if !t.cfg.Range().Contains(a) {
		return 0, false
	}
	return int(uint64(a-t.cfg.Start) / uint64(t.cfg.BlockBytes)), true
}

// ReadSet decodes the stored bytes for a set.
func (t *Table[S]) ReadSet(set int) S {
	if b := t.blocks[set]; b != nil {
		return t.codec.Unpack(b)
	}
	return t.codec.Unpack(t.zero)
}

// ReadSetInto decodes the stored bytes for a set into dst, reusing dst's
// backing storage (the allocation-free variant of ReadSet).
func (t *Table[S]) ReadSetInto(set int, dst *S) {
	if b := t.blocks[set]; b != nil {
		t.codec.UnpackInto(b, dst)
		return
	}
	t.codec.UnpackInto(t.zero, dst)
}

// WriteSet encodes and stores a set, reusing the set's existing block buffer
// when one exists (Pack requires a zeroed destination, so it is cleared
// first).
func (t *Table[S]) WriteSet(set int, s S) {
	dst := t.blocks[set]
	if dst == nil {
		dst = make([]byte, t.cfg.BlockBytes)
	} else {
		clear(dst)
	}
	t.codec.Pack(s, dst)
	t.blocks[set] = dst
}

// RawBytes returns the packed bytes of a set (nil if never written). The
// §2.3 "software can update predictor entries by writing memory" pathway
// uses this together with WriteRawBytes.
func (t *Table[S]) RawBytes(set int) []byte { return t.blocks[set] }

// WriteRawBytes overwrites a set's packed bytes, as an application storing
// to the predictor's virtual range would.
func (t *Table[S]) WriteRawBytes(set int, b []byte) {
	if len(b) != t.cfg.BlockBytes {
		panic(fmt.Sprintf("pvtable %s: raw write of %dB into %dB block", t.cfg.Name, len(b), t.cfg.BlockBytes))
	}
	cp := make([]byte, len(b))
	copy(cp, b)
	t.blocks[set] = cp
}

// Drop forgets the contents of the set containing addr. The hierarchy calls
// this (via the PVProxy drop hook) when OnChipOnlyPV discards a dirty PV
// line at the L2 edge: the entries are lost, affecting only effectiveness.
func (t *Table[S]) Drop(a memsys.Addr) {
	if set, ok := t.SetOf(a); ok {
		t.blocks[set] = nil
	}
}

// PopulatedSets counts sets that have ever been written (tests use it).
func (t *Table[S]) PopulatedSets() int {
	n := 0
	for _, b := range t.blocks {
		if b != nil {
			n++
		}
	}
	return n
}
