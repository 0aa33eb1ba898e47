// Package stride implements a classic PC-indexed stride data prefetcher —
// the kind of "simplest proposal" the paper's introduction notes is all
// that general-purpose processors actually ship (e.g. the IBM POWER4's
// hardware prefetcher, reference [28]). It serves two roles here:
//
//   - a baseline comparator for SMS: stride catches regular array walks
//     but misses the irregular spatial patterns commercial workloads show,
//     which is why the paper builds on SMS;
//
//   - a second demonstration of PV's generality: the same stride table
//     runs dedicated on chip or virtualized behind a PVProxy, using the
//     identical training/prediction logic.
//
// The predictor is the textbook reference-prediction table: per trigger PC
// it records the last block touched, the last observed block stride, and a
// two-bit confidence; once confidence saturates it prefetches Degree
// blocks ahead along the stride.
package stride

import (
	"fmt"
	"math/bits"

	"pvsim/internal/core"
	"pvsim/internal/memsys"
)

// Config shapes the stride predictor.
type Config struct {
	// Sets and Ways give the table geometry (one entry per trigger PC).
	Sets int
	Ways int
	// TagBits is the stored PC-tag width.
	TagBits uint
	// Degree is how many blocks ahead to prefetch once confident.
	Degree int
	// BlockBytes is the cache block size strides are measured in.
	BlockBytes int
}

// DefaultConfig is a 256-set, 4-way, degree-2 prefetcher (a generous
// hardware budget by shipping-prefetcher standards).
func DefaultConfig(sets int) Config {
	return Config{Sets: sets, Ways: 4, TagBits: 14, Degree: 2, BlockBytes: 64}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 || c.Ways <= 0 {
		return fmt.Errorf("stride: bad geometry %dx%d", c.Sets, c.Ways)
	}
	if c.TagBits == 0 || c.TagBits > 30 {
		return fmt.Errorf("stride: tag width %d unsupported", c.TagBits)
	}
	if c.Degree <= 0 || c.Degree > 8 {
		return fmt.Errorf("stride: degree %d unsupported", c.Degree)
	}
	if c.BlockBytes <= 0 || c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("stride: block size %d", c.BlockBytes)
	}
	return nil
}

// StorageBytes is the dedicated table's on-chip cost: per entry a tag, a
// 32-bit last-block field, an 8-bit stride and 2-bit confidence.
func (c Config) StorageBytes() float64 {
	return float64(c.Sets*c.Ways) * float64(uint(42)+c.TagBits) / 8
}

func (c Config) setBits() uint   { return uint(bits.TrailingZeros(uint(c.Sets))) }
func (c Config) blockBits() uint { return uint(bits.TrailingZeros(uint(c.BlockBytes))) }

func (c Config) index(pc memsys.Addr) (set int, tag uint32) {
	v := uint64(pc) >> 2
	return int(v & uint64(c.Sets-1)), uint32(v>>c.setBits()) & (1<<c.TagBits - 1)
}

// Entry is one reference-prediction-table row. Valid iff Conf > 0 or
// LastBlock != 0 — packed forms reserve an explicit valid bit.
type Entry struct {
	Tag       uint32
	LastBlock uint32 // low 32 bits of the block address
	Stride    int8   // in blocks
	Conf      uint8  // saturating 0..3
	Valid     bool
}

// Stats counts predictor events.
type Stats struct {
	Accesses   uint64
	Hits       uint64 // table hits (entry existed)
	Allocs     uint64
	Prefetches uint64 // blocks handed to the sink
}

// Sink receives predicted block addresses (same contract as
// sms.PrefetchSink).
type Sink interface {
	Prefetch(addr memsys.Addr, availableAt uint64)
}

// table abstracts entry storage so dedicated and virtualized variants
// share the training logic in Engine. The access/update pair is stateful
// rather than closure-based — update stores into the slot the immediately
// preceding access located — so the per-access path allocates nothing.
type table interface {
	// access returns the entry for pc (zero Entry if absent) and the cycle
	// the entry is usable, remembering the slot for the next update call.
	access(now uint64, pc memsys.Addr) (Entry, uint64)
	// update stores e into the slot access found (the victim slot when
	// access missed).
	update(e Entry)
	name() string
}

// Engine trains on the L1D access stream and issues stride prefetches.
type Engine struct {
	cfg  Config
	tbl  table
	sink Sink

	Stats Stats
}

// NewDedicated builds a stride engine with an on-chip table.
func NewDedicated(cfg Config, sink Sink) *Engine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Engine{cfg: cfg, tbl: newDedicatedTable(cfg), sink: sink}
}

// NewVirtualized builds a stride engine whose table lives behind a
// PVProxy at start.
func NewVirtualized(cfg Config, proxy core.ProxyConfig, start memsys.Addr, blockBytes int, be core.Backend, sink Sink) *Engine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Engine{cfg: cfg, tbl: newVirtualTable(cfg, proxy, start, blockBytes, be), sink: sink}
}

// Name describes the engine's table.
func (e *Engine) Name() string { return e.tbl.name() }

// Virtual returns the underlying virtual table, or nil for dedicated
// engines (stats access).
func (e *Engine) Virtual() *VirtualTable {
	v, _ := e.tbl.(*VirtualTable)
	return v
}

// OnAccess trains the predictor with one L1D access and issues prefetches
// when confidence saturates. It matches the sim.DataPrefetcher contract.
func (e *Engine) OnAccess(now uint64, pc, addr memsys.Addr) {
	e.Stats.Accesses++
	block := uint32(uint64(addr) >> e.cfg.blockBits())

	ent, ready := e.tbl.access(now, pc)
	if !ent.Valid {
		e.Stats.Allocs++
		_, tag := e.cfg.index(pc)
		e.tbl.update(Entry{Tag: tag, LastBlock: block, Valid: true})
		return
	}
	e.Stats.Hits++

	delta := int64(int32(block) - int32(ent.LastBlock))
	switch {
	case delta == 0:
		return // same block: no training signal
	case delta == int64(ent.Stride) && delta >= -128 && delta <= 127:
		if ent.Conf < 3 {
			ent.Conf++
		}
	default:
		if ent.Conf > 0 {
			ent.Conf--
		} else if delta >= -128 && delta <= 127 {
			ent.Stride = int8(delta)
		}
	}
	ent.LastBlock = block
	e.tbl.update(ent)

	if ent.Conf >= 2 && ent.Stride != 0 {
		for d := 1; d <= e.cfg.Degree; d++ {
			next := uint64(addr) + uint64(int64(ent.Stride)*int64(d))<<e.cfg.blockBits()
			e.Stats.Prefetches++
			e.sink.Prefetch(memsys.Addr(next), ready)
		}
	}
}

// OnEvict is a no-op: stride predictors have no generation concept. It
// exists to satisfy the sim.DataPrefetcher contract.
func (e *Engine) OnEvict(uint64, memsys.Addr) {}
