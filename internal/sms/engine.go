package sms

import (
	"fmt"
	"math/bits"

	"pvsim/internal/memsys"
)

// AGTConfig sizes the active generation table. The paper's tuned values are
// a 64-entry accumulation table and a 32-entry filter table (§4.1).
type AGTConfig struct {
	FilterEntries int
	AccumEntries  int
}

// DefaultAGTConfig returns the paper's tuned AGT.
func DefaultAGTConfig() AGTConfig { return AGTConfig{FilterEntries: 32, AccumEntries: 64} }

// Validate checks the AGT configuration.
func (c AGTConfig) Validate() error {
	if c.FilterEntries <= 0 || c.AccumEntries <= 0 {
		return fmt.Errorf("sms: non-positive AGT geometry %+v", c)
	}
	return nil
}

// Config assembles an SMS engine's knobs.
type Config struct {
	Geom Geometry
	AGT  AGTConfig
	// PatternBufEntries bounds concurrently in-flight delayed predictions
	// (the 16-entry pattern buffer of §4.6 that holds patterns "while the
	// corresponding sets are brought from the lower cache"). When a
	// virtualized PHT answers with a future readyAt and the buffer is
	// full, the prediction is dropped — advisory metadata, so only
	// effectiveness suffers. Zero means unbounded; functional runs use
	// that, since their clock never advances to retire entries.
	PatternBufEntries int
}

// DefaultConfig returns the paper's tuned engine: default geometry, 32/64
// AGT, 16-entry pattern buffer.
func DefaultConfig() Config {
	return Config{Geom: DefaultGeometry(), AGT: DefaultAGTConfig(), PatternBufEntries: 16}
}

// PrefetchSink receives the engine's predictions. availableAt is the cycle
// at which the prediction became known — later than the access cycle when a
// virtualized PHT had to fetch its set from the memory hierarchy, which is
// exactly how virtualization perturbs prefetch timeliness.
type PrefetchSink interface {
	Prefetch(addr memsys.Addr, availableAt uint64)
}

// EngineStats counts SMS engine events.
type EngineStats struct {
	Accesses             uint64
	Triggers             uint64 // first access of a region generation
	PHTLookupHits        uint64
	PredictedBlocks      uint64 // blocks handed to the prefetch sink
	GenerationsStored    uint64 // accumulated patterns written to the PHT
	FilterGenerations    uint64 // generations that ended with a single access
	FilterCapacityEvicts uint64
	AccumCapacityEvicts  uint64
	EvictionsEndingGen   uint64 // L1 evictions/invalidations that closed a generation
	PatternBufDrops      uint64 // delayed predictions dropped: pattern buffer full
}

type filterEntry struct {
	tag    uint64
	pc     memsys.Addr
	offset int
}

type accumEntry struct {
	tag uint64
	key uint32
	pat Pattern
}

// tagIndex maps region tags to AGT slots. It is presized for the AGT's
// entry count, which bounds its population, so it never allocates after
// construction.
type tagIndex = memsys.AddrTable[uint64, int32]

// Engine is the SMS prefetcher of §3.1: it observes every L1 data access
// and every L1 eviction/invalidation of one core, maintains the AGT, and
// consults/updates a PatternStore (the PHT — dedicated or virtualized).
type Engine struct {
	geom Geometry
	cfg  AGTConfig
	pht  PatternStore
	sink PrefetchSink

	filter    []filterEntry
	accum     []accumEntry
	filterIdx tagIndex // region tag -> filter slot
	accumIdx  tagIndex // region tag -> accumulation slot
	// filterUse and accumUse hold each slot's LRU stamp, 0 for an empty
	// slot; tick advances before every stamp, as memsys.LeastStamp
	// requires.
	filterUse []uint64
	accumUse  []uint64
	tick      uint64

	// patternBuf holds completion times of in-flight delayed predictions;
	// nil when unbounded.
	patternBuf    []uint64
	patternBufCap int

	Stats EngineStats
}

// NewEngine wires an SMS engine; it panics on invalid configuration.
func NewEngine(geom Geometry, agt AGTConfig, pht PatternStore, sink PrefetchSink) *Engine {
	return NewEngineConfig(Config{Geom: geom, AGT: agt}, pht, sink)
}

// NewEngineConfig wires an SMS engine with full configuration; it panics on
// invalid configuration.
func NewEngineConfig(cfg Config, pht PatternStore, sink PrefetchSink) *Engine {
	if err := cfg.Geom.Validate(); err != nil {
		panic(err)
	}
	if err := cfg.AGT.Validate(); err != nil {
		panic(err)
	}
	if cfg.PatternBufEntries < 0 {
		panic(fmt.Sprintf("sms: negative pattern buffer %d", cfg.PatternBufEntries))
	}
	e := &Engine{
		geom:          cfg.Geom,
		cfg:           cfg.AGT,
		pht:           pht,
		sink:          sink,
		filter:        make([]filterEntry, cfg.AGT.FilterEntries),
		accum:         make([]accumEntry, cfg.AGT.AccumEntries),
		filterIdx:     memsys.NewAddrTable[uint64, int32](cfg.AGT.FilterEntries),
		accumIdx:      memsys.NewAddrTable[uint64, int32](cfg.AGT.AccumEntries),
		filterUse:     make([]uint64, cfg.AGT.FilterEntries),
		accumUse:      make([]uint64, cfg.AGT.AccumEntries),
		patternBufCap: cfg.PatternBufEntries,
	}
	if e.patternBufCap > 0 {
		e.patternBuf = make([]uint64, 0, e.patternBufCap)
	}
	return e
}

// reservePatternBuf retires completed entries and tries to claim a slot for
// a prediction that becomes available at ready.
func (e *Engine) reservePatternBuf(now, ready uint64) bool {
	if e.patternBufCap == 0 {
		return true // unbounded
	}
	live := e.patternBuf[:0]
	for _, r := range e.patternBuf {
		if r > now {
			live = append(live, r)
		}
	}
	e.patternBuf = live
	if len(e.patternBuf) >= e.patternBufCap {
		return false
	}
	e.patternBuf = append(e.patternBuf, ready)
	return true
}

// PHT returns the engine's pattern store.
func (e *Engine) PHT() PatternStore { return e.pht }

// Geometry returns the spatial-region geometry.
func (e *Engine) Geometry() Geometry { return e.geom }

// OnAccess observes one L1 data access (hit or miss — SMS trains on the
// full access stream).
func (e *Engine) OnAccess(now uint64, pc, addr memsys.Addr) {
	e.tick++
	e.Stats.Accesses++
	tag := e.geom.RegionTag(addr)
	off := e.geom.Offset(addr)

	if i, ok := e.accumIdx.Get(tag); ok {
		e.accum[i].pat = e.accum[i].pat.Set(off)
		e.accumUse[i] = e.tick
		return
	}

	if i, ok := e.filterIdx.Get(tag); ok {
		f := &e.filter[i]
		if f.offset == off {
			e.filterUse[i] = e.tick
			return
		}
		// Second distinct block: promote filter entry to the accumulation
		// table, where the pattern is built.
		key := e.geom.Key(f.pc, f.offset)
		pat := Pattern(0).Set(f.offset).Set(off)
		e.filterUse[i] = 0
		e.filterIdx.Delete(tag)
		e.insertAccum(now, tag, key, pat)
		return
	}

	// Triggering access: consult the PHT and open a new generation.
	e.Stats.Triggers++
	key := e.geom.Key(pc, off)
	if pat, ready, ok := e.pht.Lookup(now, key); ok {
		e.Stats.PHTLookupHits++
		if ready > now && !e.reservePatternBuf(now, ready) {
			// The set is still in flight and the pattern buffer is full:
			// the prediction is lost (advisory, so merely less coverage).
			e.Stats.PatternBufDrops++
		} else {
			// Iterate set bits directly — Pattern.Blocks would allocate a
			// slice per prediction on the hot path.
			for v := uint64(pat); v != 0; v &= v - 1 {
				b := bits.TrailingZeros64(v)
				if b == off {
					continue // the trigger block is being demand-fetched already
				}
				e.Stats.PredictedBlocks++
				e.sink.Prefetch(e.geom.BlockAddr(tag, b), ready)
			}
		}
	}
	e.insertFilter(tag, pc, off)
}

// OnEvict observes an L1 block leaving the cache (replacement or
// invalidation). If the block belongs to an active generation the
// generation ends: accumulated patterns move to the PHT, filter-only
// generations are dropped.
func (e *Engine) OnEvict(now uint64, blockAddr memsys.Addr) {
	tag := e.geom.RegionTag(blockAddr)
	off := e.geom.Offset(blockAddr)

	if i, ok := e.accumIdx.Get(tag); ok {
		a := &e.accum[i]
		if a.pat.Has(off) {
			e.Stats.EvictionsEndingGen++
			e.closeAccum(now, int(i))
		}
		return
	}
	if i, ok := e.filterIdx.Get(tag); ok {
		if e.filter[i].offset == off {
			e.Stats.EvictionsEndingGen++
			e.Stats.FilterGenerations++
			e.filterUse[i] = 0
			e.filterIdx.Delete(tag)
		}
	}
}

// closeAccum ends the generation in accumulation slot i, storing its
// pattern in the PHT.
func (e *Engine) closeAccum(now uint64, i int) {
	a := &e.accum[i]
	e.pht.Store(now, a.key, a.pat)
	e.Stats.GenerationsStored++
	e.accumIdx.Delete(a.tag)
	e.accumUse[i] = 0
}

func (e *Engine) insertFilter(tag uint64, pc memsys.Addr, off int) {
	victim := memsys.LeastStamp(e.filterUse)
	if e.filterUse[victim] != 0 {
		// Capacity eviction of a single-access region: nothing is learned.
		e.filterIdx.Delete(e.filter[victim].tag)
		e.Stats.FilterCapacityEvicts++
	}
	e.tick++
	e.filter[victim] = filterEntry{tag: tag, pc: pc, offset: off}
	e.filterUse[victim] = e.tick
	e.filterIdx.Put(tag, int32(victim))
}

func (e *Engine) insertAccum(now uint64, tag uint64, key uint32, pat Pattern) {
	victim := memsys.LeastStamp(e.accumUse)
	if e.accumUse[victim] != 0 {
		// Capacity eviction ends the victim's generation early; its
		// partial pattern still moves to the PHT.
		e.Stats.AccumCapacityEvicts++
		e.closeAccum(now, victim)
	}
	e.tick++
	e.accum[victim] = accumEntry{tag: tag, key: key, pat: pat}
	e.accumUse[victim] = e.tick
	e.accumIdx.Put(tag, int32(victim))
}

// ActiveGenerations reports (filter, accumulation) occupancy; tests use it.
func (e *Engine) ActiveGenerations() (filter, accum int) {
	return e.filterIdx.Len(), e.accumIdx.Len()
}

// CheckInvariants validates index/array consistency both ways: every index
// binding points at a valid entry with the same tag, and every valid entry
// is findable through its index.
func (e *Engine) CheckInvariants() error {
	if err := checkIndex(&e.filterIdx, len(e.filter), func(i int) (uint64, bool) {
		return e.filter[i].tag, e.filterUse[i] != 0
	}); err != nil {
		return fmt.Errorf("sms: filter %w", err)
	}
	if err := checkIndex(&e.accumIdx, len(e.accum), func(i int) (uint64, bool) {
		return e.accum[i].tag, e.accumUse[i] != 0
	}); err != nil {
		return fmt.Errorf("sms: accum %w", err)
	}
	return nil
}

// checkIndex verifies a tag index against its backing entry array.
func checkIndex(ix *tagIndex, entries int, entry func(int) (tag uint64, valid bool)) error {
	var err error
	seen := 0
	ix.Retain(func(tag uint64, slot int32) bool {
		seen++
		i := int(slot)
		switch {
		case err != nil:
		case i < 0 || i >= entries:
			err = fmt.Errorf("index slot %d out of range", i)
		default:
			if t, valid := entry(i); !valid || t != tag {
				err = fmt.Errorf("index desync at tag %#x", tag)
			} else if got, ok := ix.Get(tag); !ok || int(got) != i {
				err = fmt.Errorf("probe chain broken for tag %#x", tag)
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	for i := 0; i < entries; i++ {
		tag, valid := entry(i)
		if !valid {
			continue
		}
		if got, ok := ix.Get(tag); !ok || int(got) != i {
			return fmt.Errorf("valid entry %d (tag %#x) unreachable via index", i, tag)
		}
	}
	if seen != ix.Len() {
		return fmt.Errorf("live count %d != occupied cells %d", ix.Len(), seen)
	}
	return nil
}
