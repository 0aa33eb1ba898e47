// Package btb implements a branch-target buffer in dedicated and
// virtualized forms. The paper's §6 names branch target prediction as a
// predictor that "will naturally benefit from predictor virtualization"
// because branch-target accesses exhibit both temporal locality (hot
// branches repeat) and spatial locality (branches near each other in code
// pack into the same PVTable block). This package supplies that predictor
// as a reusable substrate: the same Predictor interface is served by an
// on-chip set-associative table or by a PVProxy-backed table, so the two
// can be swapped under any consumer.
package btb

import (
	"fmt"
	"math/bits"

	"pvsim/internal/memsys"
)

// Predictor is the branch-target-buffer interface: given a branch PC,
// predict its target; after resolution, record the observed target.
type Predictor interface {
	// Lookup predicts the target of the branch at pc; ok is false on a
	// BTB miss. readyAt is when the prediction is available (later than
	// now only for virtualized BTBs whose set had to be fetched).
	Lookup(now uint64, pc memsys.Addr) (target memsys.Addr, readyAt uint64, ok bool)
	// Update records the resolved target.
	Update(now uint64, pc memsys.Addr, target memsys.Addr)
	// Name describes the configuration.
	Name() string
}

// Config is the logical BTB geometry shared by both implementations.
type Config struct {
	Sets int // power of two
	Ways int
	// TagBits is the stored tag width; PCs aliasing in the dropped upper
	// bits mispredict occasionally, like real BTBs.
	TagBits uint
	// TargetBits is the stored target width (real BTBs store partial
	// targets; 32 covers a 4GB text segment).
	TargetBits uint
}

// DefaultConfig returns a 4-way BTB with the given set count and the
// field widths used throughout this repository.
func DefaultConfig(sets int) Config {
	return Config{Sets: sets, Ways: 4, TagBits: 16, TargetBits: 32}
}

// Validate checks the geometry.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("btb: set count %d not a positive power of two", c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("btb: %d ways", c.Ways)
	}
	if c.TagBits == 0 || c.TagBits > 32 || c.TargetBits == 0 || c.TargetBits > 48 {
		return fmt.Errorf("btb: field widths tag=%d target=%d unsupported", c.TagBits, c.TargetBits)
	}
	return nil
}

// Entries returns the total entry count.
func (c Config) Entries() int { return c.Sets * c.Ways }

// StorageBytes is the on-chip SRAM a dedicated table of this geometry
// needs (tags + targets; LRU bits excluded, as in Table 3's accounting).
func (c Config) StorageBytes() float64 {
	return float64(c.Entries()) * float64(c.TagBits+c.TargetBits) / 8
}

func (c Config) setBits() uint { return uint(bits.TrailingZeros(uint(c.Sets))) }

// index splits a PC into set and tag; the two instruction-alignment bits
// are dropped first (cf. sms.Geometry.Key).
func (c Config) index(pc memsys.Addr) (set int, tag uint32) {
	v := uint64(pc) >> 2
	set = int(v & uint64(c.Sets-1))
	tag = uint32(v>>c.setBits()) & (1<<c.TagBits - 1)
	return set, tag
}

// truncTarget clips a target to the stored width.
func (c Config) truncTarget(t memsys.Addr) uint64 {
	return uint64(t) & (1<<c.TargetBits - 1)
}

// Stats counts predictor events.
type Stats struct {
	Lookups uint64
	Hits    uint64
	Updates uint64
	Evicts  uint64
}

// HitRate returns hits/lookups.
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// dedEntry is one way of the dedicated BTB; its stamp lives in
// Dedicated.lastUse.
type dedEntry struct {
	tag    uint32
	target uint64
}

// Dedicated is a conventional on-chip set-associative BTB with LRU
// replacement.
type Dedicated struct {
	cfg     Config
	entries []dedEntry
	// lastUse holds each way's LRU stamp, 0 for an empty way; tick
	// advances before every stamp, as memsys.LeastStamp requires.
	lastUse []uint64
	tick    uint64

	Stats Stats
}

// NewDedicated builds a dedicated BTB; it panics on invalid geometry.
func NewDedicated(cfg Config) *Dedicated {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.Entries()
	return &Dedicated{cfg: cfg, entries: make([]dedEntry, n), lastUse: make([]uint64, n)}
}

// Name implements Predictor.
func (b *Dedicated) Name() string {
	return fmt.Sprintf("dedicated-%dx%d", b.cfg.Sets, b.cfg.Ways)
}

// Config returns the geometry.
func (b *Dedicated) Config() Config { return b.cfg }

// find returns the first way of pc's set, pc's tag and the way holding
// that tag, or -1.
func (b *Dedicated) find(pc memsys.Addr) (base int, tag uint32, way int) {
	set, tag := b.cfg.index(pc)
	base = set * b.cfg.Ways
	for i := base; i < base+b.cfg.Ways; i++ {
		if b.lastUse[i] != 0 && b.entries[i].tag == tag {
			return base, tag, i
		}
	}
	return base, tag, -1
}

// Lookup implements Predictor.
func (b *Dedicated) Lookup(now uint64, pc memsys.Addr) (memsys.Addr, uint64, bool) {
	b.tick++
	b.Stats.Lookups++
	if _, _, i := b.find(pc); i >= 0 {
		b.lastUse[i] = b.tick
		b.Stats.Hits++
		return memsys.Addr(b.entries[i].target), now, true
	}
	return 0, now, false
}

// Update implements Predictor.
func (b *Dedicated) Update(_ uint64, pc memsys.Addr, target memsys.Addr) {
	b.tick++
	b.Stats.Updates++
	base, tag, i := b.find(pc)
	if i < 0 {
		i = base + memsys.LeastStamp(b.lastUse[base:base+b.cfg.Ways])
		if b.lastUse[i] != 0 {
			b.Stats.Evicts++
		}
		b.entries[i].tag = tag
	}
	b.entries[i].target = b.cfg.truncTarget(target)
	b.lastUse[i] = b.tick
}
