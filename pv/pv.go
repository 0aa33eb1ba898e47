package pv

import (
	"fmt"
	"reflect"

	"pvsim/internal/core"
	"pvsim/internal/memsys"
)

// Mode selects how a predictor's table is realized.
type Mode uint8

const (
	// Dedicated is a conventional on-chip table of the spec's geometry.
	Dedicated Mode = iota
	// Infinite is an unbounded table (an upper bound for studies; not every
	// family supports it).
	Infinite
	// Virtualized keeps the logical table in a reserved physical range and
	// fronts it with a PVProxy (Figure 1b).
	Virtualized
)

// String names the mode for error messages.
func (m Mode) String() string {
	switch m {
	case Dedicated:
		return "dedicated"
	case Infinite:
		return "infinite"
	case Virtualized:
		return "virtualized"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Params carries predictor-specific build knobs that do not merit fields on
// Spec (e.g. the SMS AGT sizing, the BTB branch-stream shape). Keys are
// namespaced by family ("agt.filter", "btb.sites"); a missing key means
// "use the family default".
type Params map[string]int

// Get returns the value for key, or def when the key is absent (or the map
// nil).
func (p Params) Get(key string, def int) int {
	if v, ok := p[key]; ok {
		return v
	}
	return def
}

// Spec names a registered predictor family and its build parameters. The
// zero Spec means "no predictor" (the paper's baseline). Specs are plain
// data: they can be declared as package variables, compared by label, and
// handed to sim.Config without importing the predictor's package.
type Spec struct {
	// Name is the registry key ("sms", "stride", "btb", ...); empty selects
	// no predictor.
	Name string
	// Mode picks the realization: dedicated, infinite or virtualized.
	Mode Mode
	// Sets and Ways give the logical table geometry (dedicated and
	// virtualized modes). One set packs into one cache block when
	// virtualized.
	Sets int
	Ways int
	// PVCacheEntries sizes the PVCache (virtualized mode; the paper's final
	// design uses 8).
	PVCacheEntries int
	// OnChipOnly enables the §2.2 option that never writes PV metadata
	// off-chip.
	OnChipOnly bool
	// SharedTable makes all cores share one PVTable (§2.1 alternative)
	// instead of each reserving its own chunk.
	SharedTable bool
	// Params holds family-specific extras.
	Params Params
}

// Enabled reports whether the spec selects a predictor at all.
func (s Spec) Enabled() bool { return s.Name != "" }

// Label names the configuration the way the paper's figures do ("1K-11a",
// "PV-8", "stride-1024", ...); the family's registered builder owns the
// naming. An unregistered name labels as itself so errors stay readable.
func (s Spec) Label() string {
	if !s.Enabled() {
		return "none"
	}
	b, ok := Lookup(s.Name)
	if !ok {
		return s.Name + "(unregistered)"
	}
	return b.Label(s)
}

// Validate checks the spec: the family must be registered, the geometry
// must suit the mode, and the family's own constraints must hold. Unknown
// names error with the registered alternatives, so a typo in a config file
// or flag surfaces the available predictors instead of an "unknown" label.
func (s Spec) Validate() error {
	if !s.Enabled() {
		return nil
	}
	b, ok := Lookup(s.Name)
	if !ok {
		return fmt.Errorf("pv: unknown predictor %q (registered: %v)", s.Name, Names())
	}
	switch s.Mode {
	case Dedicated, Virtualized:
		if s.Sets <= 0 || s.Ways <= 0 {
			return fmt.Errorf("pv: predictor %s needs sets/ways", s.Label())
		}
	case Infinite:
	default:
		return fmt.Errorf("pv: predictor %q: unsupported mode %s", s.Name, s.Mode)
	}
	if s.Mode == Virtualized && s.PVCacheEntries <= 0 {
		return fmt.Errorf("pv: virtualized predictor %s needs PVCacheEntries", s.Label())
	}
	return b.Validate(s)
}

// ValidateBlock checks that a virtualized spec's packed set fits one
// blockBytes-byte L2 block, for a family whose builder implements
// BlockValidator. Validate cannot check it, as it does not see the memory
// system; sim.Config.Validate calls ValidateBlock with the hierarchy's L2
// block size. Other specs, and unregistered names (which Validate
// reports), pass.
func (s Spec) ValidateBlock(blockBytes int) error {
	if !s.Enabled() || s.Mode != Virtualized {
		return nil
	}
	b, _ := Lookup(s.Name)
	if v, ok := b.(BlockValidator); ok {
		return v.ValidateBlock(s, blockBytes)
	}
	return nil
}

// tableStartBase places PVTables in reserved physical memory below 4GB
// (the simulated machine has 3GB; the reservation is OS-invisible, §2.1).
const tableStartBase = 0xF000_0000

// TableStart returns core c's PVStart register value; tables are spaced
// 1MB apart.
func TableStart(c int) memsys.Addr { return tableStartBase + memsys.Addr(c)<<20 }

// PVRanges computes the physical ranges the spec reserves, for traffic
// classification in the memory hierarchy: one Sets x blockBytes chunk per
// core (or one in total under SharedTable). Non-virtualized specs reserve
// nothing.
func (s Spec) PVRanges(cores, blockBytes int) []memsys.AddrRange {
	if !s.Enabled() || s.Mode != Virtualized {
		return nil
	}
	tableBytes := memsys.Addr(s.Sets * blockBytes)
	if s.SharedTable {
		return []memsys.AddrRange{{Start: TableStart(0), End: TableStart(0) + tableBytes}}
	}
	out := make([]memsys.AddrRange, cores)
	for i := range out {
		out[i] = memsys.AddrRange{Start: TableStart(i), End: TableStart(i) + tableBytes}
	}
	return out
}

// ProxyConfigFor sizes the PVProxy for a virtualized spec: the paper's
// default proxy, with the PVCache capacity from the spec and the MSHR and
// evict-buffer counts clamped so they never exceed it (ProxyConfig.Validate
// rejects the inverted shapes). clamped reports whether any clamping
// occurred — callers must surface it, since the effective proxy then
// differs from the default the user implicitly asked for.
func ProxyConfigFor(s Spec, name string) (pc core.ProxyConfig, clamped bool) {
	pc = core.DefaultProxyConfig(name)
	pc.CacheEntries = s.PVCacheEntries
	if pc.MSHRs > pc.CacheEntries {
		pc.MSHRs = pc.CacheEntries
		clamped = true
	}
	if pc.EvictBufEntries > pc.CacheEntries {
		pc.EvictBufEntries = pc.CacheEntries
		clamped = true
	}
	return pc, clamped
}

// Sink receives an instance's predictions. availableAt is the cycle at
// which the prediction became known — later than the access cycle when a
// virtualized table had to fetch its set from the memory hierarchy, which
// is exactly how virtualization perturbs prediction timeliness.
type Sink interface {
	Prefetch(addr memsys.Addr, availableAt uint64)
}

// Predictor is the observation contract: the simulator feeds every L1D
// access and every L1D block eviction of one core to its predictor.
type Predictor interface {
	OnAccess(now uint64, pc, addr memsys.Addr)
	OnEvict(now uint64, addr memsys.Addr)
}

// Instance is one per-core predictor as the simulator drives it.
type Instance interface {
	Predictor
	// ResetStats zeroes every statistic while leaving microarchitectural
	// state warm (called after the warmup phase).
	ResetStats()
	// Stats returns a deep-copied snapshot of the instance's counters; the
	// snapshot must stay valid after the instance is mutated.
	Stats() Stats
}

// Virtualizable is the extra surface of an instance whose table sits
// behind a PVProxy. Instances that can be built in both forms implement it
// unconditionally and return nil/zero values when dedicated.
type Virtualizable interface {
	// TableSpec is the logical backing-table geometry (name, PVStart,
	// sets, packed block size); zero when not virtualized.
	TableSpec() core.TableConfig
	// ProxyStats exposes the live PVProxy statistics, nil when not
	// virtualized.
	ProxyStats() *core.ProxyStats
	// Drop forgets the table set containing addr, reporting whether addr
	// belonged to this instance's table. The hierarchy's on-chip-only mode
	// calls it when a dirty PV line is discarded at the L2 edge.
	Drop(addr memsys.Addr) bool
}

// Env is the simulation context a Builder constructs an Instance in.
type Env struct {
	// Core and Cores identify this instance's core and the machine width.
	Core  int
	Cores int
	// Seed is the run's reproducibility seed (predictors with internal
	// streams, like the BTB's branch trace, derive theirs from it).
	Seed uint64
	// Timing is true for IPC runs; functional runs never advance the clock,
	// so time-retired structures (e.g. the SMS pattern buffer) should be
	// unbounded there.
	Timing bool
	// L1BlockBytes and L2BlockBytes are the cache block sizes: predictors
	// observe L1 blocks, and one virtualized set packs into one L2 block.
	L1BlockBytes int
	L2BlockBytes int
	// Start is the PVStart value for this instance's table (the shared
	// table's base when Spec.SharedTable).
	Start memsys.Addr
	// Proxy is the effective PVProxy sizing (already clamped, see
	// ProxyConfigFor); zero unless the spec is virtualized.
	Proxy core.ProxyConfig
	// Backend is the memory-system port virtualized tables fetch through.
	Backend core.Backend
	// Sink receives predictions.
	Sink Sink
	// Shared is scratch storage alive as long as the system; builders use
	// it to hand one PVTable to every core under Spec.SharedTable.
	Shared map[string]any
}

// DropFromTable forgets the table set containing addr, reporting whether
// addr belongs to t (false for a nil table). Family adapters implement
// Virtualizable.Drop with it, so the on-chip-only routing logic lives in
// one place.
func DropFromTable[S any](t *core.Table[S], addr memsys.Addr) bool {
	if t == nil {
		return false
	}
	if _, ok := t.SetOf(addr); !ok {
		return false
	}
	t.Drop(addr)
	return true
}

// Counter is one named statistic.
type Counter struct {
	Name  string
	Value uint64
}

// StatGroup is an ordered set of counters ("engine", "pht", "btb", ...).
type StatGroup struct {
	Name     string
	Counters []Counter
}

// Stats is a deep-copied snapshot of one instance's statistics, generic
// enough for reports and tests to consume without importing the predictor
// package. PVProxy statistics are not duplicated here; they flow through
// Virtualizable.ProxyStats.
type Stats struct {
	Groups []StatGroup
}

// Counter returns the value of group/name, or 0 when absent.
func (s Stats) Counter(group, name string) uint64 {
	for _, g := range s.Groups {
		if g.Name != group {
			continue
		}
		for _, c := range g.Counters {
			if c.Name == name {
				return c.Value
			}
		}
	}
	return 0
}

// CountersOf lists the exported uint64 fields of a flat statistics struct
// in declaration order; adapters use it so a predictor's stats struct is
// its report schema.
func CountersOf(v any) []Counter {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Struct {
		panic(fmt.Sprintf("pv: CountersOf(%T): not a struct", v))
	}
	out := make([]Counter, 0, rv.NumField())
	t := rv.Type()
	for i := 0; i < rv.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() || f.Type.Kind() != reflect.Uint64 {
			continue
		}
		out = append(out, Counter{Name: f.Name, Value: rv.Field(i).Uint()})
	}
	return out
}

// Group builds a StatGroup from a flat statistics struct.
func Group(name string, v any) StatGroup {
	return StatGroup{Name: name, Counters: CountersOf(v)}
}
