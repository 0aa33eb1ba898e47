package core

import (
	"fmt"

	"pvsim/internal/memsys"
)

// Backend is the memory-system port of a PVProxy: requests injected on the
// backside of the L1, i.e. straight at the L2. The returned Result carries
// the serving level and latency; the packed bytes themselves move through
// the Table, which is the authoritative store in this simulator.
type Backend interface {
	// Read fetches the block at a (one packed predictor set).
	Read(a memsys.Addr) memsys.Result
	// Write writes back the dirty block at a.
	Write(a memsys.Addr) memsys.Result
}

// HierarchyBackend adapts *memsys.Hierarchy to the Backend port.
type HierarchyBackend struct{ H *memsys.Hierarchy }

// Read implements Backend.
func (b HierarchyBackend) Read(a memsys.Addr) memsys.Result { return b.H.PVRead(a) }

// Write implements Backend.
func (b HierarchyBackend) Write(a memsys.Addr) memsys.Result { return b.H.PVWriteback(a) }

// ProxyConfig sizes the on-chip part of a virtualized predictor.
type ProxyConfig struct {
	Name string
	// CacheEntries is the PVCache capacity in predictor sets. The paper's
	// final design uses 8 (§4.3: "little benefit from increasing ... to 16
	// or even 32").
	CacheEntries int
	// MSHRs bounds outstanding set fetches.
	MSHRs int
	// EvictBufEntries sizes the evict buffer that absorbs dirty victims.
	EvictBufEntries int
}

// DefaultProxyConfig is the paper's final PVProxy: 8-entry fully-associative
// PVCache, 4 MSHRs, 4-entry evict buffer.
func DefaultProxyConfig(name string) ProxyConfig {
	return ProxyConfig{Name: name, CacheEntries: 8, MSHRs: 4, EvictBufEntries: 4}
}

// Validate checks the proxy configuration.
func (c ProxyConfig) Validate() error {
	if c.CacheEntries <= 0 {
		return fmt.Errorf("pvproxy %s: %d cache entries", c.Name, c.CacheEntries)
	}
	if c.MSHRs <= 0 || c.MSHRs > c.CacheEntries {
		return fmt.Errorf("pvproxy %s: %d MSHRs with %d cache entries", c.Name, c.MSHRs, c.CacheEntries)
	}
	if c.EvictBufEntries <= 0 {
		return fmt.Errorf("pvproxy %s: %d evict-buffer entries", c.Name, c.EvictBufEntries)
	}
	return nil
}

// ProxyStats counts PVProxy events.
type ProxyStats struct {
	Lookups        uint64
	Hits           uint64 // PVCache hits (including still-in-flight merges)
	Misses         uint64
	InFlightMerges uint64 // hits on entries whose fetch has not completed
	MSHRStalls     uint64 // misses delayed because every MSHR was busy
	Fetches        uint64 // memory requests issued
	FilledByL2     uint64 // fetches served by the L2 (the paper reports >98%)
	FilledByMem    uint64
	Writebacks     uint64 // dirty victims written to the memory hierarchy
	CleanEvictions uint64
	Invalidations  uint64 // coherence invalidations of PVCache entries
}

// HitRate returns PVCache hits / lookups.
func (s *ProxyStats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// L2FillRate returns the fraction of proxy fetches the L2 satisfied.
func (s *ProxyStats) L2FillRate() float64 {
	if s.Fetches == 0 {
		return 0
	}
	return float64(s.FilledByL2) / float64(s.Fetches)
}

// pvEntry is one PVCache slot: a decoded predictor set plus bookkeeping.
// Its LRU stamp lives in Proxy.lastUse.
type pvEntry[S any] struct {
	set     int
	s       S
	dirty   bool
	readyAt uint64 // completion time of the fetch that installed it
}

// inFlightKey marks a victim key whose fetch is still outstanding. The
// clock advances once per Access, so stamps stay below 2^62 and a marked
// key sorts above every completed entry's stamp while keeping the order
// of the stamps it marks.
const inFlightKey = 1 << 62

// Proxy is the PVProxy of Figure 1b, generic over the decoded set type S.
// The optimization engine calls Access with the set index it would have used
// against the dedicated table; the proxy services it from the PVCache or
// fetches the packed set through the Backend.
//
// The proxy is clocked externally: every method takes the current cycle and
// returns the cycle at which its result is architecturally available.
// Functional experiments pass now=0 everywhere and ignore readiness.
type Proxy[S any] struct {
	cfg     ProxyConfig
	table   *Table[S]
	be      Backend
	entries []pvEntry[S]
	// lastUse holds each slot's LRU stamp, 0 for an empty slot; tick
	// advances before every stamp, as memsys.LeastStamp requires. keys
	// is the miss path's victim-key scratch, one per slot.
	lastUse []uint64
	keys    []uint64
	tick    uint64

	Stats ProxyStats
}

// NewProxy builds a PVProxy over a backing table and memory backend; it
// panics on invalid configuration.
func NewProxy[S any](cfg ProxyConfig, table *Table[S], be Backend) *Proxy[S] {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.CacheEntries
	return &Proxy[S]{cfg: cfg, table: table, be: be, entries: make([]pvEntry[S], n),
		lastUse: make([]uint64, n), keys: make([]uint64, n)}
}

// Config returns the proxy configuration.
func (p *Proxy[S]) Config() ProxyConfig { return p.cfg }

// Table returns the backing PVTable.
func (p *Proxy[S]) Table() *Table[S] { return p.table }

// Access returns the decoded predictor set for the given table set index.
// readyAt is the cycle at which the contents are usable: now for a PVCache
// hit on a completed entry, the fetch completion time otherwise. Callers
// that mutate the returned set must call MarkDirty.
func (p *Proxy[S]) Access(now uint64, set int) (s *S, readyAt uint64, hit bool) {
	if set < 0 || set >= p.table.cfg.Sets {
		panic(fmt.Sprintf("pvproxy %s: set %d out of range [0,%d)", p.cfg.Name, set, p.table.cfg.Sets))
	}
	p.tick++
	p.Stats.Lookups++

	if i := p.slot(set); i >= 0 {
		e := &p.entries[i]
		p.lastUse[i] = p.tick
		p.Stats.Hits++
		ready := now
		if e.readyAt > now {
			ready = e.readyAt
			p.Stats.InFlightMerges++
		}
		return &e.s, ready, true
	}

	// One pass counts the fetches still outstanding at now, finds the
	// earliest completion among them, and keys each slot for the victim
	// pick: 0 when empty, the stamp when complete, the stamp marked
	// inFlightKey while in flight. The least key is then the first empty
	// slot, else the LRU completed entry, else (every entry in flight,
	// only possible when MSHRs == CacheEntries) the global LRU entry.
	p.Stats.Misses++
	busy, earliest := 0, ^uint64(0)
	for i := range p.entries {
		k := p.lastUse[i]
		if r := p.entries[i].readyAt; k != 0 && r > now {
			busy++
			earliest = min(earliest, r)
			k |= inFlightKey
		}
		p.keys[i] = k
	}
	issueAt := now
	if busy >= p.cfg.MSHRs {
		issueAt = earliest
		p.Stats.MSHRStalls++
	}

	victim := memsys.LeastStamp(p.keys)
	p.evict(victim)

	res := p.be.Read(p.table.AddrOf(set))
	p.Stats.Fetches++
	switch res.Level {
	case memsys.LevelL2:
		p.Stats.FilledByL2++
	case memsys.LevelMem:
		p.Stats.FilledByMem++
	}

	// Refill the victim slot in place: ReadSetInto reuses the decoded set's
	// backing storage, so steady-state misses allocate nothing.
	e := &p.entries[victim]
	e.set = set
	p.table.ReadSetInto(set, &e.s)
	e.dirty = false
	e.readyAt = issueAt + res.Latency
	p.lastUse[victim] = p.tick
	return &e.s, e.readyAt, false
}

// slot returns the PVCache slot holding set, or -1.
func (p *Proxy[S]) slot(set int) int {
	for i := range p.entries {
		if p.lastUse[i] != 0 && p.entries[i].set == set {
			return i
		}
	}
	return -1
}

// evict disposes of slot i: a dirty set is packed into the PVTable and
// written back through the evict buffer; clean sets are discarded.
func (p *Proxy[S]) evict(i int) {
	if p.lastUse[i] == 0 {
		return
	}
	e := &p.entries[i]
	if e.dirty {
		p.table.WriteSet(e.set, e.s)
		p.be.Write(p.table.AddrOf(e.set))
		p.Stats.Writebacks++
	} else {
		p.Stats.CleanEvictions++
	}
	p.lastUse[i] = 0
}

// MarkDirty records that the cached copy of set was modified; it panics if
// the set is not resident, which would indicate engine/proxy disagreement.
func (p *Proxy[S]) MarkDirty(set int) {
	i := p.slot(set)
	if i < 0 {
		panic(fmt.Sprintf("pvproxy %s: MarkDirty(%d) on non-resident set", p.cfg.Name, set))
	}
	p.entries[i].dirty = true
}

// Contains reports whether a set is resident (tests use it).
func (p *Proxy[S]) Contains(set int) bool { return p.slot(set) >= 0 }

// Invalidate drops a set from the PVCache without writeback. §2.3 requires
// this coherence action when software updates the in-memory table directly.
func (p *Proxy[S]) Invalidate(set int) {
	if i := p.slot(set); i >= 0 {
		p.lastUse[i] = 0
		p.Stats.Invalidations++
	}
}

// Flush writes back every dirty entry and empties the PVCache; a context
// switch that reprograms PVStart (§2.1) would do this.
func (p *Proxy[S]) Flush() {
	for i := range p.entries {
		p.evict(i)
	}
}

// Resident returns the number of valid PVCache entries.
func (p *Proxy[S]) Resident() int {
	n := 0
	for _, u := range p.lastUse {
		if u != 0 {
			n++
		}
	}
	return n
}

// EntryState is the bookkeeping of one PVCache slot, exposed for
// introspection (model checking, debugging). The decoded payload itself is
// not included: it is reachable through the backing table, and state-space
// exploration wants the small canonical control state only.
type EntryState struct {
	Set     int
	Valid   bool
	Dirty   bool
	LastUse uint64
	ReadyAt uint64
}

// Snapshot returns the control state of every PVCache slot, in slot order.
// It is a pure observer: no statistics move, no recency updates. The
// internal/mc state explorer hashes snapshots to prune its DFS; tests use
// them to assert replacement decisions.
func (p *Proxy[S]) Snapshot() []EntryState {
	out := make([]EntryState, len(p.entries))
	for i := range p.entries {
		e := &p.entries[i]
		out[i] = EntryState{Set: e.set, Valid: p.lastUse[i] != 0, Dirty: e.dirty, LastUse: p.lastUse[i], ReadyAt: e.readyAt}
	}
	return out
}

// CheckInvariants verifies that no set index appears twice in the PVCache.
func (p *Proxy[S]) CheckInvariants() error {
	seen := make(map[int]bool, len(p.entries))
	for i := range p.entries {
		if p.lastUse[i] == 0 {
			continue
		}
		set := p.entries[i].set
		if seen[set] {
			return fmt.Errorf("pvproxy %s: set %d cached twice", p.cfg.Name, set)
		}
		seen[set] = true
	}
	return nil
}

// Retarget flushes the PVCache and points the proxy at a different backing
// table — what a context switch does when PVStart is part of the
// architectural state (§2.1: "independent tables can be preserved by
// allocating different chunks of main memory to different applications via
// the PVStart registers"). The new table must share the old one's geometry.
func (p *Proxy[S]) Retarget(t *Table[S]) {
	if t.cfg.Sets != p.table.cfg.Sets || t.cfg.BlockBytes != p.table.cfg.BlockBytes {
		panic(fmt.Sprintf("pvproxy %s: retarget geometry %dx%dB != %dx%dB",
			p.cfg.Name, t.cfg.Sets, t.cfg.BlockBytes, p.table.cfg.Sets, p.table.cfg.BlockBytes))
	}
	p.Flush()
	p.table = t
}
