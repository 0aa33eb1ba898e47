package mc

import (
	"encoding/binary"
	"fmt"
	"strings"

	"pvsim/internal/core"
	"pvsim/internal/memsys"
	"pvsim/internal/sim"
	"pvsim/internal/simtest"
	"pvsim/internal/timing"
)

// StateOptions configure ExploreStates.
type StateOptions struct {
	// Sets is the backing-table geometry; 0 means 4.
	Sets int
	// Entries is the PVCache capacity; 0 means 2 (tiny on purpose: the
	// interesting orderings need eviction pressure, not capacity).
	Entries int
	// MSHRs bounds outstanding fetches; 0 means 1, so a second concurrent
	// miss exercises the stall/issue rule immediately.
	MSHRs int
	// Accesses is the seed-trace length; 0 means 6 (≤ 8 keeps the full
	// state space well under the default budget).
	Accesses int
	// TraceSeed derives the seed trace of set indices; 0 means 1.
	TraceSeed uint64
	// Budget caps distinct explored control states; 0 means DefaultBudget.
	Budget int
	// Dirties, Invals and Flushes budget how many of each perturbation
	// the explorer may interleave into one path; -1 disables the event, 0
	// means the default (1 each).
	Dirties int
	Invals  int
	Flushes int
	// Fault injects a deliberate defect for self-tests: "leak-hit" bumps
	// the proxy's hit counter behind the shadow model's back on the
	// second access; "drop-writeback" swallows a writeback count at the
	// first flush. Production and CI runs leave it empty.
	Fault string
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...interface{})
}

func (o StateOptions) withDefaults() StateOptions {
	if o.Sets == 0 {
		o.Sets = 4
	}
	if o.Entries == 0 {
		o.Entries = 2
	}
	if o.MSHRs == 0 {
		o.MSHRs = 1
	}
	if o.Accesses == 0 {
		o.Accesses = 6
	}
	if o.TraceSeed == 0 {
		o.TraceSeed = 1
	}
	if o.Budget == 0 {
		o.Budget = DefaultBudget
	}
	norm := func(v int) int {
		switch {
		case v < 0:
			return 0
		case v == 0:
			return 1
		}
		return v
	}
	o.Dirties, o.Invals, o.Flushes = norm(o.Dirties), norm(o.Invals), norm(o.Flushes)
	return o
}

// seedTrace derives the demand-access trace (set indices) from the
// options' seed via a fixed LCG, so a printed counterexample pins the
// whole exploration, not just the event ordering.
func (o StateOptions) seedTrace() []int {
	x := o.TraceSeed
	out := make([]int, o.Accesses)
	for i := range out {
		x = x*6364136223846793005 + 1442695040888963407
		out[i] = int((x >> 33) % uint64(o.Sets))
	}
	return out
}

const mcBlockBytes = 8

// mcCodec packs the trivial uint64 set type the state explorer drives the
// proxy with; zero is the empty set per the Codec laws.
type mcCodec struct{}

func (mcCodec) BlockBytes() int                    { return mcBlockBytes }
func (mcCodec) Pack(s uint64, dst []byte)          { binary.LittleEndian.PutUint64(dst, s) }
func (mcCodec) Unpack(src []byte) uint64           { return binary.LittleEndian.Uint64(src) }
func (mcCodec) UnpackInto(src []byte, dst *uint64) { *dst = binary.LittleEndian.Uint64(src) }

// mcBackend is a deterministic two-level memory port: even block indices
// are "L2 resident" (short latency), odd ones go to "memory" (long
// latency). It counts every request so the explorer can cross-check the
// proxy's fetch accounting against what actually reached the backend.
type mcBackend struct {
	l2Lat, memLat                    uint64
	reads, readsL2, readsMem, writes uint64
}

func newMCBackend() *mcBackend { return &mcBackend{l2Lat: 10, memLat: 40} }

func (b *mcBackend) classify(a memsys.Addr) (memsys.Level, uint64) {
	if (uint64(a)/mcBlockBytes)%2 == 0 {
		return memsys.LevelL2, b.l2Lat
	}
	return memsys.LevelMem, b.memLat
}

func (b *mcBackend) Read(a memsys.Addr) memsys.Result {
	lvl, lat := b.classify(a)
	b.reads++
	if lvl == memsys.LevelL2 {
		b.readsL2++
	} else {
		b.readsMem++
	}
	return memsys.Result{Level: lvl, Latency: lat}
}

func (b *mcBackend) Write(a memsys.Addr) memsys.Result {
	b.writes++
	return memsys.Result{Level: memsys.LevelL2, Latency: b.l2Lat}
}

// Event kinds of the state explorer, in the fixed enumeration order the
// decision trail indexes into.
const (
	evAcc = iota
	evTick
	evDirty
	evInval
	evFlush
)

type stateEvent struct {
	kind  int
	slot  int // dirty/inval target slot
	label string
}

// machine is one explored path's subject plus its shadow model: a tiny
// PVProxy over a real table and the counting backend, an independent
// re-implementation of the proxy's statistics and MSHR issue rule, and the
// accumulated timing.PVDelta fold.
type machine struct {
	opts  StateOptions
	trace []int

	table *core.Table[uint64]
	proxy *core.Proxy[uint64]
	be    *mcBackend

	now uint64
	pos int

	dirties, invals, flushes int

	exp      core.ProxyStats // expected proxy stats
	prevSnap core.ProxyStats // last stats snapshot, for the PVDelta fold
	fold     timing.PVEvents // accumulated fold, as the timing model sees it

	events int // applied events, for fault triggers
}

func newMachine(opts StateOptions) *machine {
	tbl := core.NewTable[uint64](core.TableConfig{Name: "mc", Start: 0, Sets: opts.Sets, BlockBytes: mcBlockBytes}, mcCodec{})
	be := newMCBackend()
	cfg := core.ProxyConfig{Name: "mc", CacheEntries: opts.Entries, MSHRs: opts.MSHRs, EvictBufEntries: 1}
	return &machine{
		opts:    opts,
		trace:   opts.seedTrace(),
		table:   tbl,
		proxy:   core.NewProxy[uint64](cfg, tbl, be),
		be:      be,
		dirties: opts.Dirties,
		invals:  opts.Invals,
		flushes: opts.Flushes,
	}
}

// outstanding counts in-flight fetches at now and the earliest completion
// among them, from a snapshot.
func outstanding(snap []core.EntryState, now uint64) (busy int, earliest uint64) {
	earliest = ^uint64(0)
	for _, e := range snap {
		if e.Valid && e.ReadyAt > now {
			busy++
			if e.ReadyAt < earliest {
				earliest = e.ReadyAt
			}
		}
	}
	if busy == 0 {
		earliest = now
	}
	return busy, earliest
}

// enabled lists the events applicable in the current state, in fixed
// order: the next trace access, a clock tick to the next fetch
// completion, then the budgeted perturbations (dirty/invalidate per
// resident slot, flush).
func (m *machine) enabled() []stateEvent {
	var out []stateEvent
	snap := m.proxy.Snapshot()
	if m.pos < len(m.trace) {
		out = append(out, stateEvent{kind: evAcc, label: fmt.Sprintf("acc[%d](set %d)", m.pos, m.trace[m.pos])})
	}
	if busy, earliest := outstanding(snap, m.now); busy > 0 {
		out = append(out, stateEvent{kind: evTick, label: fmt.Sprintf("tick(+%d)", earliest-m.now)})
	}
	if m.dirties > 0 {
		for i, e := range snap {
			if e.Valid {
				out = append(out, stateEvent{kind: evDirty, slot: i, label: fmt.Sprintf("dirty(slot %d, set %d)", i, e.Set)})
			}
		}
	}
	if m.invals > 0 {
		for i, e := range snap {
			if e.Valid {
				out = append(out, stateEvent{kind: evInval, slot: i, label: fmt.Sprintf("inval(slot %d, set %d)", i, e.Set)})
			}
		}
	}
	if m.flushes > 0 && m.proxy.Resident() > 0 {
		out = append(out, stateEvent{kind: evFlush, label: "flush"})
	}
	return out
}

// predictVictim is the shadow model's independent copy of the proxy's
// replacement policy: first invalid slot, else LRU among completed
// entries, else global LRU.
func predictVictim(snap []core.EntryState, now uint64) int {
	best := -1
	for i, e := range snap {
		if !e.Valid {
			return i
		}
		if e.ReadyAt > now {
			continue
		}
		if best < 0 || e.LastUse < snap[best].LastUse {
			best = i
		}
	}
	if best >= 0 {
		return best
	}
	best = 0
	for i := 1; i < len(snap); i++ {
		if snap[i].LastUse < snap[best].LastUse {
			best = i
		}
	}
	return best
}

// apply executes one enabled event against the proxy, advances the shadow
// model in lockstep, and checks every invariant. A non-nil error is the
// counterexample's failed check.
func (m *machine) apply(ev stateEvent) error {
	m.events++
	switch ev.kind {
	case evAcc:
		if err := m.applyAccess(); err != nil {
			return err
		}
	case evTick:
		snap := m.proxy.Snapshot()
		busy, earliest := outstanding(snap, m.now)
		if busy == 0 {
			return fmt.Errorf("tick fired with nothing outstanding")
		}
		m.now = earliest
	case evDirty:
		snap := m.proxy.Snapshot()
		m.proxy.MarkDirty(snap[ev.slot].Set)
		m.dirties--
		if got := m.proxy.Snapshot()[ev.slot]; !got.Dirty || !got.Valid {
			return fmt.Errorf("MarkDirty(slot %d) left entry %+v", ev.slot, got)
		}
	case evInval:
		snap := m.proxy.Snapshot()
		m.proxy.Invalidate(snap[ev.slot].Set)
		m.invals--
		m.exp.Invalidations++
		if got := m.proxy.Snapshot()[ev.slot]; got.Valid {
			return fmt.Errorf("Invalidate(slot %d) left entry valid", ev.slot)
		}
	case evFlush:
		snap := m.proxy.Snapshot()
		for _, e := range snap {
			if !e.Valid {
				continue
			}
			if e.Dirty {
				m.exp.Writebacks++
			} else {
				m.exp.CleanEvictions++
			}
		}
		m.proxy.Flush()
		m.flushes--
		if m.opts.Fault == "drop-writeback" && m.proxy.Stats.Writebacks > 0 {
			m.proxy.Stats.Writebacks--
		}
		if n := m.proxy.Resident(); n != 0 {
			return fmt.Errorf("flush left %d entries resident", n)
		}
		if busy, _ := outstanding(m.proxy.Snapshot(), m.now); busy != 0 {
			return fmt.Errorf("flush left %d fetches outstanding", busy)
		}
	default:
		return fmt.Errorf("unknown event kind %d", ev.kind)
	}
	return m.checkStep()
}

// applyAccess predicts the next demand access's complete outcome — hit or
// miss, merge or stall, issue time under the MSHR rule, victim choice,
// fill level — then runs it and requires the proxy to agree exactly.
func (m *machine) applyAccess() error {
	set := m.trace[m.pos]
	m.pos++
	snap := m.proxy.Snapshot()
	busy, earliest := outstanding(snap, m.now)

	hitIdx := -1
	for i, e := range snap {
		if e.Valid && e.Set == set {
			hitIdx = i
			break
		}
	}

	m.exp.Lookups++
	var wantReady uint64
	wantHit := hitIdx >= 0
	victim := -1
	if wantHit {
		m.exp.Hits++
		wantReady = m.now
		if snap[hitIdx].ReadyAt > m.now {
			m.exp.InFlightMerges++
			wantReady = snap[hitIdx].ReadyAt
		}
	} else {
		m.exp.Misses++
		// The MSHR issue rule: a miss issues immediately while an MSHR is
		// free, otherwise it issues when the earliest outstanding fetch
		// completes (and counts one stall).
		issueAt := m.now
		if busy >= m.opts.MSHRs {
			issueAt = earliest
			m.exp.MSHRStalls++
		}
		victim = predictVictim(snap, m.now)
		if snap[victim].Valid {
			if snap[victim].Dirty {
				m.exp.Writebacks++
			} else {
				m.exp.CleanEvictions++
			}
		}
		m.exp.Fetches++
		lvl, lat := m.be.classify(m.table.AddrOf(set))
		if lvl == memsys.LevelL2 {
			m.exp.FilledByL2++
		} else {
			m.exp.FilledByMem++
		}
		wantReady = issueAt + lat
	}

	_, ready, hit := m.proxy.Access(m.now, set)
	if m.opts.Fault == "leak-hit" && m.exp.Lookups == 2 {
		m.proxy.Stats.Hits++
	}
	if hit != wantHit {
		return fmt.Errorf("access(set %d) hit=%v, shadow predicts %v", set, hit, wantHit)
	}
	if ready != wantReady {
		return fmt.Errorf("access(set %d) ready at %d, MSHR issue rule predicts %d", set, ready, wantReady)
	}
	if !wantHit {
		got := m.proxy.Snapshot()[victim]
		if !got.Valid || got.Set != set || got.Dirty || got.ReadyAt != wantReady {
			return fmt.Errorf("miss(set %d) refilled victim slot %d as %+v, want clean set %d ready %d",
				set, victim, got, set, wantReady)
		}
	}
	return nil
}

// checkStep runs every per-transition invariant: the exact shadow-stats
// match, the simtest conservation laws, entry conservation, the MSHR
// occupancy bound, the backend cross-check, and the PVDelta fold's exact
// agreement with the shadow model's counters.
func (m *machine) checkStep() error {
	if m.proxy.Stats != m.exp {
		return fmt.Errorf("proxy stats diverged from shadow model:\n  proxy  %+v\n  shadow %+v", m.proxy.Stats, m.exp)
	}
	if err := m.proxy.CheckInvariants(); err != nil {
		return err
	}
	res := sim.Result{Proxies: []core.ProxyStats{m.proxy.Stats}}
	if err := simtest.Check(&res); err != nil {
		return err
	}
	// Entry conservation: every fetch installed exactly one entry, and
	// every installed entry was written back, dropped clean, invalidated,
	// or is still resident.
	s := m.proxy.Stats
	if disposed := s.Writebacks + s.CleanEvictions + s.Invalidations + uint64(m.proxy.Resident()); s.Fetches != disposed {
		return fmt.Errorf("entry conservation: %d fetches != %d writebacks + %d clean + %d invalidated + %d resident",
			s.Fetches, s.Writebacks, s.CleanEvictions, s.Invalidations, m.proxy.Resident())
	}
	if busy, _ := outstanding(m.proxy.Snapshot(), m.now); busy > m.opts.Entries {
		return fmt.Errorf("%d fetches outstanding with only %d PVCache entries", busy, m.opts.Entries)
	}
	// Backend cross-check: the backend must have seen exactly the traffic
	// the shadow model accounted.
	if m.be.reads != m.exp.Fetches || m.be.readsL2 != m.exp.FilledByL2 || m.be.readsMem != m.exp.FilledByMem {
		return fmt.Errorf("backend saw %d reads (%d L2 / %d mem), proxy accounted %d fetches (%d / %d)",
			m.be.reads, m.be.readsL2, m.be.readsMem, m.exp.Fetches, m.exp.FilledByL2, m.exp.FilledByMem)
	}
	if m.be.writes != m.exp.Writebacks {
		return fmt.Errorf("backend saw %d writes, proxy accounted %d writebacks", m.be.writes, m.exp.Writebacks)
	}
	// Fold the stats movement exactly as the timing model does and require
	// exact agreement with the shadow totals, event for event.
	d := timing.PVDelta(m.prevSnap, m.proxy.Stats)
	m.prevSnap = m.proxy.Stats
	m.fold.Hits += d.Hits
	m.fold.MissesL2 += d.MissesL2
	m.fold.MissesMem += d.MissesMem
	m.fold.MSHRStalls += d.MSHRStalls
	m.fold.L2Requests += d.L2Requests
	m.fold.Invalidated += d.Invalidated
	want := timing.PVEvents{
		Hits:        m.exp.Hits,
		MissesL2:    m.exp.FilledByL2,
		MissesMem:   m.exp.FilledByMem,
		MSHRStalls:  m.exp.MSHRStalls,
		L2Requests:  m.exp.Fetches + m.exp.Writebacks,
		Invalidated: m.exp.Invalidations,
	}
	if m.fold != want {
		return fmt.Errorf("PVDelta fold diverged from shadow totals:\n  fold   %+v\n  shadow %+v", m.fold, want)
	}
	return nil
}

// checkQuiescent runs at every terminal node (no event enabled): the
// trace is fully consumed and — the no-MSHR-leak liveness claim — every
// issued fetch has drained.
func (m *machine) checkQuiescent() error {
	if m.pos != len(m.trace) {
		return fmt.Errorf("path ended with %d of %d trace accesses unconsumed", len(m.trace)-m.pos, len(m.trace))
	}
	if busy, _ := outstanding(m.proxy.Snapshot(), m.now); busy != 0 {
		return fmt.Errorf("MSHR leak: quiescent path ends with %d fetches outstanding", busy)
	}
	return nil
}

// hash canonicalizes the control state for DFS pruning: slot-ordered
// entries with readiness as deltas against now and recency as ranks, the
// trace position and the remaining event budgets. Statistics are
// deliberately excluded — every path checks them at every step before any
// pruning, and from equal control state all future stat movements are
// equal — so paths differing only in how they arrived merge.
func (m *machine) hash() string {
	snap := m.proxy.Snapshot()
	// Rank valid entries by LastUse: only relative recency drives the
	// replacement policy, so absolute tick values must not split states.
	rank := make([]int, len(snap))
	for i, e := range snap {
		if !e.Valid {
			continue
		}
		r := 0
		for _, o := range snap {
			if o.Valid && o.LastUse < e.LastUse {
				r++
			}
		}
		rank[i] = r + 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "p%d|b%d.%d.%d|", m.pos, m.dirties, m.invals, m.flushes)
	for i, e := range snap {
		if !e.Valid {
			b.WriteString("-;")
			continue
		}
		delta := uint64(0)
		if e.ReadyAt > m.now {
			delta = e.ReadyAt - m.now
		}
		fmt.Fprintf(&b, "s%d.d%v.r%d.u%d;", e.Set, e.Dirty, delta, rank[i])
	}
	return b.String()
}

// ExploreStates walks every reachable ordering of the configured proxy's
// events from its seed trace, depth-first with control-state pruning,
// checking the full invariant suite after every transition and the
// no-leak liveness condition at every quiescent path end.
func ExploreStates(opts StateOptions) (Report, error) {
	opts = opts.withDefaults()
	if opts.Entries < 1 || opts.MSHRs < 1 || opts.MSHRs > opts.Entries || opts.Sets < opts.Entries {
		return Report{}, fmt.Errorf("mc: bad geometry: %d sets, %d entries, %d MSHRs", opts.Sets, opts.Entries, opts.MSHRs)
	}
	if opts.Log != nil {
		opts.Log("mc: states: %d sets x %d entries x %d MSHRs, %d accesses (trace seed %d), budget %d",
			opts.Sets, opts.Entries, opts.MSHRs, opts.Accesses, opts.TraceSeed, opts.Budget)
	}
	seen := map[string]bool{}
	stack := [][]int{nil}
	states, paths := 0, 0
	for len(stack) > 0 {
		if states >= opts.Budget {
			if opts.Log != nil {
				opts.Log("mc: states: budget exhausted at %d states (%d paths)", states, paths)
			}
			return Report{Explored: states, Paths: paths, Truncated: true}, nil
		}
		prefix := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		m := newMachine(opts)
		var trace []string
		fail := func(err error) (Report, error) {
			return Report{Explored: states, Paths: paths, Cex: &Counterexample{Seed: FormatSeed(prefix), Trace: trace, Err: err}}, nil
		}
		for step, choice := range prefix {
			ev := m.enabled()
			if choice >= len(ev) {
				// Unreachable for stack-generated prefixes; defensive.
				return Report{}, fmt.Errorf("mc: replay diverged at step %d: choice %d of %d events", step, choice, len(ev))
			}
			trace = append(trace, ev[choice].label)
			if err := m.apply(ev[choice]); err != nil {
				return fail(err)
			}
		}
		h := m.hash()
		if seen[h] {
			continue
		}
		seen[h] = true
		states++

		ev := m.enabled()
		if len(ev) == 0 {
			paths++
			if err := m.checkQuiescent(); err != nil {
				return fail(err)
			}
			continue
		}
		for i := len(ev) - 1; i >= 0; i-- {
			child := make([]int, len(prefix)+1)
			copy(child, prefix)
			child[len(prefix)] = i
			stack = append(stack, child)
		}
	}
	if opts.Log != nil {
		opts.Log("mc: states: explored %d states, %d quiescent paths", states, paths)
	}
	return Report{Explored: states, Paths: paths}, nil
}

// ReplayState re-runs the single event path identified by seed (a
// counterexample's decision trail) on a fresh machine, returning the
// rendered events and the failing check, nil if the path passes.
func ReplayState(opts StateOptions, seed string) ([]string, error) {
	opts = opts.withDefaults()
	trail, err := ParseSeed(seed)
	if err != nil {
		return nil, err
	}
	m := newMachine(opts)
	var trace []string
	for step, choice := range trail {
		ev := m.enabled()
		if choice >= len(ev) {
			return trace, fmt.Errorf("mc: seed step %d picks event %d, only %d enabled", step, choice, len(ev))
		}
		trace = append(trace, ev[choice].label)
		if err := m.apply(ev[choice]); err != nil {
			return trace, err
		}
	}
	if len(m.enabled()) == 0 {
		if err := m.checkQuiescent(); err != nil {
			return trace, err
		}
	}
	return trace, nil
}
