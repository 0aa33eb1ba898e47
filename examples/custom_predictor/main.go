// Custom predictor: register a third-party predictor family with the pv
// registry and run it — dedicated and virtualized — through the stock
// simulator, without touching a line under internal/sim.
//
// The family implemented here is a Markov next-block prefetcher: a table
// keyed by cache-block address that remembers each block's last observed
// successor and prefetches it on the next visit. Markov tables are a
// classic virtualization candidate — they want to be huge (one entry per
// hot block), which is exactly the on-chip budget problem the paper's
// framework removes. The same training/prediction engine runs over an
// on-chip table or over a core.Table behind a PVProxy; both use the same
// round-robin replacement, so the pv conformance guarantee (dedicated ==
// virtualized-with-full-PVCache) holds by construction.
//
// Run with: go run ./examples/custom_predictor
package main

import (
	"fmt"

	pvcore "pvsim/internal/core"
	"pvsim/internal/memsys"
	"pvsim/internal/sim"
	"pvsim/internal/trace"
	"pvsim/internal/workloads"
	"pvsim/pv"
)

// markovSet is the decoded form of one table set: per way the tag of a
// block and the block observed after it last time. A way is valid iff its
// Valid bit is set, so the all-zero packed block decodes to an empty set
// (the pv codec law).
type markovSet struct {
	Tags   []uint32
	Next   []uint64
	Conf   []uint8 // 2-bit saturating confirmation counter
	Valid  []bool
	Victim uint8
}

// markovCodec packs a set into one cache block: ways x (valid, 24-bit tag,
// 48-bit successor block, 2-bit confidence) plus a 4-bit round-robin
// cursor — 304 of 512 bits at 4 ways. 48 bits cover the simulator's full
// 54-bit physical block space per address window.
type markovCodec struct {
	ways  int
	block int
}

const tagBits = 24

func (c markovCodec) BlockBytes() int { return c.block }

func (c markovCodec) Pack(s markovSet, dst []byte) {
	w := pvcore.NewBitWriter(dst)
	for i := 0; i < c.ways; i++ {
		v := uint64(0)
		if s.Valid[i] {
			v = 1
		}
		w.Write(v, 1)
		w.Write(uint64(s.Tags[i]), tagBits)
		w.Write(s.Next[i], 48)
		w.Write(uint64(s.Conf[i]), 2)
	}
	w.Write(uint64(s.Victim), 4)
}

func (c markovCodec) Unpack(src []byte) markovSet {
	var s markovSet
	c.UnpackInto(src, &s)
	return s
}

func (c markovCodec) UnpackInto(src []byte, dst *markovSet) {
	if len(dst.Tags) != c.ways {
		dst.Tags = make([]uint32, c.ways)
	}
	if len(dst.Next) != c.ways {
		dst.Next = make([]uint64, c.ways)
	}
	if len(dst.Conf) != c.ways {
		dst.Conf = make([]uint8, c.ways)
	}
	if len(dst.Valid) != c.ways {
		dst.Valid = make([]bool, c.ways)
	}
	r := pvcore.NewBitReader(src)
	for i := 0; i < c.ways; i++ {
		dst.Valid[i] = r.Read(1) == 1
		dst.Tags[i] = uint32(r.Read(tagBits))
		dst.Next[i] = r.Read(48)
		dst.Conf[i] = uint8(r.Read(2))
	}
	dst.Victim = uint8(r.Read(4))
}

// setStore abstracts where the sets live, so the training engine is
// identical in both forms: an on-chip array, or a PVTable fronted by a
// PVProxy.
type setStore interface {
	access(now uint64, set int) (*markovSet, uint64)
	markDirty(set int)
	virt() *pvcore.Proxy[markovSet] // nil for the dedicated form
}

type dedStore struct {
	sets []markovSet
}

func newDedStore(sets, ways int) *dedStore {
	d := &dedStore{sets: make([]markovSet, sets)}
	for i := range d.sets {
		d.sets[i] = markovSet{Tags: make([]uint32, ways), Next: make([]uint64, ways),
			Conf: make([]uint8, ways), Valid: make([]bool, ways)}
	}
	return d
}

func (d *dedStore) access(now uint64, set int) (*markovSet, uint64) { return &d.sets[set], now }
func (d *dedStore) markDirty(int)                                   {}
func (d *dedStore) virt() *pvcore.Proxy[markovSet]                  { return nil }

type pvStore struct {
	proxy *pvcore.Proxy[markovSet]
}

func (p *pvStore) access(now uint64, set int) (*markovSet, uint64) {
	s, ready, _ := p.proxy.Access(now, set)
	return s, ready
}
func (p *pvStore) markDirty(set int)              { p.proxy.MarkDirty(set) }
func (p *pvStore) virt() *pvcore.Proxy[markovSet] { return p.proxy }

// markovStats counts engine events.
type markovStats struct {
	Accesses    uint64
	Hits        uint64 // successor found for the current block
	Predictions uint64 // prefetches handed to the sink
	Stores      uint64 // transitions recorded
}

// markovInstance implements pv.Instance (and pv.Virtualizable when built
// over a pvStore).
type markovInstance struct {
	store     setStore
	sink      pv.Sink
	sets      int
	ways      int
	setBits   uint
	blockBits uint

	prev      uint64
	prevValid bool
	stats     markovStats
}

func (m *markovInstance) index(block uint64) (set int, tag uint32) {
	return int(block & uint64(m.sets-1)), uint32(block>>m.setBits) & (1<<tagBits - 1)
}

func (m *markovInstance) OnAccess(now uint64, _, addr memsys.Addr) {
	m.stats.Accesses++
	block := uint64(addr) >> m.blockBits

	// Predict: does the current block have a *confirmed* successor?
	// Predicting every first-seen transition would pollute the L1 with
	// noise; the 2-bit counter gates prefetches on a repeat observation.
	set, tag := m.index(block)
	s, ready := m.store.access(now, set)
	for i := 0; i < m.ways; i++ {
		if s.Valid[i] && s.Tags[i] == tag {
			m.stats.Hits++
			if s.Conf[i] >= 2 {
				m.stats.Predictions++
				m.sink.Prefetch(memsys.Addr(s.Next[i]<<m.blockBits), ready)
			}
			break
		}
	}

	// Train: record prev -> block (skip self-loops; repeated hits to one
	// block carry no transition information).
	if m.prevValid && m.prev != block {
		pset, ptag := m.index(m.prev)
		ps, _ := m.store.access(now, pset)
		way := -1
		for i := 0; i < m.ways; i++ {
			if ps.Valid[i] && ps.Tags[i] == ptag {
				// Existing transition: confirm it, or decay toward
				// replacement when the successor changed.
				if ps.Next[i] == block {
					if ps.Conf[i] < 3 {
						ps.Conf[i]++
					}
				} else if ps.Conf[i] > 0 {
					ps.Conf[i]--
				} else {
					ps.Next[i] = block
					ps.Conf[i] = 1
				}
				m.store.markDirty(pset)
				m.stats.Stores++
				m.prev = block
				return
			}
			if way < 0 && !ps.Valid[i] {
				way = i
			}
		}
		if way < 0 {
			way = int(ps.Victim) % m.ways
			ps.Victim = uint8((way + 1) % m.ways)
		}
		ps.Tags[way] = ptag
		ps.Next[way] = block
		ps.Conf[way] = 1
		ps.Valid[way] = true
		m.store.markDirty(pset)
		m.stats.Stores++
	}
	m.prev, m.prevValid = block, true
}

func (m *markovInstance) OnEvict(uint64, memsys.Addr) {}

func (m *markovInstance) ResetStats() {
	m.stats = markovStats{}
	if p := m.store.virt(); p != nil {
		p.Stats = pvcore.ProxyStats{}
	}
}

func (m *markovInstance) Stats() pv.Stats {
	return pv.Stats{Groups: []pv.StatGroup{pv.Group("markov", m.stats)}}
}

func (m *markovInstance) TableSpec() pvcore.TableConfig {
	if p := m.store.virt(); p != nil {
		return p.Table().Config()
	}
	return pvcore.TableConfig{}
}

func (m *markovInstance) ProxyStats() *pvcore.ProxyStats {
	if p := m.store.virt(); p != nil {
		return &p.Stats
	}
	return nil
}

func (m *markovInstance) Drop(addr memsys.Addr) bool {
	p := m.store.virt()
	if p == nil {
		return false
	}
	return pv.DropFromTable(p.Table(), addr)
}

// markovBuilder implements pv.Builder — the whole registration surface a
// third-party predictor needs.
type markovBuilder struct{}

func (markovBuilder) Label(s pv.Spec) string {
	if s.Mode == pv.Virtualized {
		return fmt.Sprintf("markov-PV-%d", s.PVCacheEntries)
	}
	return fmt.Sprintf("markov-%d", s.Sets)
}

func (markovBuilder) Validate(s pv.Spec) error {
	if s.Mode == pv.Infinite {
		return fmt.Errorf("markov: no infinite form")
	}
	if s.Sets&(s.Sets-1) != 0 {
		return fmt.Errorf("markov: set count %d not a power of two", s.Sets)
	}
	if s.Ways > 15 {
		return fmt.Errorf("markov: %d ways exceed the 4-bit victim cursor", s.Ways)
	}
	return nil
}

func (markovBuilder) Conformance() (dedicated, virtualized pv.Spec) {
	dedicated = pv.Spec{Name: "markov", Mode: pv.Dedicated, Sets: 64, Ways: 4}
	virtualized = pv.Spec{Name: "markov", Mode: pv.Virtualized, Sets: 64, Ways: 4, PVCacheEntries: 64}
	return dedicated, virtualized
}

func (markovBuilder) New(s pv.Spec, env pv.Env) (pv.Instance, error) {
	inst := &markovInstance{
		sink:      env.Sink,
		sets:      s.Sets,
		ways:      s.Ways,
		setBits:   uint(log2(s.Sets)),
		blockBits: uint(log2(env.L1BlockBytes)),
	}
	switch s.Mode {
	case pv.Dedicated:
		inst.store = newDedStore(s.Sets, s.Ways)
	case pv.Virtualized:
		codec := markovCodec{ways: s.Ways, block: env.L2BlockBytes}
		if need := s.Ways*(1+tagBits+48+2) + 4; need > env.L2BlockBytes*8 {
			return nil, fmt.Errorf("markov: %d ways need %d bits, block has %d", s.Ways, need, env.L2BlockBytes*8)
		}
		table := pvcore.NewTable[markovSet](pvcore.TableConfig{
			Name: env.Proxy.Name, Start: env.Start, Sets: s.Sets, BlockBytes: env.L2BlockBytes,
		}, codec)
		inst.store = &pvStore{proxy: pvcore.NewProxy[markovSet](env.Proxy, table, env.Backend)}
	default:
		return nil, fmt.Errorf("markov: unsupported mode %v", s.Mode)
	}
	return inst, nil
}

func log2(v int) int {
	n := 0
	for 1<<n < v {
		n++
	}
	return n
}

func main() {
	// The one line that makes the family available to every sim.Config: no
	// simulator edits, no new enum case, no System wiring.
	pv.Register("markov", markovBuilder{})

	// A pointer-chase-shaped workload: one episode at a time, stable dense
	// walks over a hot 4MB pool — block B's successor is the same block on
	// every visit, which is the correlation a Markov table records. (The
	// Table 2 workloads interleave 8 episodes, which scrambles global
	// successor pairs; that is SMS territory, not Markov's.)
	w := workloads.Workload{
		Name:        "PtrChase",
		Class:       "custom",
		Description: "linked structure traversal with stable hot paths",
		Params: trace.Params{
			Name: "PtrChase", BlockBytes: 64, RegionBlocks: 32,
			NumPCs: 64, PCZipf: 0.6,
			RegionPool: 2000, RegionZipf: 0.9,
			PatternDensity: 0.9, PatternNoise: 0.01, NoiseFrac: 0.05,
			BlockRepeat: 1, ActiveEpisodes: 1,
			WriteFrac: 0.1, SharedFrac: 0.02, SharedWriteFrac: 0.1,
			MemRatio: 0.4, MLP: 4,
		},
	}
	if err := w.Params.Validate(); err != nil {
		panic(err)
	}
	base := sim.Default(w)
	base.Warmup, base.Measure = 150_000, 150_000
	baseline := sim.Run(base)

	// 8K sets x 4 ways = 32K transitions: a 512KB/core table nobody would
	// build in SRAM, and exactly the shape PV makes affordable.
	ded := base
	ded.Prefetch = pv.Spec{Name: "markov", Mode: pv.Dedicated, Sets: 8192, Ways: 4}
	virt := base
	virt.Prefetch = pv.Spec{Name: "markov", Mode: pv.Virtualized, Sets: 8192, Ways: 4, PVCacheEntries: 8}

	dres, vres := sim.Run(ded), sim.Run(virt)
	dcov, vcov := sim.CoverageOf(baseline, dres), sim.CoverageOf(baseline, vres)

	fmt.Println("Third-party predictor through the pv registry: Markov next-block, PtrChase")
	fmt.Printf("%-24s %12s %12s\n", "", dcov.Label, vcov.Label)
	fmt.Printf("%-24s %11.1f%% %11.1f%%\n", "miss coverage", dcov.Covered*100, vcov.Covered*100)
	fmt.Printf("%-24s %12d %12d\n", "table hits",
		dres.PredictorCounter("markov", "Hits"), vres.PredictorCounter("markov", "Hits"))
	fmt.Printf("%-24s %12d %12d\n", "transitions stored",
		dres.PredictorCounter("markov", "Stores"), vres.PredictorCounter("markov", "Stores"))

	pt := vres.ProxyTotals()
	fmt.Printf("\nvirtualized: %d PVProxy fetches, %.1f%% filled by L2, %d writebacks\n",
		pt.Fetches, pt.L2FillRate()*100, pt.Writebacks)
	fmt.Printf("effective PVProxy: %d-entry PVCache, %d MSHRs, %d evict-buffer entries (clamped=%v)\n",
		vres.EffectiveProxy.CacheEntries, vres.EffectiveProxy.MSHRs,
		vres.EffectiveProxy.EvictBufEntries, vres.ProxyClamped)
	fmt.Printf("reserved memory: %dKB/core at %#x (vs %dKB of on-chip SRAM dedicated)\n",
		8192*64/1024, uint64(pv.TableStart(0)), 8192*4*(1+tagBits+48+2)/8/1024)
	fmt.Println("\nEverything above ran through the stock sim.System — the registry carried the")
	fmt.Println("new family's construction, statistics and PV traffic classification.")
}
