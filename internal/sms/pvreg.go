package sms

import (
	"fmt"

	"pvsim/internal/core"
	"pvsim/internal/memsys"
	"pvsim/pv"
)

func init() {
	pv.Register("sms", builder{})
}

// sharedTableKey is the Env.Shared slot the §2.1 shared-PVTable build uses
// to hand core 0's table to the other cores.
const sharedTableKey = "sms.table"

// builder registers the SMS spatial pattern table with the pv registry.
type builder struct{}

// Label implements pv.Builder with the paper's figure names: "Infinite",
// "1K-11a", "PV-8".
func (builder) Label(s pv.Spec) string {
	switch s.Mode {
	case pv.Infinite:
		return "Infinite"
	case pv.Virtualized:
		return fmt.Sprintf("PV-%d", s.PVCacheEntries)
	default:
		if s.Sets >= 1024 && s.Sets%1024 == 0 {
			return fmt.Sprintf("%dK-%da", s.Sets/1024, s.Ways)
		}
		return fmt.Sprintf("%d-%da", s.Sets, s.Ways)
	}
}

// Validate implements pv.Builder.
func (builder) Validate(s pv.Spec) error {
	switch s.Mode {
	case pv.Dedicated, pv.Virtualized:
		if s.Sets&(s.Sets-1) != 0 {
			return fmt.Errorf("sms: PHT set count %d not a power of two", s.Sets)
		}
	}
	return nil
}

// ValidateBlock implements pv.BlockValidator: ways x (tag + pattern) bits
// plus the cursor must fit the block. The tag width depends on the set
// count; the L1 block size does not enter the layout.
func (builder) ValidateBlock(s pv.Spec, blockBytes int) error {
	vcfg := VPHTConfig{Geom: DefaultGeometry(), Sets: s.Sets, Ways: s.Ways, BlockBytes: blockBytes}
	_, err := vcfg.codec()
	return err
}

// Conformance implements pv.Builder. Two trigger PCs over a 64-set table
// leave every set far below its associativity, so the dedicated table's
// LRU and the packed table's round-robin cursor never have to choose a
// victim and the two forms are exactly equivalent.
func (builder) Conformance() (dedicated, virtualized pv.Spec) {
	dedicated = pv.Spec{Name: "sms", Mode: pv.Dedicated, Sets: 64, Ways: 4}
	virtualized = pv.Spec{Name: "sms", Mode: pv.Virtualized, Sets: 64, Ways: 4, PVCacheEntries: 64}
	return dedicated, virtualized
}

// New implements pv.Builder.
func (b builder) New(s pv.Spec, env pv.Env) (pv.Instance, error) {
	geom := DefaultGeometry()
	geom.BlockBytes = env.L1BlockBytes
	agt := AGTConfig{
		FilterEntries: s.Params.Get("agt.filter", 0),
		AccumEntries:  s.Params.Get("agt.accum", 0),
	}
	if agt.FilterEntries == 0 && agt.AccumEntries == 0 {
		agt = DefaultAGTConfig()
	}
	ecfg := Config{Geom: geom, AGT: agt}
	if env.Timing {
		// The §4.6 pattern buffer only constrains timing runs; functional
		// runs never advance the clock, so entries could not retire.
		ecfg.PatternBufEntries = DefaultConfig().PatternBufEntries
	}

	var pht PatternStore
	var vpht *VirtualizedPHT
	switch s.Mode {
	case pv.Infinite:
		pht = NewInfinitePHT()
	case pv.Dedicated:
		pht = NewDedicatedPHT(s.Sets, s.Ways)
	case pv.Virtualized:
		if err := b.ValidateBlock(s, env.L2BlockBytes); err != nil {
			return nil, err
		}
		vcfg := VPHTConfig{
			Geom:       geom,
			Sets:       s.Sets,
			Ways:       s.Ways,
			Start:      env.Start,
			BlockBytes: env.L2BlockBytes,
			Proxy:      env.Proxy,
		}
		if s.SharedTable {
			if t, ok := env.Shared[sharedTableKey].(*core.Table[PHTSet]); ok {
				vpht = NewVirtualizedPHTWithTable(vcfg, t, env.Backend)
			} else {
				vpht = NewVirtualizedPHT(vcfg, env.Backend)
				env.Shared[sharedTableKey] = vpht.Table()
			}
		} else {
			vpht = NewVirtualizedPHT(vcfg, env.Backend)
		}
		pht = vpht
	default:
		return nil, fmt.Errorf("sms: unsupported mode %v", s.Mode)
	}
	return &Instance{eng: NewEngineConfig(ecfg, pht, env.Sink), vpht: vpht}, nil
}

// Instance adapts one SMS engine and its pattern store to the pv predictor
// contract; sim.System drives it as a pv.Instance. The typed accessors
// exist for tools that reach below the contract (examples/persistent_state
// saves PVTable images; tests check engine invariants).
type Instance struct {
	eng  *Engine
	vpht *VirtualizedPHT // nil unless virtualized
}

// Engine returns the SMS optimization engine.
func (i *Instance) Engine() *Engine { return i.eng }

// VPHT returns the virtualized PHT, nil for dedicated/infinite builds.
func (i *Instance) VPHT() *VirtualizedPHT { return i.vpht }

// OnAccess implements pv.Predictor.
func (i *Instance) OnAccess(now uint64, pc, addr memsys.Addr) { i.eng.OnAccess(now, pc, addr) }

// OnEvict implements pv.Predictor.
func (i *Instance) OnEvict(now uint64, addr memsys.Addr) { i.eng.OnEvict(now, addr) }

// ResetStats implements pv.Instance.
func (i *Instance) ResetStats() {
	i.eng.Stats = EngineStats{}
	switch pht := i.eng.PHT().(type) {
	case *DedicatedPHT:
		pht.Stats = PHTStats{}
	case *VirtualizedPHT:
		pht.Stats = PHTStats{}
		pht.Proxy().Stats = core.ProxyStats{}
	}
}

// Stats implements pv.Instance.
func (i *Instance) Stats() pv.Stats {
	var pht PHTStats
	switch p := i.eng.PHT().(type) {
	case *DedicatedPHT:
		pht = p.Stats
	case *VirtualizedPHT:
		pht = p.Stats
	}
	return pv.Stats{Groups: []pv.StatGroup{
		pv.Group("engine", i.eng.Stats),
		pv.Group("pht", pht),
	}}
}

// TableSpec implements pv.Virtualizable.
func (i *Instance) TableSpec() core.TableConfig {
	if i.vpht == nil {
		return core.TableConfig{}
	}
	return i.vpht.Table().Config()
}

// ProxyStats implements pv.Virtualizable.
func (i *Instance) ProxyStats() *core.ProxyStats {
	if i.vpht == nil {
		return nil
	}
	return &i.vpht.Proxy().Stats
}

// Drop implements pv.Virtualizable.
func (i *Instance) Drop(addr memsys.Addr) bool {
	if i.vpht == nil {
		return false
	}
	return pv.DropFromTable(i.vpht.Table(), addr)
}
