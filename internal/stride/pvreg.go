package stride

import (
	"fmt"

	"pvsim/internal/core"
	"pvsim/internal/memsys"
	"pvsim/pv"
)

func init() {
	pv.Register("stride", builder{})
}

// builder registers the stride reference-prediction table with the pv
// registry.
type builder struct{}

// Label implements pv.Builder, keeping the labels the stride experiment
// has always printed: "stride-1024", "stride-PV-8".
func (builder) Label(s pv.Spec) string {
	if s.Mode == pv.Virtualized {
		return fmt.Sprintf("stride-PV-%d", s.PVCacheEntries)
	}
	return fmt.Sprintf("stride-%d", s.Sets)
}

// Validate implements pv.Builder.
func (builder) Validate(s pv.Spec) error {
	if s.Mode == pv.Infinite {
		return fmt.Errorf("stride: no infinite form (the table is the predictor)")
	}
	if s.SharedTable {
		return fmt.Errorf("stride: shared tables unsupported (strides are per-core streams)")
	}
	return configOf(s).Validate()
}

// ValidateBlock implements pv.BlockValidator.
func (builder) ValidateBlock(s pv.Spec, blockBytes int) error {
	_, err := NewSetCodec(configOf(s), blockBytes)
	return err
}

// configOf is the engine configuration of a spec's geometry.
func configOf(s pv.Spec) Config {
	cfg := DefaultConfig(s.Sets)
	cfg.Ways = s.Ways
	return cfg
}

// Conformance implements pv.Builder: two trigger PCs over 16 sets of 4
// ways never force a replacement, so dedicated-LRU and packed round-robin
// allocation behave identically.
func (builder) Conformance() (dedicated, virtualized pv.Spec) {
	dedicated = pv.Spec{Name: "stride", Mode: pv.Dedicated, Sets: 16, Ways: 4}
	virtualized = pv.Spec{Name: "stride", Mode: pv.Virtualized, Sets: 16, Ways: 4, PVCacheEntries: 16}
	return dedicated, virtualized
}

// New implements pv.Builder.
func (b builder) New(s pv.Spec, env pv.Env) (pv.Instance, error) {
	cfg := configOf(s)
	cfg.BlockBytes = env.L1BlockBytes
	switch s.Mode {
	case pv.Dedicated:
		return &Instance{eng: NewDedicated(cfg, env.Sink)}, nil
	case pv.Virtualized:
		if err := b.ValidateBlock(s, env.L2BlockBytes); err != nil {
			return nil, err
		}
		return &Instance{eng: NewVirtualized(cfg, env.Proxy, env.Start, env.L2BlockBytes, env.Backend, env.Sink)}, nil
	}
	return nil, fmt.Errorf("stride: unsupported mode %v", s.Mode)
}

// Instance adapts a stride engine to the pv predictor contract.
type Instance struct {
	eng *Engine
}

// Engine returns the underlying stride engine.
func (i *Instance) Engine() *Engine { return i.eng }

// OnAccess implements pv.Predictor.
func (i *Instance) OnAccess(now uint64, pc, addr memsys.Addr) { i.eng.OnAccess(now, pc, addr) }

// OnEvict implements pv.Predictor.
func (i *Instance) OnEvict(now uint64, addr memsys.Addr) { i.eng.OnEvict(now, addr) }

// ResetStats implements pv.Instance.
func (i *Instance) ResetStats() {
	i.eng.Stats = Stats{}
	if v := i.eng.Virtual(); v != nil {
		v.Proxy().Stats = core.ProxyStats{}
	}
}

// Stats implements pv.Instance.
func (i *Instance) Stats() pv.Stats {
	return pv.Stats{Groups: []pv.StatGroup{pv.Group("stride", i.eng.Stats)}}
}

// TableSpec implements pv.Virtualizable.
func (i *Instance) TableSpec() core.TableConfig {
	if v := i.eng.Virtual(); v != nil {
		return v.Table().Config()
	}
	return core.TableConfig{}
}

// ProxyStats implements pv.Virtualizable.
func (i *Instance) ProxyStats() *core.ProxyStats {
	if v := i.eng.Virtual(); v != nil {
		return &v.Proxy().Stats
	}
	return nil
}

// Drop implements pv.Virtualizable.
func (i *Instance) Drop(addr memsys.Addr) bool {
	v := i.eng.Virtual()
	if v == nil {
		return false
	}
	return pv.DropFromTable(v.Table(), addr)
}
