package btb

import (
	"fmt"

	"pvsim/internal/core"
	"pvsim/internal/memsys"
	"pvsim/pv"
)

func init() {
	pv.Register("btb", builder{})
	// The standard BTB study points: a large dedicated table and the same
	// geometry virtualized behind the paper's 8-entry PVCache.
	pv.RegisterSpec("btb-4K", pv.Spec{Name: "btb", Mode: pv.Dedicated, Sets: 4096, Ways: 4})
	pv.RegisterSpec("btb-PV-8", pv.Spec{Name: "btb", Mode: pv.Virtualized, Sets: 4096, Ways: 4, PVCacheEntries: 8})
}

// Spec.Params keys the BTB understands; all optional, defaulting to
// DefaultStreamParams. Probabilities are expressed in permille so Params
// stays an integer map.
const (
	ParamSites      = "btb.sites"
	ParamRunLength  = "btb.runlen"
	ParamZipfPermil = "btb.zipf.permille"
	ParamFlipPermil = "btb.flip.permille"
)

// streamParamsOf resolves the branch-stream shape from a spec.
func streamParamsOf(s pv.Spec) StreamParams {
	p := DefaultStreamParams()
	if v := s.Params.Get(ParamSites, 0); v > 0 {
		p.Sites = v
	}
	if v := s.Params.Get(ParamRunLength, 0); v > 0 {
		p.RunLength = v
	}
	if v := s.Params.Get(ParamZipfPermil, -1); v >= 0 {
		p.Zipf = float64(v) / 1000
	}
	if v := s.Params.Get(ParamFlipPermil, -1); v >= 0 {
		p.FlipProb = float64(v) / 1000
	}
	return p
}

// builder registers the branch target buffer with the pv registry. The
// front end has no L1D access stream of its own, so the instance replays a
// deterministic synthetic branch trace (one branch per observed memory
// access, roughly the ratio of real code) — its virtualized table traffic
// flows through the same backend, and so through the same shared L2, as
// every other virtualized predictor.
type builder struct{}

// Label implements pv.Builder.
func (builder) Label(s pv.Spec) string {
	if s.Mode == pv.Virtualized {
		return fmt.Sprintf("btb-PV-%d", s.PVCacheEntries)
	}
	if s.Sets >= 1024 && s.Sets%1024 == 0 {
		return fmt.Sprintf("btb-%dKx%d", s.Sets/1024, s.Ways)
	}
	return fmt.Sprintf("btb-%dx%d", s.Sets, s.Ways)
}

// Validate implements pv.Builder.
func (builder) Validate(s pv.Spec) error {
	if s.Mode == pv.Infinite {
		return fmt.Errorf("btb: no infinite form")
	}
	if s.SharedTable {
		return fmt.Errorf("btb: shared tables unsupported (branch streams are per-core)")
	}
	if err := configOf(s).Validate(); err != nil {
		return err
	}
	return streamParamsOf(s).Validate()
}

// ValidateBlock implements pv.BlockValidator.
func (builder) ValidateBlock(s pv.Spec, blockBytes int) error {
	_, err := NewSetCodec(configOf(s), blockBytes)
	return err
}

// configOf is the table configuration of a spec's geometry.
func configOf(s pv.Spec) Config {
	cfg := DefaultConfig(s.Sets)
	cfg.Ways = s.Ways
	return cfg
}

// Conformance implements pv.Builder: eight branch sites spread over 16
// sets never collide within a set's two ways, so LRU and round-robin
// replacement behave identically.
func (builder) Conformance() (dedicated, virtualized pv.Spec) {
	params := pv.Params{ParamSites: 8, ParamRunLength: 2}
	dedicated = pv.Spec{Name: "btb", Mode: pv.Dedicated, Sets: 16, Ways: 2, Params: params}
	virtualized = pv.Spec{Name: "btb", Mode: pv.Virtualized, Sets: 16, Ways: 2, PVCacheEntries: 16, Params: params}
	return dedicated, virtualized
}

// New implements pv.Builder.
func (b builder) New(s pv.Spec, env pv.Env) (pv.Instance, error) {
	cfg := configOf(s)
	inst := &Instance{}
	switch s.Mode {
	case pv.Dedicated:
		inst.pred = NewDedicated(cfg)
	case pv.Virtualized:
		if err := b.ValidateBlock(s, env.L2BlockBytes); err != nil {
			return nil, err
		}
		inst.virt = NewVirtualized(cfg, env.Proxy, env.Start, env.L2BlockBytes, env.Backend)
		inst.pred = inst.virt
	default:
		return nil, fmt.Errorf("btb: unsupported mode %v", s.Mode)
	}
	// Decorrelate per-core branch traces from each other and from the
	// data-access generators while staying a pure function of the run seed.
	inst.stream = NewStream(streamParamsOf(s), env.Seed^0x9E3779B97F4A7C15*uint64(env.Core+1))
	return inst, nil
}

// StreamStats counts the synthetic branch trace's outcomes: Correct is the
// front-end metric that matters (predicted target == resolved target).
type StreamStats struct {
	Branches uint64
	Correct  uint64
}

// Instance adapts a BTB to the pv predictor contract: every observed
// memory access steps the branch trace by one resolved branch, performing
// a lookup (prediction) and an update (resolution).
type Instance struct {
	pred   Predictor
	virt   *Virtualized // nil when dedicated
	stream *Stream
	sstats StreamStats
}

// BTB returns the underlying predictor.
func (i *Instance) BTB() Predictor { return i.pred }

// OnAccess implements pv.Predictor; the pc/addr of the data access are
// ignored — the front end runs its own instruction stream.
func (i *Instance) OnAccess(now uint64, _, _ memsys.Addr) {
	br := i.stream.Next()
	i.sstats.Branches++
	if got, _, ok := i.pred.Lookup(now, br.PC); ok && got == br.Target {
		i.sstats.Correct++
	}
	i.pred.Update(now, br.PC, br.Target)
}

// OnEvict implements pv.Predictor; BTBs do not observe data evictions.
func (i *Instance) OnEvict(uint64, memsys.Addr) {}

// ResetStats implements pv.Instance.
func (i *Instance) ResetStats() {
	i.sstats = StreamStats{}
	switch p := i.pred.(type) {
	case *Dedicated:
		p.Stats = Stats{}
	case *Virtualized:
		p.Stats = Stats{}
		p.Proxy().Stats = core.ProxyStats{}
	}
}

// Stats implements pv.Instance.
func (i *Instance) Stats() pv.Stats {
	var bs Stats
	switch p := i.pred.(type) {
	case *Dedicated:
		bs = p.Stats
	case *Virtualized:
		bs = p.Stats
	}
	return pv.Stats{Groups: []pv.StatGroup{
		pv.Group("btb", bs),
		pv.Group("stream", i.sstats),
	}}
}

// TableSpec implements pv.Virtualizable.
func (i *Instance) TableSpec() core.TableConfig {
	if i.virt == nil {
		return core.TableConfig{}
	}
	return i.virt.Table().Config()
}

// ProxyStats implements pv.Virtualizable.
func (i *Instance) ProxyStats() *core.ProxyStats {
	if i.virt == nil {
		return nil
	}
	return &i.virt.Proxy().Stats
}

// Drop implements pv.Virtualizable.
func (i *Instance) Drop(addr memsys.Addr) bool {
	if i.virt == nil {
		return false
	}
	return pv.DropFromTable(i.virt.Table(), addr)
}
