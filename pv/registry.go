package pv

import (
	"fmt"
	"sort"
	"sync"
)

// Builder is what a predictor family registers: everything the simulator
// needs to label, validate and construct instances of that family without
// importing its package.
type Builder interface {
	// Label names a spec the way the paper's figures do.
	Label(s Spec) string
	// Validate checks family-specific constraints beyond the generic
	// geometry checks Spec.Validate performs.
	Validate(s Spec) error
	// New builds one per-core instance. The spec has already passed
	// Validate; env supplies the simulation context.
	New(s Spec, env Env) (Instance, error)
	// Conformance returns the spec pair the generic conformance suite
	// (pv/pvtest) compares: a dedicated table and the same geometry
	// virtualized with a PVCache covering the whole table, shaped so the
	// two replacement policies cannot diverge. Every registered family
	// must produce identical prediction streams for this pair.
	Conformance() (dedicated, virtualized Spec)
}

// BlockValidator is the optional Builder extension of a family whose
// virtualized form packs one table set into one L2 block.
type BlockValidator interface {
	// ValidateBlock reports a virtualized spec whose packed set does not
	// fit a blockBytes-byte block, naming the family, the ways and the
	// bits. New must return the same error rather than panic.
	ValidateBlock(s Spec, blockBytes int) error
}

var (
	regMu    sync.RWMutex
	builders = map[string]Builder{}
	specs    = map[string]Spec{}
)

// Register installs a predictor family under name; predictor packages call
// it from init. Registering a duplicate name panics: silent replacement
// would make experiment labels ambiguous.
func Register(name string, b Builder) {
	regMu.Lock()
	defer regMu.Unlock()
	if name == "" || b == nil {
		panic("pv: Register with empty name or nil builder")
	}
	if _, dup := builders[name]; dup {
		panic(fmt.Sprintf("pv: predictor %q registered twice", name))
	}
	builders[name] = b
}

// Lookup returns the builder registered under name.
func Lookup(name string) (Builder, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	b, ok := builders[name]
	return b, ok
}

// Names lists the registered predictor families, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(builders))
	for n := range builders {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// RegisterSpec installs a named configuration ("PV-8", "1K-11a", ...) so
// tools can enumerate and resolve the evaluation's standard setups.
// Duplicate names panic, like Register.
func RegisterSpec(name string, s Spec) {
	regMu.Lock()
	defer regMu.Unlock()
	if name == "" {
		panic("pv: RegisterSpec with empty name")
	}
	if _, dup := specs[name]; dup {
		panic(fmt.Sprintf("pv: named config %q registered twice", name))
	}
	specs[name] = s
}

// SpecNames lists the registered named configurations, sorted.
func SpecNames() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(specs))
	for n := range specs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SpecByName resolves a named configuration; unknown names error with the
// available alternatives.
func SpecByName(name string) (Spec, error) {
	regMu.RLock()
	s, ok := specs[name]
	regMu.RUnlock()
	if !ok {
		return Spec{}, fmt.Errorf("pv: unknown config %q (have %v)", name, SpecNames())
	}
	return s, nil
}
