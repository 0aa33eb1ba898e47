package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"strings"

	"pvsim/internal/trace"
)

// Signature renders every behaviour-affecting field of the configuration
// into one canonical string: two configs simulate identically if and only
// if their signatures match. It is the key under which experiments.Runner
// caches results, and its system pool resets a retained system in place
// only for the signature that system last ran. Labels are family-owned and
// compress geometry; the raw spec fields disambiguate families whose
// labels overlap and carry the params map.
func (c Config) Signature() string {
	return fmt.Sprintf("%s|%s|pred=%s/%d/%dx%d/%d/%v|seed=%d|w=%d|m=%d|t=%v|win=%d|l2=%d/%d/%d|mem=%d|oco=%v|shared=%v|cores=%d|prio=%v|banks=%d",
		c.Workload.Name, c.Prefetch.Label(),
		c.Prefetch.Name, c.Prefetch.Mode, c.Prefetch.Sets, c.Prefetch.Ways,
		c.Prefetch.PVCacheEntries, c.Prefetch.Params,
		c.Seed, c.Warmup, c.Measure,
		c.Timing, c.Windows,
		c.Hier.L2.SizeBytes, c.Hier.L2.TagLatency, c.Hier.L2.DataLatency,
		c.Hier.MemLatency, c.Prefetch.OnChipOnly, c.Prefetch.SharedTable,
		c.Hier.Cores, c.Hier.PrioritizeAppOverPV, c.Hier.L2Banks) + c.scenarioSig() + c.costSig()
}

// costSig renders the cost-model configuration into the signature: empty
// when disabled (keeping every pre-cost-model signature byte-identical),
// otherwise the full parameter set. The cost model never changes what is
// simulated, but it changes what a Result carries, and a cached Result
// must carry what its configuration asked for.
func (c Config) costSig() string {
	if !c.Cost.Enabled {
		return ""
	}
	return fmt.Sprintf("|cost=%+v", c.Cost.Params)
}

// scenarioSig renders the per-core trace assignment into the signature:
// empty for homogeneous runs (keeping their signatures byte-identical to
// before mixes existed), otherwise every core's phase list — each phase as
// its workload name, a digest of the *full* parameter set (two customized
// parameter sets sharing a name must not collide), and its length — plus
// the PhaseFlush switch.
func (c Config) scenarioSig() string {
	if len(c.Cores) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("|mix=")
	for i, ct := range c.Cores {
		if i > 0 {
			sb.WriteByte('/')
		}
		for j, ph := range ct.Phases {
			if j > 0 {
				sb.WriteByte('+')
			}
			sb.WriteString(phaseSig(ph))
		}
	}
	fmt.Fprintf(&sb, "|pflush=%v", c.PhaseFlush)
	return sb.String()
}

// phaseSig is one phase's signature component: name, parameter digest,
// length. The digest keeps the full 64 bits — Signature is a cache key, and
// a collision would silently return another simulation's result.
func phaseSig(ph trace.Phase) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", ph.Params)
	return fmt.Sprintf("%s#%016x@%d", ph.Params.Name, h.Sum64(), ph.Accesses)
}

// Hash is a short stable digest of Signature, suitable for machine-readable
// output (sweep result rows) and log lines where the full signature is too
// long.
func (c Config) Hash() string {
	sum := sha256.Sum256([]byte(c.Signature()))
	return hex.EncodeToString(sum[:8])
}
