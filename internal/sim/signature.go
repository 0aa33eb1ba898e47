package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"pvsim/internal/memsys"
	"pvsim/internal/trace"
	"pvsim/internal/workloads"
)

// Signature renders every behaviour-affecting field of the configuration
// into one canonical string: two configs whose signatures match simulate
// identically. It is the key under which experiments.Runner caches
// results and waits on a simulation in flight.
// Labels are family-owned and compress geometry; the raw spec fields
// disambiguate families whose labels overlap and carry the params map.
// Fields added after the first format are suffixes present only when they
// differ from their defaults, so older signatures stay byte-identical;
// TestSignatureCoversEveryField perturbs every field of Config and fails
// on one the signature misses.
func (c Config) Signature() string {
	return fmt.Sprintf("%s|%s|pred=%s/%d/%dx%d/%d/%v|seed=%d|w=%d|m=%d|t=%v|win=%d|l2=%d/%d/%d|mem=%d|oco=%v|shared=%v|cores=%d|prio=%v|banks=%d",
		c.Workload.Name, c.Prefetch.Label(),
		c.Prefetch.Name, c.Prefetch.Mode, c.Prefetch.Sets, c.Prefetch.Ways,
		c.Prefetch.PVCacheEntries, c.Prefetch.Params,
		c.Seed, c.Warmup, c.Measure,
		c.Timing, c.Windows,
		c.Hier.L2.SizeBytes, c.Hier.L2.TagLatency, c.Hier.L2.DataLatency,
		c.Hier.MemLatency, c.Prefetch.OnChipOnly, c.Prefetch.SharedTable,
		c.Hier.Cores, c.Hier.PrioritizeAppOverPV, c.Hier.L2Banks) + c.scenarioSig() + c.costSig() + c.hierSig() + c.paramsSig()
}

// hierSig renders the hierarchy fields the base format leaves out, each
// only where it differs from memsys.DefaultConfig. Cache names only label.
// Hier.PVRanges, Hier.OnChipOnlyPV and Hier.ModelBankContention are not
// keyed: a build derives them, and Validate rejects a caller-set value.
// Every Runner transition computes a signature, so this appends with
// strconv rather than formatting with fmt.
func (c Config) hierSig() string {
	h, d := c.Hier, memsys.DefaultConfig()
	b := make([]byte, 0, 96)
	for _, l1 := range [...]struct {
		key      string
		got, def memsys.CacheConfig
	}{{"l1i", h.L1I, d.L1I}, {"l1d", h.L1D, d.L1D}} {
		g := l1.got
		g.Name = l1.def.Name
		if g != l1.def {
			b = appendSig(b, l1.key, int64(g.SizeBytes), int64(g.Ways), int64(g.BlockBytes), int64(g.TagLatency), int64(g.DataLatency))
		}
	}
	if h.L2.Ways != d.L2.Ways || h.L2.BlockBytes != d.L2.BlockBytes {
		b = appendSig(b, "l2shape", int64(h.L2.Ways), int64(h.L2.BlockBytes))
	}
	if h.L1Latency != d.L1Latency {
		b = appendSig(b, "l1lat", int64(h.L1Latency))
	}
	if h.NextLineIPrefetch != d.NextLineIPrefetch {
		b = strconv.AppendBool(append(b, "|nlip="...), h.NextLineIPrefetch)
	}
	if h.BankServiceCycles != d.BankServiceCycles {
		b = appendSig(b, "banksvc", int64(h.BankServiceCycles))
	}
	if h.InclusiveL2 != d.InclusiveL2 {
		b = strconv.AppendBool(append(b, "|incl="...), h.InclusiveL2)
	}
	return string(b)
}

// appendSig appends one "|key=v1/v2/..." signature component.
func appendSig(b []byte, key string, vs ...int64) []byte {
	b = append(append(append(b, '|'), key...), '=')
	for i, v := range vs {
		if i > 0 {
			b = append(b, '/')
		}
		b = strconv.AppendInt(b, v, 10)
	}
	return b
}

// paramsSig renders a homogeneous run's trace parameters when they differ
// from the registered workload of the same name (a custom or edited
// workload), as phaseSig renders a mix phase's; a mix's Workload only
// labels it.
func (c Config) paramsSig() string {
	if len(c.Cores) > 0 {
		return ""
	}
	if p, ok := registeredParams[c.Workload.Name]; ok && p == c.Workload.Params {
		return ""
	}
	return "|params=" + phaseSig(trace.Phase{Params: c.Workload.Params})
}

// registeredParams maps each registered workload's name to its trace
// parameters; paramsSig reads it on every signature.
var registeredParams = func() map[string]trace.Params {
	m := map[string]trace.Params{}
	for _, w := range workloads.All() {
		m[w.Name] = w.Params
	}
	return m
}()

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
