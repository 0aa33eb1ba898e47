package trace

import (
	"fmt"
	"math"
	"math/bits"

	"pvsim/internal/memsys"
)

// Access is one memory operation of the synthetic program.
type Access struct {
	PC    memsys.Addr // PC of the memory instruction
	Addr  memsys.Addr // effective byte address
	Write bool
}

// Params shapes one workload's access stream. The fields map one-to-one to
// the behaviours the paper's workloads differ in: how many distinct trigger
// contexts exist (PHT working set), how stable and dense spatial patterns
// are (coverage ceiling), how much of the stream is one-off noise
// (uncoverable misses, PV lookup traffic), and how the footprint relates to
// cache capacity (baseline miss rates).
type Params struct {
	Name string

	// BlockBytes / RegionBlocks fix the spatial geometry; they must match
	// the SMS configuration (64B x 32 by default).
	BlockBytes   int
	RegionBlocks int

	// NumPCs is the number of distinct triggering PCs; with one trigger
	// offset per PC this is the PHT key working set.
	NumPCs int
	// PCZipf skews PC reuse (0 = uniform).
	PCZipf float64

	// RegionPool is the number of distinct spatial regions per core
	// (footprint = RegionPool x region bytes); RegionZipf skews reuse.
	RegionPool int
	RegionZipf float64

	// PatternDensity is the mean fraction of a region's blocks accessed in
	// a generation; PatternNoise is the per-block flip probability between
	// generations of the same PC (pattern instability).
	PatternDensity float64
	PatternNoise   float64

	// NoiseFrac is the probability that a region visit (episode) is a
	// one-off single-block touch of a never-reused region: an uncoverable
	// miss that still triggers a PHT lookup. Because noise visits are much
	// shorter than pattern episodes, the *miss share* of noise is roughly
	// NoiseFrac / (NoiseFrac + (1-NoiseFrac)*blocksPerEpisode); values
	// around 0.8 yield the 30-50% uncovered fractions commercial workloads
	// show in Figure 4.
	NoiseFrac float64

	// BlockRepeat is the mean number of consecutive accesses to each block
	// of an episode (word-level reuse of a cache line); per block the
	// actual count is uniform in [1, 2*BlockRepeat-1]. It sets the L1
	// temporal-hit rate and hence the baseline miss rate.
	BlockRepeat int

	// ActiveEpisodes is how many generations a core interleaves at once
	// (AGT pressure and access-stream mixing).
	ActiveEpisodes int

	// WriteFrac is the store fraction; SharedFrac is the fraction of the
	// region pool shared across cores, whose stores invalidate remote L1
	// copies; SharedWriteFrac is the store fraction inside shared regions.
	WriteFrac       float64
	SharedFrac      float64
	SharedWriteFrac float64

	// MemRatio is memory instructions per instruction (CPI accounting);
	// MLP divides miss stalls (out-of-order overlap).
	MemRatio float64
	MLP      float64

	// TriggerSeed, when non-zero, decouples each PC's trigger offset from
	// the run seed: generators sharing a TriggerSeed trigger at identical
	// (PC, offset) PHT keys even when their run seeds — and therefore
	// their spatial patterns — differ. That models separate processes
	// running the same binary over different data, the §2.3 inter-process
	// interference scenario.
	TriggerSeed uint64
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.BlockBytes <= 0 || p.RegionBlocks <= 0 || p.RegionBlocks > 64 {
		return fmt.Errorf("trace %s: bad geometry block=%d region=%d", p.Name, p.BlockBytes, p.RegionBlocks)
	}
	if p.NumPCs <= 0 || p.RegionPool <= 0 || p.ActiveEpisodes <= 0 {
		return fmt.Errorf("trace %s: non-positive pool sizes", p.Name)
	}
	// Every float check below is written so NaN fails it, and the
	// unbounded fields must be finite: the generator turns probabilities
	// into integer thresholds (see bernoulli), exact only for values in
	// [0, 1], and builds Zipf tables from the exponents.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"PatternDensity", p.PatternDensity}, {"PatternNoise", p.PatternNoise},
		{"NoiseFrac", p.NoiseFrac}, {"WriteFrac", p.WriteFrac},
		{"SharedFrac", p.SharedFrac}, {"SharedWriteFrac", p.SharedWriteFrac},
	} {
		if !(f.v >= 0 && f.v <= 1) {
			return fmt.Errorf("trace %s: %s=%v outside [0,1]", p.Name, f.name, f.v)
		}
	}
	if p.PatternDensity == 0 {
		return fmt.Errorf("trace %s: zero pattern density", p.Name)
	}
	if !(p.MemRatio > 0 && p.MemRatio <= 1) || !(p.MLP >= 1 && p.MLP <= math.MaxFloat64) {
		return fmt.Errorf("trace %s: MemRatio=%v MLP=%v", p.Name, p.MemRatio, p.MLP)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"PCZipf", p.PCZipf}, {"RegionZipf", p.RegionZipf}} {
		if !(f.v >= 0 && f.v <= math.MaxFloat64) {
			return fmt.Errorf("trace %s: %s=%v is not a finite non-negative exponent", p.Name, f.name, f.v)
		}
	}
	if p.BlockRepeat <= 0 {
		return fmt.Errorf("trace %s: BlockRepeat=%d must be positive", p.Name, p.BlockRepeat)
	}
	return nil
}

// Address-space layout. Disjoint windows keep application data, shared
// data, noise, instruction space and PVTables (which the simulator places
// below 4GB) from colliding.
const (
	pcBase      = 0x1_0000_0000   // instruction space
	noisePCBase = 0x2_0000_0000   // PCs of one-off noise accesses
	sharedBase  = 0x100_0000_0000 // shared data regions
	noiseBase   = 0x200_0000_0000 // one-off noise regions
	noiseSpace  = 1 << 22         // distinct noise regions per core
)

func privateBase(c int) memsys.Addr { return memsys.Addr(c+0x10) << 36 }

// episode is one in-progress spatial generation.
type episode struct {
	pc    memsys.Addr
	base  memsys.Addr
	order []int // block offsets in access order; order[0] is the trigger
	pos   int
	reps  int // remaining accesses to the current block
	first bool
	// writeThr is the Bernoulli threshold of a store: SharedWriteFrac's in
	// a shared region, WriteFrac's elsewhere.
	writeThr uint64
}

// Generator produces one core's access stream.
//
// Its draws keep the per-access path short and free of unpredictable
// branches: the RNG is held by value and Next works on a local copy, each
// Bernoulli draw compares raw bits with a threshold precomputed from
// Params (see bernoulli), giving exactly RNG.Bool's outcomes, and each
// episode carries the store threshold of its region.
type Generator struct {
	p           Params
	core        int
	seed        uint64
	rng         RNG
	pcZipf      *Zipf
	regionZipf  *Zipf
	episodes    []episode
	sharedCount int
	regionBytes memsys.Addr
	offMask     uint64
	blockShift  uint

	// Bernoulli thresholds of NoiseFrac, PatternNoise, WriteFrac and
	// SharedWriteFrac.
	noiseThr, flipThr, writeThr, sharedWriteThr uint64

	// Emitted counts some tests rely on.
	Emitted uint64
}

// NewGenerator builds core's stream for workload p under the given seed.
// The same (p, seed, core) always yields the same stream.
func NewGenerator(p Params, seed uint64, c int) *Generator {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	s := seed ^ uint64(c+1)*0x9e3779b97f4a7c15
	g := &Generator{
		p:           p,
		core:        c,
		seed:        seed,
		rng:         *NewRNG(SplitMix64(&s)),
		pcZipf:      NewZipf(p.NumPCs, p.PCZipf),
		regionZipf:  NewZipf(p.RegionPool, p.RegionZipf),
		sharedCount: int(float64(p.RegionPool) * p.SharedFrac),
		regionBytes: memsys.Addr(p.BlockBytes * p.RegionBlocks),
		offMask:     uint64(p.RegionBlocks - 1),
		blockShift:  uint(bits.TrailingZeros(uint(p.BlockBytes))),

		noiseThr:       bernoulli(p.NoiseFrac),
		flipThr:        bernoulli(p.PatternNoise),
		writeThr:       bernoulli(p.WriteFrac),
		sharedWriteThr: bernoulli(p.SharedWriteFrac),
	}
	g.episodes = make([]episode, p.ActiveEpisodes)
	for i := range g.episodes {
		g.episodes[i].order = make([]int, 0, p.RegionBlocks)
		g.refillEpisode(&g.episodes[i])
	}
	return g
}

// bernoulli returns the integer threshold of probability p in [0, 1]:
// r.Uint64()>>11 < bernoulli(p) exactly when r.Bool(p) would be true.
// Bool compares k/2^53 with p, where k = Uint64()>>11 < 2^53, and both
// k/2^53 and p*2^53 are exact in float64, so k/2^53 < p holds exactly
// when the integer k is below ceil(p*2^53).
func bernoulli(p float64) uint64 { return uint64(math.Ceil(p * (1 << 53))) }

// Params returns the workload parameters.
func (g *Generator) Params() Params { return g.p }

// pcAddr returns the instruction address of trigger PC index i. PCs are
// one instruction (4 bytes) apart, so distinct PCs map to distinct PHT key
// bits but alias for very large code footprints — as real code does.
func pcAddr(i int) memsys.Addr { return pcBase + memsys.Addr(i)*4 }

// canonicalPattern derives the stable spatial pattern of a PC: the trigger
// offset plus each other block with probability ~PatternDensity. Derivation
// is a pure function of (seed, pc index), so every generation of the same
// PC starts from the same canonical pattern.
func (g *Generator) canonicalPattern(pcIdx int) (trigger int, pat uint64) {
	h := g.seed ^ uint64(pcIdx)*0x8b72e9e38ae383c5
	v := SplitMix64(&h)
	trigger = int(v & g.offMask)
	if g.p.TriggerSeed != 0 {
		ht := g.p.TriggerSeed ^ uint64(pcIdx)*0x8b72e9e38ae383c5
		trigger = int(SplitMix64(&ht) & g.offMask)
	}
	// Per-PC density varies in [0.5x, 1.5x] of the workload mean.
	density := g.p.PatternDensity * (0.5 + float64(SplitMix64(&h)&0xFFFF)/0xFFFF)
	if density > 1 {
		density = 1
	}
	threshold := uint64(density * float64(1<<32))
	pat = 1 << uint(trigger)
	for b := 0; b < g.p.RegionBlocks; b++ {
		if b == trigger {
			continue
		}
		if SplitMix64(&h)&0xFFFFFFFF < threshold {
			pat |= 1 << uint(b)
		}
	}
	return trigger, pat
}

// refillEpisode opens a fresh region visit in the given slot, reusing the
// slot's access-order buffer so the steady state allocates nothing: with
// probability NoiseFrac a one-off single-block noise visit, otherwise a
// pattern generation with a PC, a pooled region, and the canonical pattern
// perturbed by PatternNoise.
func (g *Generator) refillEpisode(e *episode) {
	if g.rng.Uint64()>>11 < g.noiseThr {
		g.refillNoiseVisit(e)
		return
	}
	g.refillPatternEpisode(e)
}

// refillNoiseVisit touches one block of a (practically) never-reused region.
func (g *Generator) refillNoiseVisit(e *episode) {
	region := memsys.Addr(g.rng.Intn(noiseSpace))
	base := noiseBase + (memsys.Addr(g.core)<<33)*8 + region*g.regionBytes
	pc := memsys.Addr(noisePCBase) + memsys.Addr(g.rng.Intn(1<<16))*4
	*e = episode{
		pc:       pc,
		base:     base,
		order:    append(e.order[:0], g.rng.Intn(g.p.RegionBlocks)),
		first:    true,
		writeThr: g.writeThr,
	}
}

func (g *Generator) refillPatternEpisode(e *episode) {
	pcIdx := g.pcZipf.Sample(&g.rng)
	trigger, pat := g.canonicalPattern(pcIdx)

	// Perturb: flip non-trigger blocks with probability PatternNoise.
	for b := 0; b < g.p.RegionBlocks; b++ {
		if b != trigger && g.rng.Uint64()>>11 < g.flipThr {
			pat ^= 1 << uint(b)
		}
	}

	regionIdx := g.regionZipf.Sample(&g.rng)
	var base memsys.Addr
	writeThr := g.writeThr
	if regionIdx < g.sharedCount {
		base, writeThr = sharedBase+memsys.Addr(regionIdx)*g.regionBytes, g.sharedWriteThr
	} else {
		base = privateBase(g.core) + memsys.Addr(regionIdx-g.sharedCount)*g.regionBytes
	}

	// The trigger first, then the pattern's other blocks in ascending
	// order, walking the set bits.
	order := append(e.order[:0], trigger)
	for rest := pat &^ (1 << uint(trigger)); rest != 0; rest &= rest - 1 {
		order = append(order, bits.TrailingZeros64(rest))
	}
	*e = episode{pc: pcAddr(pcIdx), base: base, order: order, first: true, writeThr: writeThr}
}

// Next returns the next access of this core's stream. It draws from a
// local copy of the RNG, so no draw stores through g, and stores the copy
// back before an exhausted episode refills from g.rng.
func (g *Generator) Next() Access {
	g.Emitted++
	r := g.rng
	i := r.Intn(len(g.episodes))
	e := &g.episodes[i]
	if e.reps == 0 {
		e.reps = 1 + r.Intn(2*g.p.BlockRepeat-1)
	}
	off := e.order[e.pos]
	e.reps--

	a := Access{
		PC:    e.pc,
		Addr:  e.base + memsys.Addr(off<<g.blockShift) + memsys.Addr(r.Intn(g.p.BlockBytes)&^7),
		Write: !e.first && r.Uint64()>>11 < e.writeThr, // the trigger access is a read
	}
	g.rng = r
	e.first = false
	if e.reps == 0 {
		e.pos++
		if e.pos == len(e.order) {
			g.refillEpisode(e)
		}
	}
	return a
}
