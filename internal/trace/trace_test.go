package trace

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(8)
	same := true
	a = NewRNG(7)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(5)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) hit %d values in 1000 draws", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

// TestIntnMatchesModulo pins Intn to Uint64() % n, for the power-of-two
// bounds that take the mask and for others, so every generated stream
// keeps its bytes.
func TestIntnMatchesModulo(t *testing.T) {
	for _, n := range []int{1, 2, 8, 15, 32, 64, 1000, 1 << 16, 1 << 22} {
		got, want := NewRNG(uint64(n)), NewRNG(uint64(n))
		for i := range 100_000 {
			if g, w := got.Intn(n), int(want.Uint64()%uint64(n)); g != w {
				t.Fatalf("Intn(%d) draw %d = %d, want %d", n, i, g, w)
			}
		}
	}
}

func TestRNGBoolProbability(t *testing.T) {
	r := NewRNG(11)
	n := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if r.Bool(0.3) {
			n++
		}
	}
	frac := float64(n) / trials
	if math.Abs(frac-0.3) > 0.02 {
		t.Errorf("Bool(0.3) fired %.3f of the time", frac)
	}
}

// TestBernoulliThreshold checks the generator's integer Bernoulli draw
// against RNG.Bool on the same stream, over 10^6 draws per p, and at the
// two raw values either side of each threshold, where a rounding error
// would show.
func TestBernoulliThreshold(t *testing.T) {
	for _, p := range []float64{0, 0x1p-53, 0.05, 0.79, 1 - 0x1p-53, 1} {
		thr := bernoulli(p)
		a, b := NewRNG(17), NewRNG(17)
		for i := range 1_000_000 {
			if got, want := a.Uint64()>>11 < thr, b.Bool(p); got != want {
				t.Fatalf("p=%v draw %d: threshold compare %v, Bool %v", p, i, got, want)
			}
		}
		for _, k := range []uint64{thr - 1, thr} {
			if k >= 1<<53 {
				continue
			}
			if got, want := k < thr, float64(k)/(1<<53) < p; got != want {
				t.Errorf("p=%v raw %d: threshold compare %v, Bool %v", p, k, got, want)
			}
		}
	}
}

func TestSplitMix64Deterministic(t *testing.T) {
	x1, x2 := uint64(99), uint64(99)
	if SplitMix64(&x1) != SplitMix64(&x2) {
		t.Fatal("SplitMix64 not deterministic")
	}
	if x1 != x2 {
		t.Fatal("state update differs")
	}
}

func TestZipfProbabilitiesSum(t *testing.T) {
	z := NewZipf(100, 0.8)
	sum := 0.0
	for i := 0; i < 100; i++ {
		sum += z.P(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %v", sum)
	}
	// Monotone: earlier ranks are at least as likely.
	for i := 1; i < 100; i++ {
		if z.P(i) > z.P(i-1)+1e-12 {
			t.Fatalf("P(%d)=%v > P(%d)=%v", i, z.P(i), i-1, z.P(i-1))
		}
	}
}

func TestZipfUniformWhenS0(t *testing.T) {
	z := NewZipf(10, 0)
	for i := 0; i < 10; i++ {
		if math.Abs(z.P(i)-0.1) > 1e-9 {
			t.Fatalf("P(%d) = %v, want 0.1", i, z.P(i))
		}
	}
}

func TestZipfSampleBoundsQuick(t *testing.T) {
	z := NewZipf(37, 0.9)
	r := NewRNG(1)
	fn := func(uint8) bool {
		v := z.Sample(r)
		return v >= 0 && v < 37
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfSkewConcentratesMass(t *testing.T) {
	flat, skew := NewZipf(1000, 0.2), NewZipf(1000, 1.2)
	r1, r2 := NewRNG(4), NewRNG(4)
	headFlat, headSkew := 0, 0
	for i := 0; i < 20000; i++ {
		if flat.Sample(r1) < 10 {
			headFlat++
		}
		if skew.Sample(r2) < 10 {
			headSkew++
		}
	}
	if headSkew <= headFlat {
		t.Errorf("skewed head hits %d <= flat head hits %d", headSkew, headFlat)
	}
}

func testParams() Params {
	return Params{
		Name: "test", BlockBytes: 64, RegionBlocks: 32,
		NumPCs: 100, PCZipf: 0.6,
		RegionPool: 512, RegionZipf: 0.5,
		PatternDensity: 0.3, PatternNoise: 0.05,
		NoiseFrac: 0.5, BlockRepeat: 4, ActiveEpisodes: 4,
		WriteFrac: 0.2, SharedFrac: 0.1, SharedWriteFrac: 0.3,
		MemRatio: 0.35, MLP: 4,
	}
}

func TestParamsValidate(t *testing.T) {
	if err := testParams().Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Params){
		func(p *Params) { p.BlockBytes = 0 },
		func(p *Params) { p.RegionBlocks = 128 },
		func(p *Params) { p.NumPCs = 0 },
		func(p *Params) { p.RegionPool = 0 },
		func(p *Params) { p.PatternDensity = 0 },
		func(p *Params) { p.PatternNoise = 1.5 },
		func(p *Params) { p.NoiseFrac = -0.1 },
		func(p *Params) { p.BlockRepeat = 0 },
		func(p *Params) { p.ActiveEpisodes = 0 },
		func(p *Params) { p.MemRatio = 0 },
		func(p *Params) { p.MLP = 0.5 },
		// NaN fails no plain range check, and the Bernoulli thresholds
		// and Zipf tables need finite values.
		func(p *Params) { p.PatternDensity = math.NaN() },
		func(p *Params) { p.PatternNoise = math.NaN() },
		func(p *Params) { p.NoiseFrac = math.NaN() },
		func(p *Params) { p.WriteFrac = math.NaN() },
		func(p *Params) { p.SharedFrac = math.NaN() },
		func(p *Params) { p.SharedWriteFrac = math.NaN() },
		func(p *Params) { p.MemRatio = math.NaN() },
		func(p *Params) { p.MLP = math.NaN() },
		func(p *Params) { p.MLP = math.Inf(1) },
		func(p *Params) { p.PCZipf = math.NaN() },
		func(p *Params) { p.PCZipf = math.Inf(1) },
		func(p *Params) { p.PCZipf = -0.5 },
		func(p *Params) { p.RegionZipf = math.NaN() },
		func(p *Params) { p.RegionZipf = math.Inf(1) },
		func(p *Params) { p.RegionZipf = -0.5 },
	}
	for i, m := range mutations {
		p := testParams()
		m(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	g1 := NewGenerator(testParams(), 42, 0)
	g2 := NewGenerator(testParams(), 42, 0)
	for i := 0; i < 5000; i++ {
		a, b := g1.Next(), g2.Next()
		if a != b {
			t.Fatalf("streams diverged at %d: %+v vs %+v", i, a, b)
		}
	}
}

func TestGeneratorPerCoreStreamsDiffer(t *testing.T) {
	g0 := NewGenerator(testParams(), 42, 0)
	g1 := NewGenerator(testParams(), 42, 1)
	same := 0
	for i := 0; i < 1000; i++ {
		if g0.Next().Addr == g1.Next().Addr {
			same++
		}
	}
	if same > 100 {
		t.Errorf("cores share %d/1000 addresses; streams too similar", same)
	}
}

func TestGeneratorAddressSpaces(t *testing.T) {
	p := testParams()
	g := NewGenerator(p, 1, 2)
	for i := 0; i < 20000; i++ {
		a := g.Next()
		switch {
		case a.Addr >= noiseBase: // noise region
		case a.Addr >= sharedBase && a.Addr < sharedBase+0x10_0000_0000: // shared
		case a.Addr >= privateBase(2) && a.Addr < privateBase(3): // private to core 2
		default:
			t.Fatalf("access %d at %#x outside expected windows", i, uint64(a.Addr))
		}
		if a.PC < pcBase {
			t.Fatalf("PC %#x below instruction space", uint64(a.PC))
		}
	}
}

func TestGeneratorTriggerIsRead(t *testing.T) {
	// First access of every episode must be a read (SMS triggers on the
	// first access; our generator models it as a load).
	p := testParams()
	p.WriteFrac = 1
	p.SharedWriteFrac = 1
	p.NoiseFrac = 0
	p.ActiveEpisodes = 1
	p.BlockRepeat = 1
	g := NewGenerator(p, 3, 0)
	regionOf := func(a Access) uint64 { return uint64(a.Addr) >> 11 }
	seen := map[uint64]bool{}
	for i := 0; i < 5000; i++ {
		a := g.Next()
		r := regionOf(a)
		if !seen[r] && a.Write {
			t.Fatalf("first access to region %#x is a write", r)
		}
		seen[r] = true
	}
}

func TestGeneratorNoiseShare(t *testing.T) {
	p := testParams()
	p.NoiseFrac = 0.8
	g := NewGenerator(p, 9, 0)
	noise := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if g.Next().Addr >= noiseBase {
			noise++
		}
	}
	// Noise visits are single-block; pattern episodes average ~10.6 blocks
	// (0.3 x 32 + trigger): expected access share ≈ .8/(.8+.2*10.6) ≈ 0.27.
	frac := float64(noise) / n
	if frac < 0.15 || frac > 0.40 {
		t.Errorf("noise access share = %.3f, want ~0.27", frac)
	}
}

func TestGeneratorBlockRepeatControlsDistinctBlocks(t *testing.T) {
	p := testParams()
	p.NoiseFrac = 0
	count := func(rep int) int {
		q := p
		q.BlockRepeat = rep
		g := NewGenerator(q, 5, 0)
		blocks := map[uint64]bool{}
		for i := 0; i < 20000; i++ {
			blocks[uint64(g.Next().Addr)>>6] = true
		}
		return len(blocks)
	}
	few, many := count(8), count(1)
	if few*2 > many {
		t.Errorf("BlockRepeat=8 touched %d blocks vs %d for repeat=1; want far fewer", few, many)
	}
}

func TestGeneratorCanonicalPatternStable(t *testing.T) {
	g := NewGenerator(testParams(), 42, 0)
	t1, p1 := g.canonicalPattern(17)
	t2, p2 := g.canonicalPattern(17)
	if t1 != t2 || p1 != p2 {
		t.Fatal("canonical pattern not stable")
	}
	if p1&(1<<uint(t1)) == 0 {
		t.Fatal("trigger bit not set in canonical pattern")
	}
}

func TestGeneratorSharedRegionsOverlapAcrossCores(t *testing.T) {
	p := testParams()
	p.SharedFrac = 0.5
	p.NoiseFrac = 0
	g0 := NewGenerator(p, 42, 0)
	g1 := NewGenerator(p, 42, 1)
	r0, r1 := map[uint64]bool{}, map[uint64]bool{}
	for i := 0; i < 20000; i++ {
		a0, a1 := g0.Next(), g1.Next()
		if a0.Addr >= sharedBase && a0.Addr < noiseBase {
			r0[uint64(a0.Addr)>>11] = true
		}
		if a1.Addr >= sharedBase && a1.Addr < noiseBase {
			r1[uint64(a1.Addr)>>11] = true
		}
	}
	common := 0
	for r := range r0 {
		if r1[r] {
			common++
		}
	}
	if common == 0 {
		t.Error("no shared regions touched by both cores")
	}
}

func TestTriggerSeedSharesKeysNotPatterns(t *testing.T) {
	p := testParams()
	p.TriggerSeed = 777
	a := NewGenerator(p, 1001, 0)
	b := NewGenerator(p, 2002, 0)
	sameTrigger, diffPattern := 0, 0
	for pc := 0; pc < 50; pc++ {
		ta, pa := a.canonicalPattern(pc)
		tb, pb := b.canonicalPattern(pc)
		if ta == tb {
			sameTrigger++
		}
		if pa != pb {
			diffPattern++
		}
	}
	if sameTrigger != 50 {
		t.Errorf("only %d/50 shared trigger offsets under a common TriggerSeed", sameTrigger)
	}
	if diffPattern < 40 {
		t.Errorf("only %d/50 patterns differ across seeds", diffPattern)
	}
}

func TestZeroTriggerSeedKeepsLegacyDerivation(t *testing.T) {
	p := testParams()
	a := NewGenerator(p, 42, 0)
	p2 := testParams()
	p2.TriggerSeed = 0
	b := NewGenerator(p2, 42, 0)
	for pc := 0; pc < 20; pc++ {
		ta, pa := a.canonicalPattern(pc)
		tb, pb := b.canonicalPattern(pc)
		if ta != tb || pa != pb {
			t.Fatal("zero TriggerSeed changed canonical derivation")
		}
	}
}
