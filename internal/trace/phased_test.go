package trace

import (
	"reflect"
	"testing"
)

// phasedTestParams returns two small valid parameter sets that generate
// visibly different streams.
func phasedTestParams() (Params, Params) {
	a := Params{
		Name: "A", BlockBytes: 64, RegionBlocks: 32,
		NumPCs: 64, PCZipf: 0.6, RegionPool: 256, RegionZipf: 0.8,
		PatternDensity: 0.3, PatternNoise: 0.05, NoiseFrac: 0.5,
		BlockRepeat: 4, ActiveEpisodes: 4,
		WriteFrac: 0.1, MemRatio: 0.3, MLP: 4,
	}
	b := a
	b.Name = "B"
	b.NumPCs = 200
	b.RegionPool = 1024
	b.PatternDensity = 0.5
	return a, b
}

// TestPhasedSinglePhaseMatchesGenerator pins the wrapper's bit-identity
// promise: a one-phase Phased emits exactly the bare Generator's stream,
// which is what makes homogeneous mixes reproduce single-workload results.
func TestPhasedSinglePhaseMatchesGenerator(t *testing.T) {
	a, _ := phasedTestParams()
	g := NewGenerator(a, 42, 1)
	p := NewPhased([]Phase{{Params: a}}, 42, 1)
	for i := 0; i < 5000; i++ {
		if got, want := p.Next(), g.Next(); got != want {
			t.Fatalf("access %d: phased %+v != generator %+v", i, got, want)
		}
	}
}

// TestPhasedSwitchesAndResumes checks the context-switch semantics: phases
// alternate at exact access-count boundaries, cycle after the last phase,
// and a resumed phase continues its own stream where it left off.
func TestPhasedSwitchesAndResumes(t *testing.T) {
	a, b := phasedTestParams()
	const na, nb = 137, 251
	p := NewPhased([]Phase{{Params: a, Accesses: na}, {Params: b, Accesses: nb}}, 7, 2)

	// Reference: two independent generators consumed in the same schedule.
	ga := NewGenerator(a, 7, 2)
	gb := NewGenerator(b, 7, 2)
	for round := 0; round < 6; round++ {
		for i := 0; i < na; i++ {
			if got := p.Phase(); got != 0 {
				t.Fatalf("round %d access %d of A: Phase() = %d", round, i, got)
			}
			if got, want := p.Next(), ga.Next(); got != want {
				t.Fatalf("round %d phase A access %d diverges", round, i)
			}
		}
		for i := 0; i < nb; i++ {
			if got := p.Phase(); got != 1 {
				t.Fatalf("round %d access %d of B: Phase() = %d", round, i, got)
			}
			if got, want := p.Next(), gb.Next(); got != want {
				t.Fatalf("round %d phase B access %d diverges", round, i)
			}
		}
	}
}

// TestPhasedEdgeHook pins when and with what the boundary hook fires: once
// per switch, before the first access of the next phase, cycling 1,0,1,0...
func TestPhasedEdgeHook(t *testing.T) {
	a, b := phasedTestParams()
	const n = 100
	p := NewPhased([]Phase{{Params: a, Accesses: n}, {Params: b, Accesses: n}}, 1, 0)
	var edges []int
	p.SetEdgeHook(func(next int) { edges = append(edges, next) })
	for i := 0; i < 5*n; i++ {
		p.Next()
	}
	if want := []int{1, 0, 1, 0}; !reflect.DeepEqual(edges, want) {
		t.Fatalf("edge hook fired with %v, want %v", edges, want)
	}
}

// TestPhasedDeterminism: two Phased streams built from the same phases,
// seed and core must produce the same accesses, phase positions included.
func TestPhasedDeterminism(t *testing.T) {
	a, b := phasedTestParams()
	phases := []Phase{{Params: a, Accesses: 100}, {Params: b, Accesses: 300}}
	p, fresh := NewPhased(phases, 42, 3), NewPhased(phases, 42, 3)
	for i := 0; i < 2000; i++ {
		if got, want := fresh.Next(), p.Next(); got != want {
			t.Fatalf("access %d from a second instance: %+v != %+v", i, got, want)
		}
	}
}

// TestPhasedStreamsDiffer makes the boundary test meaningful: the two
// parameter sets must actually generate different streams.
func TestPhasedStreamsDiffer(t *testing.T) {
	a, b := phasedTestParams()
	ga, gb := NewGenerator(a, 42, 0), NewGenerator(b, 42, 0)
	same := true
	for i := 0; i < 200; i++ {
		if ga.Next() != gb.Next() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("phase parameter sets A and B generate identical streams")
	}
}

func TestValidatePhases(t *testing.T) {
	a, b := phasedTestParams()
	bad := a
	bad.PatternDensity = 0
	for _, phases := range [][]Phase{
		nil,             // empty
		{{Params: bad}}, // invalid params
		{{Params: a, Accesses: 100}, {Params: b}},               // zero length in multi-phase
		{{Params: a, Accesses: 100}, {Params: b, Accesses: -1}}, // negative length
	} {
		if err := ValidatePhases(phases); err == nil {
			t.Errorf("phases %+v validated", phases)
		}
	}
	if err := ValidatePhases([]Phase{{Params: a}}); err != nil {
		t.Errorf("single never-ending phase rejected: %v", err)
	}
	if err := ValidatePhases([]Phase{{Params: a, Accesses: 1}, {Params: b, Accesses: 1}}); err != nil {
		t.Errorf("valid two-phase list rejected: %v", err)
	}
}
