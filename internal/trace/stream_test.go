package trace

import "testing"

func TestTraceCompression(t *testing.T) {
	const n = 10_000
	ct, err := Compile(NewGenerator(testParams(), 7, 0), n, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	// Raw encoding would be 17B/access; delta encoding should do much better.
	perAccess := float64(ct.DataBytes()) / n
	if perAccess > 14 {
		t.Errorf("%.1f bytes/access; delta encoding ineffective", perAccess)
	}
}

func TestSummarize(t *testing.T) {
	p := testParams()
	const n = 30_000
	ct, err := Compile(NewGenerator(p, 42, 0), n, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(ct.Replayer())
	if s.Accesses != n {
		t.Errorf("Accesses = %d", s.Accesses)
	}
	if s.Writes == 0 || s.Writes > n/2 {
		t.Errorf("Writes = %d implausible", s.Writes)
	}
	if s.DistinctBlocks == 0 || s.Regions == 0 || s.DistinctPCs == 0 {
		t.Errorf("summary = %+v", s)
	}
	if s.Regions > s.DistinctBlocks {
		t.Error("more regions than blocks")
	}
}

func TestGeneratorImplementsStream(t *testing.T) {
	var _ Stream = NewGenerator(testParams(), 1, 0)
}
