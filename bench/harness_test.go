package bench

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct {
		p      float64
		v      float64
		beyond int
	}{
		{50, 5, 5},
		{90, 9, 1},
		{91, 10, 0},
		{100, 10, 0},
		{1, 1, 9},
		{0, 1, 9},
	} {
		v, beyond := Percentile(xs, c.p)
		if v != c.v || beyond != c.beyond {
			t.Errorf("p%v = %v with %d beyond, want %v with %d", c.p, v, beyond, c.v, c.beyond)
		}
	}
	if xs[0] != 10 {
		t.Error("Percentile sorted its input in place")
	}
	if v, beyond := Percentile(nil, 50); v != 0 || beyond != 0 {
		t.Errorf("empty p50 = %v, %d", v, beyond)
	}
}

func TestTailSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 90, true}, // rank 90, ten beyond
		{99, 90, false}, // rank 90, nine beyond
		{20, 50, true},
		{19, 50, false},
		{1000, 99, true},
		{0, 50, false},
	} {
		if got := TailSupported(c.n, c.p); got != c.want {
			t.Errorf("TailSupported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median = %v", m)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50},  // overlaps span 1: counted once
		{ID: 3, Parent: 0, Start: 90, End: 120}, // runs past its parent: clipped
		{ID: 4, Parent: 2, Start: 25, End: 35},  // a grandchild: only its parent's
		{ID: 5, Parent: -1, Start: 200, End: 260},
		{ID: 6, Parent: 5, Start: 150, End: 190}, // wholly outside: no effect
	}
	want := []time.Duration{100 - 40 - 10, 20, 30 - 10, 30, 10, 60, 40}
	got := SelfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestRecorder(t *testing.T) {
	var none *Recorder
	if id := none.Begin("op", 0, -1); id != -1 {
		t.Errorf("nil recorder Begin = %d", id)
	}
	none.End(0)
	if none.Spans() != nil {
		t.Error("nil recorder has spans")
	}

	r := NewRecorder()
	root := r.Begin("op", 7, -1)
	child := r.Add("sweep.plan", 7, root, r.t0.Add(time.Millisecond), r.t0.Add(3*time.Millisecond))
	r.End(root)
	spans := r.Spans()
	if len(spans) != 2 || spans[child].Parent != root || spans[child].Op != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[child].End-spans[child].Start != int64(2*time.Millisecond) {
		t.Errorf("added span lasts %d ns", spans[child].End-spans[child].Start)
	}
	if spans[root].End < spans[root].Start {
		t.Errorf("root span ends before it starts: %+v", spans[root])
	}
	path := t.TempDir() + "/spans.json"
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || !strings.Contains(string(b), `"name": "sweep.plan"`) {
		t.Errorf("spans.json = %s, %v", b, err)
	}
}

func TestParseTraces(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fold, err := ParseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	ms := time.Millisecond
	if fold.Total != 180*ms {
		t.Errorf("total = %v, want 180ms", fold.Total)
	}
	want := map[string]time.Duration{
		"sim":    10 * ms, // a map lookup charged to its caller
		"core":   40 * ms, // a generic type whose arguments name sms
		"sms":    20 * ms,
		"json":   10 * ms,
		"http":   10 * ms, // syscall and poll frames charged to net
		"memsys": 40 * ms,
		"gc":     20 * ms, // the background mark worker
		"other":  30 * ms, // the scheduler, and the harness's own frames
	}
	var sum time.Duration
	var shares float64
	for _, l := range Layers {
		if fold.Self[l] != want[l] {
			t.Errorf("%s = %v, want %v", l, fold.Self[l], want[l])
		}
		sum += fold.Self[l]
		shares += fold.Share(l)
	}
	if sum != fold.Total || math.Abs(shares-1) > 1e-12 {
		t.Errorf("layers sum to %v (shares %v), total %v", sum, shares, fold.Total)
	}
	if fold.Codec != 50*ms {
		t.Errorf("codec = %v, want 50ms", fold.Codec)
	}
	if fold.Maps["sim"] != 10*ms || fold.Maps["memsys"] != 40*ms || len(fold.Maps) != 2 {
		t.Errorf("maps = %v", fold.Maps)
	}
}

func TestParseTracesRejectsMalformed(t *testing.T) {
	for _, in := range []string{
		"-----------+---\n      tenms   main.main\n",
		"-----------+---\nmain.main\n",
	} {
		if _, err := ParseTraces(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
	if f, err := ParseTraces(strings.NewReader("File: x\n")); err != nil || f.Total != 0 || f.Share("sim") != 0 {
		t.Errorf("header only: %+v, %v", f, err)
	}
}

func TestFramePackage(t *testing.T) {
	for fn, want := range map[string]string{
		"pvsim/internal/memsys.(*Hierarchy).Data":                                  "pvsim/internal/memsys",
		"pvsim/internal/sms.SetCodec.UnpackInto":                                   "pvsim/internal/sms",
		"pvsim/internal/core.(*Proxy[go.shape.struct { X pvsim/internal/a.B }]).A": "pvsim/internal/core",
		"encoding/json.Marshal":                                                    "encoding/json",
		"runtime.mallocgc":                                                         "runtime",
		"main.main":                                                                "main",
		"type:.eq.[2]interface {}":                                                 "type:",
	} {
		if got := framePackage(fn); got != want {
			t.Errorf("framePackage(%q) = %q, want %q", fn, got, want)
		}
	}
}
