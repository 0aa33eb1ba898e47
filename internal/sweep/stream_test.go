package sweep

import (
	"bytes"
	"context"
	"testing"
)

// frameSweep runs g through RunRows collecting the framed stream — header,
// one StreamRow chunk per sink delivery, footer — exactly like the serve
// streaming endpoint does.
func frameSweep(t *testing.T, parallel int, g Grid) (streamed []byte, res *Result) {
	t.Helper()
	header, jobs, err := StreamHeader(g)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.Write(header)
	i := 0
	res, err = New(Options{Parallel: parallel}).RunRows(context.Background(), g, nil, func(row Row) {
		chunk, err := StreamRow(row, i)
		if err != nil {
			t.Error(err)
		}
		buf.Write(chunk)
		i++
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != jobs {
		t.Fatalf("sink received %d rows, StreamHeader promised %d", i, jobs)
	}
	buf.Write(StreamFooter(jobs))
	return buf.Bytes(), res
}

// TestStreamFramingByteIdentical is the streaming spec: the concatenation
// of header + per-row chunks + footer must be byte-identical to the
// finished Result's JSON — the exact bytes `pvsim sweep -format json`
// prints — at parallelism 1 and 8 (the acceptance pin).
func TestStreamFramingByteIdentical(t *testing.T) {
	g := testGrid()
	for _, parallel := range []int{1, 8} {
		streamed, res := frameSweep(t, parallel, g)
		want, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(streamed, want) {
			t.Fatalf("parallel=%d: streamed concatenation differs from serial report:\n--- streamed ---\n%s\n--- serial ---\n%s",
				parallel, streamed, want)
		}
	}
	// And across parallelism: the p=1 and p=8 streams are themselves
	// byte-identical (both equal the serial report, transitively, but pin
	// it directly).
	s1, _ := frameSweep(t, 1, g)
	s8, _ := frameSweep(t, 8, g)
	if !bytes.Equal(s1, s8) {
		t.Fatal("streamed bytes differ between parallelism 1 and 8")
	}
}

// TestRunRowsSinkOrder pins the ordered-release contract: the sink sees
// every row, in expansion order, whatever order the pool completes them.
func TestRunRowsSinkOrder(t *testing.T) {
	g := testGrid()
	var seen []int
	res, err := New(Options{Parallel: 8}).RunRows(context.Background(), g, nil, func(row Row) {
		seen = append(seen, row.Job)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(res.Rows) {
		t.Fatalf("sink received %d rows, result has %d", len(seen), len(res.Rows))
	}
	for i, job := range seen {
		if job != i {
			t.Fatalf("sink order %v: row %d delivered out of expansion order", seen, job)
		}
	}
}

// TestStreamRowEscaping pins that the framing encoder matches the report
// encoder's escaping (no HTML escaping): a mix-spec workload label with
// characters encoding/json would escape by default must frame identically.
func TestStreamRowEscaping(t *testing.T) {
	row := Row{Job: 0, Workload: "DB2@500+Apache@500", Spec: "PV-8", Label: "<&>"}
	chunk, err := StreamRow(row, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(chunk, []byte(`\u003c`)) || !bytes.Contains(chunk, []byte(`"<&>"`)) {
		t.Fatalf("StreamRow HTML-escaped where the report encoder would not:\n%s", chunk)
	}
	line, err := RowLine(row)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(line, []byte(`\u003c`)) || !bytes.Contains(line, []byte(`"<&>"`)) {
		t.Fatalf("RowLine HTML-escaped where the report encoder would not:\n%s", line)
	}
	if n := bytes.Count(line, []byte("\n")); n != 1 || line[len(line)-1] != '\n' {
		t.Fatalf("RowLine is not a single newline-terminated line:\n%q", line)
	}
}

// cancelOnFirstChoice is a Scheduler that cancels the engine's run — by
// public id — at its first scheduling decision, then picks transitions
// first-enabled-first. It makes Engine.Cancel deterministic to test: the
// sequenced wave observes the cancellation at the next pickup.
type cancelOnFirstChoice struct {
	e      *Engine
	id     string
	called bool
}

func (c *cancelOnFirstChoice) Choose(n int, label func(i int) string) int {
	if !c.called {
		c.called = true
		if !c.e.Cancel(c.id) {
			panic("Cancel found no running sweep to cancel")
		}
	}
	return 0
}

// TestEngineCancelByID pins cancel-by-id: cancelling a running sweep by
// its grid hash aborts it with context.Canceled and publishes nothing,
// and the id is untracked afterwards (a second Cancel reports no run).
func TestEngineCancelByID(t *testing.T) {
	g := Grid{Specs: []string{"none", "16-11a"}, Workloads: []string{"Apache"}, Seeds: []uint64{42}, Scale: testScale}
	e := New(Options{Parallel: 2})
	e.opts.Sched = &cancelOnFirstChoice{e: e, id: g.Hash()}
	calls := 0
	res, err := e.RunRows(context.Background(), g, func(done, total int) { calls++ }, nil)
	if err != context.Canceled {
		t.Fatalf("cancelled-by-id run returned %v, want context.Canceled", err)
	}
	if res != nil || calls != 0 {
		t.Fatalf("cancelled-by-id run published: res=%v progress=%d", res, calls)
	}
	if e.Cancel(g.Hash()) {
		t.Error("finished run still tracked: Cancel found a handle after RunRows returned")
	}
	// The engine stays usable: the same grid re-runs to completion.
	e.opts.Sched = nil
	if _, err := e.Run(context.Background(), g, nil); err != nil {
		t.Fatalf("engine unusable after cancel-by-id: %v", err)
	}
}

// TestRunRowsStreamsBeforeDone pins streaming on the one run body: at
// Parallel 1 the baselines run first and row i reaches the sink right
// after job i simulates, so the first row arrives long before progress
// reaches its total rather than in one burst at the end.
func TestRunRowsStreamsBeforeDone(t *testing.T) {
	g := Grid{Specs: []string{"none", "16-11a", "PV-8"}, Workloads: []string{"Apache"}, Seeds: []uint64{42}, Scale: testScale}
	done, total := 0, 0
	var rowAt []int
	res, err := New(Options{Parallel: 1}).RunRows(context.Background(), g, func(d, tot int) {
		done, total = d, tot
	}, func(row Row) {
		rowAt = append(rowAt, done)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 3 {
		t.Fatalf("grid has %d jobs, want at least 3", len(res.Rows))
	}
	if done != total {
		t.Fatalf("progress ended at %d/%d", done, total)
	}
	baselines := total - len(res.Rows)
	for i, at := range rowAt {
		if at != baselines+i {
			t.Fatalf("rows reached the sink at progress %v of %d, want row i at %d+i", rowAt, total, baselines)
		}
	}
}

// TestReleaserOrder pins the shared release buffer: rows put out of order,
// singly or in runs, leave for the sink as one expansion-order sequence,
// and the Result refuses to assemble while a row is missing.
func TestReleaserOrder(t *testing.T) {
	rows := func(from, to int) []Row {
		var out []Row
		for i := from; i < to; i++ {
			out = append(out, Row{Job: i})
		}
		return out
	}
	var seen []int
	rel := NewReleaser(0, 6, func(r Row) { seen = append(seen, r.Job) })
	rel.Put(rows(3, 5)...)
	rel.Put(rows(1, 2)...)
	if len(seen) != 0 {
		t.Fatalf("released %v before row 0 arrived", seen)
	}
	rel.Put(rows(0, 1)...)
	if len(seen) != 2 {
		t.Fatalf("released %v after rows 0 and 1, want [0 1]", seen)
	}
	g := Grid{Specs: []string{"none"}}
	if _, err := rel.Result(g); err == nil {
		t.Error("Result assembled with rows 2 and 5 missing")
	}
	rel.Put(rows(5, 6)...)
	rel.Put(rows(2, 3)...)
	for i, job := range seen {
		if job != i {
			t.Fatalf("release order %v, want 0..5", seen)
		}
	}
	res, err := rel.Result(g)
	if err != nil || len(res.Rows) != 6 || res.Hash != g.Hash() {
		t.Fatalf("Result = %+v, %v; want 6 rows of grid %s", res, err, g.Hash())
	}

	// A shard's buffer is offset by its start index.
	seen = nil
	shard := NewReleaser(10, 2, func(r Row) { seen = append(seen, r.Job) })
	shard.Put(Row{Job: 11})
	shard.Put(Row{Job: 10})
	if len(seen) != 2 || seen[0] != 10 || seen[1] != 11 {
		t.Errorf("shard buffer released %v, want [10 11]", seen)
	}
}
