package service

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pvsim/internal/sweep"
)

// serialJSON is g's Result.JSON from a plain serial engine run: the bytes
// every served, sharded or streamed form of the sweep must reproduce.
func serialJSON(t *testing.T, g sweep.Grid) []byte {
	t.Helper()
	res, err := sweep.New(sweep.Options{Parallel: 1}).Run(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// execution is one observed runSharded call: every progress call, the
// progress count each row reached the sink at, and the framed stream.
type execution struct {
	mu       sync.Mutex // progress and rows arrive on different goroutines
	progress []int
	total    int
	rowAt    []int
	stream   bytes.Buffer
	result   []byte
}

// runObserved runs g the way Server.execute does — through runSharded
// with one shard per healthy worker, at least one — recording what the
// progress callback and the row sink see.
func runObserved(t *testing.T, svc *Server, g sweep.Grid) *execution {
	t.Helper()
	p, err := g.Plan()
	if err != nil {
		t.Fatal(err)
	}
	x := &execution{}
	x.stream.Write(p.Header)
	res, err := svc.runSharded(context.Background(), g, max(1, svc.dispatcher.healthy()), func(done, total int) {
		x.mu.Lock()
		defer x.mu.Unlock()
		x.progress = append(x.progress, done)
		x.total = total
	}, func(row sweep.Row) {
		x.mu.Lock()
		defer x.mu.Unlock()
		chunk, err := sweep.StreamRow(row, len(x.rowAt))
		if err != nil {
			t.Error(err)
		}
		x.stream.Write(chunk)
		done := 0
		if n := len(x.progress); n > 0 {
			done = x.progress[n-1]
		}
		x.rowAt = append(x.rowAt, done)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(x.rowAt) != p.Jobs {
		t.Fatalf("sink received %d rows, want %d", len(x.rowAt), p.Jobs)
	}
	x.stream.Write(sweep.StreamFooter(p.Jobs))
	if x.result, err = res.JSON(); err != nil {
		t.Fatal(err)
	}
	return x
}

// checkProgress asserts progress rose strictly on every call and ended at
// the grid's TotalSims.
func checkProgress(t *testing.T, x *execution, plan sweep.Plan) {
	t.Helper()
	for i := 1; i < len(x.progress); i++ {
		if x.progress[i] <= x.progress[i-1] {
			t.Fatalf("progress not strictly increasing: %v", x.progress)
		}
	}
	if n := len(x.progress); n == 0 || x.progress[n-1] != plan.TotalSims || x.total != plan.TotalSims {
		t.Errorf("progress %v of %d, want to end at TotalSims %d", x.progress, x.total, plan.TotalSims)
	}
}

// TestServedLocalSweepStreams pins the local rung: with no shard worker a
// served sweep is one shard on the coordinator's engine, and it keeps the
// in-process behaviour — progress counts every simulation up to
// TotalSims, baselines first, and at Parallel 1 row i reaches the sink
// right after job i simulates, long before progress reaches TotalSims.
func TestServedLocalSweepStreams(t *testing.T) {
	g := sweep.Grid{Specs: []string{"none", "16-11a", "PV-8"}, Workloads: []string{"Apache"}, Seeds: []uint64{42}, Scale: testScale}
	plan, err := g.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Jobs < 3 {
		t.Fatalf("grid has %d jobs, want at least 3", plan.Jobs)
	}
	svc, _ := newTestServer(t, Options{Engine: sweep.Options{Parallel: 1}, Workers: -1})
	x := runObserved(t, svc, g)
	checkProgress(t, x, plan)
	if len(x.progress) != plan.TotalSims {
		t.Errorf("%d progress calls, want one per simulation (%d)", len(x.progress), plan.TotalSims)
	}
	baselines := plan.TotalSims - plan.Jobs
	for i, at := range x.rowAt {
		if at != baselines+i {
			t.Fatalf("rows reached the sink at progress %v, want row i at %d+i: not streaming one simulation at a time", x.rowAt, baselines)
		}
	}
	want := serialJSON(t, g)
	if !bytes.Equal(x.stream.Bytes(), want) || !bytes.Equal(x.result, want) {
		t.Error("local served sweep differs from the serial run")
	}
}

// TestShardedLiveAndDeadWorkerProgress runs a two-cell grid over one live
// and one dead worker: the dead worker's shard is re-dispatched, progress
// still rises strictly to TotalSims, and the stream is the serial bytes.
func TestShardedLiveAndDeadWorkerProgress(t *testing.T) {
	g := shardGrid()
	plan, err := g.Plan()
	if err != nil {
		t.Fatal(err)
	}
	_, live := startShardWorker(t)
	svc, _ := newTestServer(t, Options{Engine: sweep.Options{Parallel: 2}, Workers: -1, ShardWorkers: []string{deadURL(t), live.URL}})
	x := runObserved(t, svc, g)
	checkProgress(t, x, plan)
	want := serialJSON(t, g)
	if !bytes.Equal(x.stream.Bytes(), want) || !bytes.Equal(x.result, want) {
		t.Error("sharded stream with a dead worker differs from the serial run")
	}
	if got := svc.dispatcher.healthy(); got != 1 {
		t.Errorf("%d healthy workers after the sweep, want 1 (the dead one marked)", got)
	}
}

// TestLocalExecutionExpandsOnce pins the execution cost of a served sweep
// with no shard worker: running it expands the grid once, the expansion
// the shard plan and the local rung share.
func TestLocalExecutionExpandsOnce(t *testing.T) {
	svc, ts := newTestServer(t, Options{Engine: sweep.Options{Parallel: 2}, Workers: -1})
	if code, _, _ := postGrid(t, ts, smallGrid(), ""); code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", code)
	}
	p, ok := svc.queue.Pop()
	if !ok {
		t.Fatal("queue empty after submit")
	}
	before := sweep.JobExpansions()
	svc.execute(p)
	if got := sweep.JobExpansions() - before; got > 1 {
		t.Errorf("executing one sweep performed %d grid expansions, want at most 1", got)
	}
	if run, _ := svc.lookup(p.ID); run.Status != "done" {
		t.Errorf("sweep finished %q, want done", run.Status)
	}
}

// TestHugeGridRejectedBeforeExpansion sends a grid listing 100k seeds —
// under the request body limit, far over sweep.MaxJobs — to both request
// endpoints: each answers 400 without expanding it.
func TestHugeGridRejectedBeforeExpansion(t *testing.T) {
	seeds := make([]uint64, 100_000)
	for i := range seeds {
		seeds[i] = uint64(i)
	}
	g := sweep.Grid{Specs: []string{"none"}, Workloads: []string{"Apache"}, Seeds: seeds, Scale: testScale}
	sweepBody, err := jsonEncode(g)
	if err != nil {
		t.Fatal(err)
	}
	shardBody, err := jsonEncode(ShardRequest{Grid: g, Shard: sweep.Shard{Start: 0, End: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(shardBody) > maxRequestBody {
		t.Fatalf("test body is %d bytes, over the %d-byte limit", len(shardBody), maxRequestBody)
	}
	_, ts := newTestServer(t, Options{Workers: -1})
	_, worker := startShardWorker(t)

	before := sweep.JobExpansions()
	for url, body := range map[string][]byte{ts.URL + "/sweeps": sweepBody, worker.URL + "/shard": shardBody} {
		code, msg := postRaw(t, url, string(body))
		if code != http.StatusBadRequest || !strings.Contains(msg, "jobs") {
			t.Errorf("POST %s: status %d (%s), want 400 naming the job limit", url, code, msg)
		}
	}
	if got := sweep.JobExpansions() - before; got != 0 {
		t.Errorf("rejecting the grid performed %d expansions", got)
	}
}

// TestStoredResultVerifiedOnLoad files one grid's valid result under
// another grid's id: submitting the second grid must not serve the first
// one's bytes from disk, but re-simulate and store the right result.
func TestStoredResultVerifiedOnLoad(t *testing.T) {
	dir := t.TempDir()
	a := smallGrid()
	b := smallGrid()
	b.Seeds = []uint64{7}
	if a.Hash() == b.Hash() {
		t.Fatal("test grids share a hash")
	}
	svc, ts := newTestServer(t, Options{Engine: sweep.Options{Parallel: 2}, DataDir: dir})
	_, run, _ := postGrid(t, ts, a, "")
	pollStatus(t, ts, run.ID, "done")
	aBytes, ok := svc.store.Get(a.Hash())
	if !ok {
		t.Fatal("grid A's result was not stored")
	}
	if err := os.WriteFile(filepath.Join(dir, "results", b.Hash()+".json"), aBytes, 0o644); err != nil {
		t.Fatal(err)
	}

	code, run, _ := postGrid(t, ts, b, "")
	if code != http.StatusAccepted || run.Source == "disk" {
		t.Fatalf("submitting B over A's misfiled result: status %d source %q, want 202 and a fresh run", code, run.Source)
	}
	pollStatus(t, ts, run.ID, "done")
	want := serialJSON(t, b)
	if got := httpGetBody(t, ts.URL+"/sweeps/"+run.ID+"/result"); !bytes.Equal(got, want) {
		t.Error("B's result is not B's serial run")
	}
	if stored, _ := svc.store.Get(b.Hash()); !bytes.Equal(stored, want) {
		t.Error("the store still holds the misfiled bytes under B's id")
	}
}
