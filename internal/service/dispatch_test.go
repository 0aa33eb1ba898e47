package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pvsim/internal/sweep"
)

func jsonDecode(b []byte, v interface{}) error { return json.Unmarshal(b, v) }
func jsonEncode(v interface{}) ([]byte, error) { return json.Marshal(v) }

// shardGrid is large enough (6 jobs, 2 baseline cells) that 3-way shard
// plans are non-trivial.
func shardGrid() sweep.Grid {
	return sweep.Grid{Specs: []string{"none", "16-11a", "PV-8"}, Workloads: []string{"Apache", "Qry1"}, Seeds: []uint64{42}, Scale: testScale}
}

// startShardWorker boots one worker process stand-in: a ShardWorker on an
// httptest listener, like `pvsim shard` without the process boundary.
func startShardWorker(t *testing.T) (*ShardWorker, *httptest.Server) {
	t.Helper()
	w := NewShardWorker(sweep.Options{Parallel: 2}, nil)
	ts := httptest.NewServer(w)
	t.Cleanup(ts.Close)
	return w, ts
}

func httpGetBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, b)
	}
	return b
}

// runAndFetch submits the grid, waits for completion, and returns the
// /result and /stream (framed json) bytes.
func runAndFetch(t *testing.T, ts *httptest.Server, g sweep.Grid) (result, stream []byte) {
	t.Helper()
	code, run, _ := postGrid(t, ts, g, "")
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", code)
	}
	pollStatus(t, ts, run.ID, "done")
	result = httpGetBody(t, ts.URL+"/sweeps/"+run.ID+"/result")
	stream = httpGetBody(t, ts.URL+"/sweeps/"+run.ID+"/stream")
	return result, stream
}

// deadURL is a worker address nothing listens on: a started-then-closed
// httptest server's URL, so connections are refused immediately.
func deadURL(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close()
	return url
}

// TestShardedServeByteIdentical is the service-layer tentpole pin: the
// /result and /stream bytes of a sweep sharded across 1, 2 or 3 remote
// workers equal the unsharded server's, byte for byte — sharding changes
// where simulations run and nothing a client can observe.
func TestShardedServeByteIdentical(t *testing.T) {
	g := shardGrid()
	_, serialTS := newTestServer(t, Options{Engine: sweep.Options{Parallel: 4}})
	wantResult, wantStream := runAndFetch(t, serialTS, g)

	for _, n := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			workers := make([]*ShardWorker, n)
			urls := make([]string, n)
			for i := range workers {
				w, wts := startShardWorker(t)
				workers[i], urls[i] = w, wts.URL
			}
			svc, ts := newTestServer(t, Options{Engine: sweep.Options{Parallel: 4}, ShardWorkers: urls})
			gotResult, gotStream := runAndFetch(t, ts, g)
			if !bytes.Equal(gotResult, wantResult) {
				t.Errorf("sharded /result differs from serial:\n--- sharded ---\n%s\n--- serial ---\n%s", gotResult, wantResult)
			}
			if !bytes.Equal(gotStream, wantStream) {
				t.Errorf("sharded /stream differs from serial:\n--- sharded ---\n%s\n--- serial ---\n%s", gotStream, wantStream)
			}
			// The coordinator simulated nothing: every shard ran remotely.
			if got := svc.Engine().RetainedSystems(); got != 0 {
				t.Errorf("coordinator engine retains %d systems; shards were meant to run on the workers", got)
			}
			remote := 0
			for _, w := range workers {
				remote += w.Engine().RetainedSystems()
			}
			if remote == 0 {
				t.Error("no worker engine retains systems; nothing ran remotely")
			}
		})
	}
}

// TestShardedDeadWorkerRedispatch kills one of two workers before the
// sweep starts (its URL refuses connections): the dispatcher must mark it
// dead on the failed dispatch, re-dispatch its range to the healthy
// worker, and still serve byte-identical output.
func TestShardedDeadWorkerRedispatch(t *testing.T) {
	g := shardGrid()
	_, serialTS := newTestServer(t, Options{Engine: sweep.Options{Parallel: 4}})
	wantResult, wantStream := runAndFetch(t, serialTS, g)

	dead := deadURL(t)
	live, liveTS := startShardWorker(t)
	svc, ts := newTestServer(t, Options{Engine: sweep.Options{Parallel: 4}, ShardWorkers: []string{dead, liveTS.URL}})
	gotResult, gotStream := runAndFetch(t, ts, g)
	if !bytes.Equal(gotResult, wantResult) {
		t.Error("result after dead-worker re-dispatch differs from serial run")
	}
	if !bytes.Equal(gotStream, wantStream) {
		t.Error("stream after dead-worker re-dispatch differs from serial run")
	}
	if got := svc.Engine().RetainedSystems(); got != 0 {
		t.Errorf("coordinator engine retains %d systems; the healthy worker should have absorbed the dead one's range", got)
	}
	if live.Engine().RetainedSystems() == 0 {
		t.Error("live worker engine retains nothing; the sweep did not run on it")
	}

	var status struct {
		Workers []WorkerStatus `json:"workers"`
	}
	if err := jsonDecode(httpGetBody(t, ts.URL+"/workers"), &status); err != nil {
		t.Fatal(err)
	}
	health := map[string]bool{}
	for _, w := range status.Workers {
		health[w.URL] = w.Healthy
	}
	if health[dead] {
		t.Errorf("dead worker %s still reported healthy", dead)
	}
	if !health[liveTS.URL] {
		t.Errorf("live worker %s reported unhealthy", liveTS.URL)
	}
}

// TestShardedAllWorkersDeadLocalFallback registers only dead workers: the
// retry ladder exhausts them and the ranges run on the coordinator's own
// engine, output still byte-identical.
func TestShardedAllWorkersDeadLocalFallback(t *testing.T) {
	g := shardGrid()
	_, serialTS := newTestServer(t, Options{Engine: sweep.Options{Parallel: 4}})
	wantResult, _ := runAndFetch(t, serialTS, g)

	svc, ts := newTestServer(t, Options{Engine: sweep.Options{Parallel: 4}, ShardWorkers: []string{deadURL(t), deadURL(t)}})
	gotResult, _ := runAndFetch(t, ts, g)
	if !bytes.Equal(gotResult, wantResult) {
		t.Error("local-fallback result differs from serial run")
	}
	if svc.Engine().RetainedSystems() == 0 {
		t.Error("coordinator engine retains nothing; the fallback did not run locally")
	}
}

// TestShardedFlakyWorkerRetry fronts a real worker with a proxy whose
// first /shard dispatch answers 500: the dispatcher must mark the flaky
// worker dead, re-dispatch its shard to the steady worker, and keep the
// output byte-identical — the fault-injection pin for the retry path.
func TestShardedFlakyWorkerRetry(t *testing.T) {
	g := shardGrid()
	_, serialTS := newTestServer(t, Options{Engine: sweep.Options{Parallel: 4}})
	wantResult, wantStream := runAndFetch(t, serialTS, g)

	inner := NewShardWorker(sweep.Options{Parallel: 2}, nil)
	var failed atomic.Bool
	flakyTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/shard") && failed.CompareAndSwap(false, true) {
			http.Error(w, "injected fault", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(flakyTS.Close)
	_, steadyTS := startShardWorker(t)

	_, ts := newTestServer(t, Options{Engine: sweep.Options{Parallel: 4}, ShardWorkers: []string{flakyTS.URL, steadyTS.URL}})
	gotResult, gotStream := runAndFetch(t, ts, g)
	if !failed.Load() {
		t.Fatal("fault was never injected; the test exercised nothing")
	}
	if !bytes.Equal(gotResult, wantResult) {
		t.Error("result after flaky-worker retry differs from serial run")
	}
	if !bytes.Equal(gotStream, wantStream) {
		t.Error("stream after flaky-worker retry differs from serial run")
	}

	var status struct {
		Workers []WorkerStatus `json:"workers"`
	}
	if err := jsonDecode(httpGetBody(t, ts.URL+"/workers"), &status); err != nil {
		t.Fatal(err)
	}
	for _, w := range status.Workers {
		if w.URL == flakyTS.URL && w.Healthy {
			t.Errorf("flaky worker %s still reported healthy after the injected fault", w.URL)
		}
	}
}

// TestWorkerJoin is the runtime-registration pin: a worker joining via
// POST /workers (the `pvsim shard -join` handshake) is listed, de-duped on
// re-join, and picks up the next sweep — which then runs remotely.
func TestWorkerJoin(t *testing.T) {
	worker, workerTS := startShardWorker(t)
	svc, ts := newTestServer(t, Options{Engine: sweep.Options{Parallel: 4}})

	var status struct {
		Workers []WorkerStatus `json:"workers"`
	}
	if err := jsonDecode(httpGetBody(t, ts.URL+"/workers"), &status); err != nil {
		t.Fatal(err)
	}
	if len(status.Workers) != 0 {
		t.Fatalf("fresh coordinator lists %d workers, want 0", len(status.Workers))
	}

	join := func() int {
		resp, err := http.Post(ts.URL+"/workers", "application/json", strings.NewReader(fmt.Sprintf("{\"url\": %q}", workerTS.URL)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if code := join(); code != http.StatusOK {
		t.Fatalf("join status %d, want 200", code)
	}
	if code := join(); code != http.StatusOK { // idempotent re-join
		t.Fatalf("re-join status %d, want 200", code)
	}
	if err := jsonDecode(httpGetBody(t, ts.URL+"/workers"), &status); err != nil {
		t.Fatal(err)
	}
	if len(status.Workers) != 1 || status.Workers[0].URL != workerTS.URL || !status.Workers[0].Healthy {
		t.Fatalf("after join+re-join, registry is %+v; want exactly one healthy %s", status.Workers, workerTS.URL)
	}

	resp, err := http.Post(ts.URL+"/workers", "application/json", strings.NewReader(`{"nope": true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad join body status %d, want 400", resp.StatusCode)
	}

	runAndFetch(t, ts, shardGrid())
	if got := svc.Engine().RetainedSystems(); got != 0 {
		t.Errorf("coordinator engine retains %d systems; the joined worker should have run the sweep", got)
	}
	if worker.Engine().RetainedSystems() == 0 {
		t.Error("joined worker engine retains nothing; the sweep did not run on it")
	}
}

// TestShardBodyTooLarge pins the POST /shard body bound on a worker: a
// body of exactly maxRequestBody bytes is decoded and validated (an
// unknown spec: 400), one byte more answers 413. The coordinator's
// POST /workers shares the bound.
func TestShardBodyTooLarge(t *testing.T) {
	_, ts := startShardWorker(t)
	const prefix = `{"grid":{"specs":["no-such-spec"]},"shard":{"start":0,"end":1}`
	if code, msg := postRaw(t, ts.URL+"/shard", paddedJSON(prefix, maxRequestBody)); code != http.StatusBadRequest {
		t.Errorf("body at the limit: status %d (%q), want 400", code, msg)
	}
	code, msg := postRaw(t, ts.URL+"/shard", paddedJSON(prefix, maxRequestBody+1))
	if code != http.StatusRequestEntityTooLarge || !strings.Contains(msg, "too large") {
		t.Errorf("body one byte over the limit: status %d (%q), want 413 naming the limit", code, msg)
	}

	_, coord := newTestServer(t, Options{Engine: sweep.Options{Parallel: 1}})
	if code, _ := postRaw(t, coord.URL+"/workers", paddedJSON(`{"url":"http://127.0.0.1:1"`, maxRequestBody+1)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("POST /workers one byte over the limit: status %d, want 413", code)
	}
}

// TestShardWorkerHandler pins the worker endpoint itself: liveness probe,
// request validation, and a good dispatch answering the exact partial the
// in-process engine produces.
func TestShardWorkerHandler(t *testing.T) {
	_, ts := startShardWorker(t)

	if got := string(httpGetBody(t, ts.URL+"/healthz")); got != "ok\n" {
		t.Errorf("healthz answered %q", got)
	}

	post := func(body string) (int, []byte) {
		resp, err := http.Post(ts.URL+"/shard", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	if code, _ := post("{not json"); code != http.StatusBadRequest {
		t.Errorf("garbage body status %d, want 400", code)
	}
	if code, _ := post(`{"grid": {"specs": ["no-such-spec"]}, "shard": {"start": 0, "end": 1}}`); code != http.StatusBadRequest {
		t.Errorf("invalid grid status %d, want 400", code)
	}

	g := smallGrid()
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	shards, err := sweep.PlanShards(jobs, 1)
	if err != nil {
		t.Fatal(err)
	}
	badReq, err := jsonEncode(ShardRequest{Grid: g, Shard: sweep.Shard{Start: 0, End: 999}})
	if err != nil {
		t.Fatal(err)
	}
	if code, body := post(string(badReq)); code != http.StatusBadRequest {
		t.Errorf("out-of-range shard status %d (%s), want 400", code, body)
	}

	goodReq, err := jsonEncode(ShardRequest{Grid: g, Shard: shards[0]})
	if err != nil {
		t.Fatal(err)
	}
	code, body := post(string(goodReq))
	if code != http.StatusOK {
		t.Fatalf("valid shard status %d: %s", code, body)
	}
	var p sweep.Partial
	if err := jsonDecode(body, &p); err != nil {
		t.Fatal(err)
	}
	if p.Hash != g.Hash() || p.Start != 0 || p.End != shards[0].End || len(p.Rows) != shards[0].End {
		t.Errorf("partial = {Hash:%s Start:%d End:%d rows:%d}, want the full range of %s", p.Hash, p.Start, p.End, len(p.Rows), g.Hash())
	}
}

// inflight sums the dispatcher's in-flight dispatch counts.
func inflight(d *dispatcher) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, w := range d.workers {
		n += w.inflight
	}
	return n
}

// TestDispatcherAcquireLeastLoaded pins the worker choice: the healthy,
// untried worker with the fewest in-flight dispatches wins, ties go to
// registration order, and release hands the slot back.
func TestDispatcherAcquireLeastLoaded(t *testing.T) {
	d := newDispatcher([]string{"a", "b", "c"}, 0, nil)
	url := func(w *shardWorker) string {
		if w == nil {
			return "<nil>"
		}
		return w.url
	}
	none := map[*shardWorker]bool{}
	var got []*shardWorker
	for i := 0; i < 4; i++ {
		got = append(got, d.acquire(none))
	}
	if s := url(got[0]) + url(got[1]) + url(got[2]) + url(got[3]); s != "abca" {
		t.Errorf("four acquires picked %s, want abca", s)
	}
	d.release(got[1]) // b drops back to 0 in flight
	if w := d.acquire(none); url(w) != "b" {
		t.Errorf("after releasing b, acquire picked %s, want b", url(w))
	}
	d.markDead(got[1])
	if w := d.acquire(map[*shardWorker]bool{got[0]: true}); url(w) != "c" {
		t.Errorf("with a tried and b dead, acquire picked %s, want c", url(w))
	}
	if w := d.acquire(map[*shardWorker]bool{got[0]: true, got[2]: true}); w != nil {
		t.Errorf("with every live worker tried, acquire picked %s, want none", url(w))
	}
	for _, w := range []*shardWorker{got[0], got[3], got[1], got[2], got[2]} {
		d.release(w)
	}
	if n := inflight(d); n != 0 {
		t.Errorf("%d dispatches still in flight after releasing all", n)
	}
}

// TestShardedConcurrentSweepsSpread submits two single-cell sweeps at once
// against two workers. Each grid plans one shard; least-loaded dispatch
// must send them to different workers (registration-order choice alone
// would send both to the first). The workers hold each shard until both
// have arrived, so the two dispatches are in flight together.
func TestShardedConcurrentSweepsSpread(t *testing.T) {
	var arrived sync.WaitGroup
	arrived.Add(2)
	allIn := make(chan struct{})
	go func() { arrived.Wait(); close(allIn) }()
	var hits atomic.Int32
	gate := func(inner http.Handler) *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/shard" && hits.Add(1) <= 2 {
				arrived.Done()
				select {
				case <-allIn:
				case <-time.After(20 * time.Second):
				}
			}
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	w0 := NewShardWorker(sweep.Options{Parallel: 2}, nil)
	w1 := NewShardWorker(sweep.Options{Parallel: 2}, nil)
	ts0, ts1 := gate(w0), gate(w1)

	svc, ts := newTestServer(t, Options{Engine: sweep.Options{Parallel: 2}, Workers: 2, ShardWorkers: []string{ts0.URL, ts1.URL}})
	g1 := smallGrid()
	g2 := smallGrid()
	g2.Workloads = []string{"Qry1"}
	var ids []string
	for _, g := range []sweep.Grid{g1, g2} {
		code, run, _ := postGrid(t, ts, g, "")
		if code != http.StatusAccepted {
			t.Fatalf("submit status %d, want 202", code)
		}
		ids = append(ids, run.ID)
	}
	for _, id := range ids {
		pollStatus(t, ts, id, "done")
	}
	if w0.Engine().RetainedSystems() == 0 || w1.Engine().RetainedSystems() == 0 {
		t.Errorf("worker engines retain %d and %d systems; want both sweeps' shards spread over both workers",
			w0.Engine().RetainedSystems(), w1.Engine().RetainedSystems())
	}
	if got := svc.Engine().RetainedSystems(); got != 0 {
		t.Errorf("coordinator engine retains %d systems; every shard was meant to run remotely", got)
	}
	if n := inflight(svc.dispatcher); n != 0 {
		t.Errorf("%d dispatches still counted in flight after both sweeps finished", n)
	}
}

// TestShardedInflightReleased pins the in-flight bookkeeping on the two
// non-success outcomes: a failed dispatch (a dead worker, its shard
// re-dispatched) and a cancelled sweep (a worker that never answers) both
// leave every count back at zero.
func TestShardedInflightReleased(t *testing.T) {
	t.Run("failed", func(t *testing.T) {
		_, liveTS := startShardWorker(t)
		svc, ts := newTestServer(t, Options{Engine: sweep.Options{Parallel: 2}, ShardWorkers: []string{deadURL(t), liveTS.URL}})
		runAndFetch(t, ts, shardGrid())
		if n := inflight(svc.dispatcher); n != 0 {
			t.Errorf("%d dispatches still counted in flight after a failed dispatch", n)
		}
	})
	t.Run("cancelled", func(t *testing.T) {
		arrived := make(chan struct{}, 1)
		hangTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// The server notices a client hang-up only once the body is read.
			io.Copy(io.Discard, r.Body)
			select {
			case arrived <- struct{}{}:
			default:
			}
			<-r.Context().Done()
		}))
		t.Cleanup(hangTS.Close)
		svc, ts := newTestServer(t, Options{Engine: sweep.Options{Parallel: 2}, ShardWorkers: []string{hangTS.URL}})
		_, run, _ := postGrid(t, ts, smallGrid(), "")
		select {
		case <-arrived:
		case <-time.After(30 * time.Second):
			t.Fatal("the shard never reached the worker")
		}
		if n := inflight(svc.dispatcher); n != 1 {
			t.Errorf("%d dispatches counted in flight while the shard hangs, want 1", n)
		}
		req, _ := http.NewRequest("DELETE", ts.URL+"/sweeps/"+run.ID, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		pollStatus(t, ts, run.ID, "cancelled")
		if n := inflight(svc.dispatcher); n != 0 {
			t.Errorf("%d dispatches still counted in flight after cancellation", n)
		}
	})
}

// TestShardedCancel cancels a running sweep whose two shards are in
// flight on two in-process shard workers. The per-sweep context is the
// one cancellation path: the sweep must end cancelled with no result
// stored or served, every worker's in-flight count must return to zero,
// both workers stay healthy, and the coordinator must not fall back to
// simulating anything itself.
func TestShardedCancel(t *testing.T) {
	arrived := make(chan struct{}, 2)
	// hold lets a shard request reach the worker only once the coordinator
	// has hung up on it, so both shards are in flight when the DELETE
	// lands and the worker's run sees its cancelled request context.
	hold := func(inner http.Handler) *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/shard" {
				// The server notices a client hang-up only once the body is read.
				body, _ := io.ReadAll(r.Body)
				r.Body = io.NopCloser(bytes.NewReader(body))
				arrived <- struct{}{}
				<-r.Context().Done()
			}
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	ts0 := hold(NewShardWorker(sweep.Options{Parallel: 2}, nil))
	ts1 := hold(NewShardWorker(sweep.Options{Parallel: 2}, nil))
	svc, ts := newTestServer(t, Options{Engine: sweep.Options{Parallel: 2}, DataDir: t.TempDir(), ShardWorkers: []string{ts0.URL, ts1.URL}})

	_, run, _ := postGrid(t, ts, shardGrid(), "")
	for i := 0; i < 2; i++ {
		select {
		case <-arrived:
		case <-time.After(30 * time.Second):
			t.Fatalf("%d of 2 shards reached a worker", i)
		}
	}
	if n := inflight(svc.dispatcher); n != 2 {
		t.Errorf("%d dispatches counted in flight while both shards are held, want 2", n)
	}
	req, _ := http.NewRequest("DELETE", ts.URL+"/sweeps/"+run.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel running: status %d, want 200", resp.StatusCode)
	}
	pollStatus(t, ts, run.ID, "cancelled")

	if _, ok := svc.store.Get(run.ID); ok {
		t.Error("cancelled sweep persisted a result to the disk store")
	}
	resp, err = http.Get(ts.URL + "/sweeps/" + run.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Errorf("cancelled result status %d, want 410", resp.StatusCode)
	}
	if n := inflight(svc.dispatcher); n != 0 {
		t.Errorf("%d dispatches still counted in flight after cancellation", n)
	}
	if n := svc.dispatcher.healthy(); n != 2 {
		t.Errorf("%d of 2 workers healthy after cancellation; a cancelled dispatch is not a dead worker", n)
	}
	if got := svc.Engine().RetainedSystems(); got != 0 {
		t.Errorf("coordinator engine retains %d systems; a cancelled sweep must not fall back to local simulation", got)
	}
}

// TestShardedWrongConfigRedispatch fronts a real worker with a proxy that
// rewrites one row's config hash: the partial is well-formed and answers
// the right range with the right job numbers, but its rows are not the
// coordinator's jobs. The dispatcher must reject it, mark the worker dead,
// re-dispatch the range, and still serve byte-identical output.
func TestShardedWrongConfigRedispatch(t *testing.T) {
	g := shardGrid()
	_, serialTS := newTestServer(t, Options{Engine: sweep.Options{Parallel: 4}})
	wantResult, wantStream := runAndFetch(t, serialTS, g)

	inner := NewShardWorker(sweep.Options{Parallel: 2}, nil)
	var lied atomic.Int32
	liarTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/shard" {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		var p sweep.Partial
		if err := jsonDecode(rec.Body.Bytes(), &p); err != nil || len(p.Rows) == 0 {
			http.Error(w, "proxy: undecodable partial", http.StatusBadGateway)
			return
		}
		p.Rows[len(p.Rows)-1].Config = "0123456789abcdef"
		lied.Add(1)
		writeJSON(w, http.StatusOK, p)
	}))
	t.Cleanup(liarTS.Close)
	_, steadyTS := startShardWorker(t)

	_, ts := newTestServer(t, Options{Engine: sweep.Options{Parallel: 4}, ShardWorkers: []string{liarTS.URL, steadyTS.URL}})
	gotResult, gotStream := runAndFetch(t, ts, g)
	if lied.Load() == 0 {
		t.Fatal("the proxy never answered a shard; the test exercised nothing")
	}
	if !bytes.Equal(gotResult, wantResult) {
		t.Error("result after a wrong-config partial differs from serial run")
	}
	if !bytes.Equal(gotStream, wantStream) {
		t.Error("stream after a wrong-config partial differs from serial run")
	}
	var status struct {
		Workers []WorkerStatus `json:"workers"`
	}
	if err := jsonDecode(httpGetBody(t, ts.URL+"/workers"), &status); err != nil {
		t.Fatal(err)
	}
	for _, w := range status.Workers {
		if w.URL == liarTS.URL && w.Healthy {
			t.Errorf("worker %s answered a wrong config and is still reported healthy", w.URL)
		}
	}
}

// TestShardedTotalMatchesUnsharded pins one Total definition: the same
// grid reports the same Total on a sharded server as on an unsharded one,
// from admission to completion, and both finish at Done == Total ==
// Plan.TotalSims. The grid's three cells over two workers split 2+1, so a
// plan cutting through a cell would count its baseline twice.
func TestShardedTotalMatchesUnsharded(t *testing.T) {
	g := sweep.Grid{Specs: []string{"none", "16-11a"}, Workloads: []string{"Apache", "Qry1", "DB2"}, Seeds: []uint64{42}, Scale: testScale}
	plan, err := g.Plan()
	if err != nil {
		t.Fatal(err)
	}
	_, w1 := startShardWorker(t)
	_, w2 := startShardWorker(t)
	for _, workers := range [][]string{nil, {w1.URL, w2.URL}} {
		_, ts := newTestServer(t, Options{Engine: sweep.Options{Parallel: 2}, ShardWorkers: workers})
		code, run, _ := postGrid(t, ts, g, "")
		if code != http.StatusAccepted {
			t.Fatalf("%d workers: submit status %d, want 202", len(workers), code)
		}
		if run.Total != plan.TotalSims {
			t.Errorf("%d workers: admitted with Total %d, want %d", len(workers), run.Total, plan.TotalSims)
		}
		final := pollStatus(t, ts, run.ID, "done")
		if final.Done != plan.TotalSims || final.Total != plan.TotalSims {
			t.Errorf("%d workers: finished at %d/%d, want %d/%d", len(workers), final.Done, final.Total, plan.TotalSims, plan.TotalSims)
		}
	}
}
