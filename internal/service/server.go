package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"pvsim/internal/report"
	"pvsim/internal/sweep"
)

// Defaults for Options' zero values.
const (
	// DefaultWorkers bounds concurrent sweeps. Two keeps one long grid
	// from starving a short one while the engine's own Parallel bound
	// still governs simulation concurrency inside each sweep.
	DefaultWorkers = 2
	// DefaultQueueDepth is the admission-control bound: past it, submits
	// get 429 Retry-After instead of buffering without bound.
	DefaultQueueDepth = 16
	// DefaultMaxTracked bounds the in-memory sweep table exactly like the
	// old server's MaxTrackedSweeps: past it, the oldest finished sweeps
	// are dropped (queued and running sweeps never are). A dropped sweep
	// is still on disk if a data dir is configured.
	DefaultMaxTracked = 64
)

// Options configure the service.
type Options struct {
	// Engine tunes the shared sweep engine (Parallel, Log, ...).
	Engine sweep.Options
	// Workers bounds concurrently running sweeps: 0 means DefaultWorkers,
	// negative means none — the queue admits but nothing drains, used by
	// tests and drain tooling to observe queue state deterministically.
	Workers int
	// QueueDepth bounds the pending queue (admission control); 0 means
	// DefaultQueueDepth.
	QueueDepth int
	// DataDir, when non-empty, enables persistence: finished results
	// under DataDir/results (served across restarts without
	// re-simulation) and the pending queue in DataDir/queue.json on
	// graceful shutdown.
	DataDir string
	// MaxStored bounds disk-retained results; 0 means DefaultMaxStored,
	// negative means unbounded.
	MaxStored int
	// MaxTracked bounds the in-memory sweep table; 0 means
	// DefaultMaxTracked.
	MaxTracked int
	// RatePerSec, when positive, rate-limits sweep starts across the
	// worker pool (a sweep begins at most every 1/RatePerSec seconds).
	RatePerSec float64
	// ShardWorkers lists shard-worker base URLs ("http://host:port") to
	// split each sweep's jobs across. Workers can also join a running
	// coordinator via POST /workers (`pvsim shard -join`). With no
	// healthy workers registered, a sweep is one shard run in-process on
	// the shared engine, the last rung of the dispatch ladder.
	ShardWorkers []string
	// ShardTimeout bounds one shard dispatch round trip; 0 means
	// DefaultShardTimeout. Past it the worker is marked dead and its
	// range re-dispatched.
	ShardTimeout time.Duration
	// Log, when non-nil, receives service progress lines.
	Log func(format string, args ...interface{})
}

// sweepRun is the tracked state of one submitted grid.
type sweepRun struct {
	ID       string `json:"id"`
	Seq      uint64 `json:"seq"`
	Priority int    `json:"priority"`
	Status   string `json:"status"` // "queued", "running", "done", "error", "cancelled"
	Done     int    `json:"done"`
	Total    int    `json:"total"`
	Error    string `json:"error,omitempty"`
	// Position is the queue position (0 = next), filled in on status
	// responses while the sweep is queued and absent otherwise. It is a
	// pointer because position 0 — "you're next" — is real data:
	// omitempty on a plain int would erase it from the JSON, making
	// next-in-line indistinguishable from not-queued.
	Position *int `json:"position,omitempty"`
	// Source is "disk" when the result was restored from the store
	// instead of simulated by this process — the restart path's
	// observable.
	Source string `json:"source,omitempty"`

	grid            sweep.Grid
	result          *sweep.Result
	resultJSON      []byte
	feed            *feed
	cancel          context.CancelFunc // non-nil while running
	cancelRequested bool
}

// Server is the sweep service behind `pvsim serve`.
//
//	POST   /sweeps              submit a grid (?priority=N) -> 202 queued,
//	                            200 dedup/disk hit, 429 queue full,
//	                            413 body over maxRequestBody
//	GET    /sweeps              list sweeps in submission (seq) order
//	GET    /sweeps/{id}         status + progress + queue position
//	DELETE /sweeps/{id}         cancel a queued or running sweep
//	GET    /sweeps/{id}/result  finished result (?format=json|text|md|csv)
//	GET    /sweeps/{id}/stream  stream rows (?format=json|ndjson|sse)
//	POST   /workers             register a shard worker ({"url": ...})
//	GET    /workers             list registered shard workers + health
type Server struct {
	opts       Options
	engine     *sweep.Engine
	queue      *Queue
	store      *Store // nil without a data dir
	dispatcher *dispatcher
	mux        *http.ServeMux

	mu     sync.Mutex
	sweeps map[string]*sweepRun
	seq    uint64

	rateMu    sync.Mutex
	nextStart time.Time

	workers int
	wg      sync.WaitGroup
}

// New builds and starts the service: restores any persisted queue from
// the data dir, then launches the worker pool.
func New(opts Options) (*Server, error) {
	workers := opts.Workers
	if workers == 0 {
		workers = DefaultWorkers
	}
	if workers < 0 {
		workers = 0
	}
	depth := opts.QueueDepth
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	s := &Server{
		opts:       opts,
		engine:     sweep.New(opts.Engine),
		queue:      NewQueue(depth),
		dispatcher: newDispatcher(opts.ShardWorkers, opts.ShardTimeout, opts.Log),
		mux:        http.NewServeMux(),
		sweeps:     map[string]*sweepRun{},
		workers:    workers,
	}
	if opts.DataDir != "" {
		store, err := NewStore(filepath.Join(opts.DataDir, "results"), opts.MaxStored)
		if err != nil {
			return nil, err
		}
		s.store = store
		if err := s.restoreQueue(); err != nil {
			return nil, err
		}
	}
	s.mux.HandleFunc("POST /sweeps", s.handleSubmit)
	s.mux.HandleFunc("GET /sweeps", s.handleList)
	s.mux.HandleFunc("GET /sweeps/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /sweeps/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /sweeps/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /sweeps/{id}/stream", s.handleStream)
	s.mux.HandleFunc("POST /workers", s.handleWorkers)
	s.mux.HandleFunc("GET /workers", s.handleWorkers)
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Engine exposes the shared engine (tests assert pool state through it).
func (s *Server) Engine() *sweep.Engine { return s.engine }

func (s *Server) logf(format string, args ...interface{}) {
	if s.opts.Log != nil {
		s.opts.Log(format, args...)
	}
}

func (s *Server) maxTracked() int {
	if s.opts.MaxTracked > 0 {
		return s.opts.MaxTracked
	}
	return DefaultMaxTracked
}

func (s *Server) queueFile() string { return filepath.Join(s.opts.DataDir, "queue.json") }

// restoreQueue re-admits the pending sweeps a previous process persisted
// on shutdown, preserving their seq and priority so drain order survives
// the restart. The file is consumed: a crash before the next shutdown
// cannot double-admit.
func (s *Server) restoreQueue() error {
	f, err := os.Open(s.queueFile())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	items, err := LoadPending(f)
	f.Close()
	if err != nil {
		return err
	}
	for _, p := range items {
		run, err := s.newQueuedRun(p)
		if err != nil {
			s.logf("serve: dropping persisted sweep %s: %v", p.ID, err)
			continue
		}
		s.queue.pushForce(p)
		s.sweeps[p.ID] = run
		if p.Seq >= s.seq {
			s.seq = p.Seq + 1
		}
	}
	if err := os.Remove(s.queueFile()); err != nil {
		return err
	}
	s.logf("serve: restored %d queued sweeps from %s", len(items), s.queueFile())
	return nil
}

// pushForce admits an item past the depth bound — only for restoring a
// persisted queue, which a previous process already admitted.
func (q *Queue) pushForce(p Pending) {
	q.mu.Lock()
	q.items = append(q.items, p)
	q.cond.Signal()
	q.mu.Unlock()
}

// newQueuedRun builds the tracked state for one admitted grid. The grid
// is expanded exactly once — Grid.Plan derives the simulation total and
// the precomputed stream header from a single expansion — so admission
// costs O(jobs) once, not once per derived number.
func (s *Server) newQueuedRun(p Pending) (*sweepRun, error) {
	plan, err := p.Grid.Plan()
	if err != nil {
		return nil, err
	}
	return &sweepRun{
		ID: p.ID, Seq: p.Seq, Priority: p.Priority, Status: "queued",
		Total: plan.TotalSims, grid: p.Grid, feed: feedFromPlan(plan),
	}, nil
}

// worker drains the queue until Close: the worker-pool controller that
// replaces the old unbounded go-per-submit execution. Drain order is the
// queue's deterministic (priority desc, seq asc) order; concurrency is
// bounded by the worker count; the optional rate limiter spaces sweep
// starts.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		p, ok := s.queue.Pop()
		if !ok {
			return
		}
		s.rateWait()
		s.execute(p)
	}
}

// rateWait blocks until this worker may start its next sweep under the
// configured start rate. Slots are handed out in arrival order under the
// rate mutex, so the limiter never bursts past RatePerSec.
func (s *Server) rateWait() {
	if s.opts.RatePerSec <= 0 {
		return
	}
	interval := time.Duration(float64(time.Second) / s.opts.RatePerSec)
	s.rateMu.Lock()
	now := time.Now()
	start := s.nextStart
	if start.Before(now) {
		start = now
	}
	s.nextStart = start.Add(interval)
	s.rateMu.Unlock()
	time.Sleep(time.Until(start))
}

// execute runs one queued sweep as a list of shards, streaming rows into
// its feed and publishing the result to the tracked state and the disk
// store. Cancelled sweeps publish nothing: no result, no store write.
func (s *Server) execute(p Pending) {
	s.mu.Lock()
	run := s.sweeps[p.ID]
	if run == nil || run.Status != "queued" {
		// Cancelled (or evicted) between Pop and here: drop without running.
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	if run.cancelRequested {
		run.Status, run.Error = "cancelled", "cancelled"
		run.feed.finish("cancelled")
		s.mu.Unlock()
		cancel()
		return
	}
	run.Status = "running"
	run.cancel = cancel
	f, grid := run.feed, run.grid
	s.mu.Unlock()

	s.logf("serve: sweep %s starting (%d sims)", p.ID, run.Total)
	progress := func(done, total int) {
		s.mu.Lock()
		run.Done, run.Total = done, total
		s.mu.Unlock()
	}
	// Every sweep is a list of shards, one per healthy worker; with none,
	// the single shard runs on the local engine. Where the simulations
	// run changes neither the bytes nor the stream order nor the Total.
	res, err := s.runSharded(ctx, grid, max(1, s.dispatcher.healthy()), progress, f.append)
	cancel()

	var resJSON []byte
	if err == nil {
		resJSON, err = res.JSON()
	}
	// Persist before publishing "done": a client that sees a sweep done
	// and restarts the server finds the result on disk.
	if err == nil && s.store != nil {
		if perr := s.store.Put(p.ID, resJSON); perr != nil {
			s.logf("serve: persisting sweep %s: %v", p.ID, perr)
		}
	}

	s.mu.Lock()
	run.cancel = nil
	switch {
	case errors.Is(err, context.Canceled):
		run.Status, run.Error = "cancelled", "cancelled"
		f.finish("cancelled")
	case err != nil:
		run.Status, run.Error = "error", err.Error()
		f.finish(err.Error())
	default:
		run.Status, run.result, run.resultJSON = "done", res, resJSON
		run.Done = run.Total
		f.finish("")
	}
	s.mu.Unlock()
	s.logf("serve: sweep %s %s", p.ID, run.Status)
}

// Close gracefully shuts the service down: workers stop picking up new
// sweeps and finish the one they are running; if ctx expires first, the
// in-flight sweeps are cancelled (their already-dispatched simulations
// finish — a simulation has no preemption point — but they publish no
// result) and re-queued for the next process. The still-pending queue,
// including any interrupted sweeps, is persisted to the data dir.
func (s *Server) Close(ctx context.Context) error {
	s.queue.Close()
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	var interrupted []Pending
	select {
	case <-drained:
	case <-ctx.Done():
		s.mu.Lock()
		for _, run := range s.sweeps {
			if run.Status == "running" || run.Status == "queued" {
				run.cancelRequested = true
				if run.cancel != nil {
					run.cancel()
				}
				if run.Status == "running" {
					interrupted = append(interrupted, Pending{ID: run.ID, Seq: run.Seq, Priority: run.Priority, Grid: run.grid})
				}
			}
		}
		s.mu.Unlock()
		<-drained
	}
	return s.persistQueue(interrupted)
}

// persistQueue writes the undrained queue (plus any sweeps interrupted by
// a shutdown deadline) to the data dir, atomically and durably. With no
// data dir the queue state is simply dropped, like any purely in-memory
// server.
func (s *Server) persistQueue(interrupted []Pending) error {
	if s.opts.DataDir == "" {
		return nil
	}
	items := append(s.queue.Snapshot(), interrupted...)
	sortPending(items)
	if len(items) == 0 {
		if err := os.Remove(s.queueFile()); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
		return nil
	}
	b, err := json.MarshalIndent(items, "", "  ")
	if err != nil {
		return fmt.Errorf("service: encoding queue: %w", err)
	}
	if err := writeDurable(s.queueFile(), append(b, '\n')); err != nil {
		return err
	}
	s.logf("serve: persisted %d queued sweeps to %s", len(items), s.queueFile())
	return nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	g, err := sweep.DecodeGrid(bytes.NewReader(body))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := g.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	priority := 0
	if pq := r.URL.Query().Get("priority"); pq != "" {
		priority, err = strconv.Atoi(pq)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad priority %q: must be an integer", pq))
			return
		}
	}

	id := g.Hash()
	s.mu.Lock()
	// Dedup: one grid, one sweep — whatever state it is in. A cancelled
	// sweep is resubmittable: it drops through to re-admission.
	if run, known := s.sweeps[id]; known && run.Status != "cancelled" {
		snapshot := *run
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, snapshot)
		return
	}
	// Disk hit: a previous process finished this grid; serve it without
	// re-simulating.
	if run, ok := s.restoreResultLocked(id); ok {
		snapshot := *run
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, snapshot)
		return
	}
	s.mu.Unlock()

	// Build the tracked run outside the critical section: it expands the
	// grid (O(jobs) work), which must not block every concurrent
	// status/list/stream request behind the service mutex.
	run, err := s.newQueuedRun(Pending{ID: id, Priority: priority, Grid: g})
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	s.mu.Lock()
	// Re-check the dedup: a concurrent identical submit may have been
	// admitted while the lock was released; exactly one may win.
	if other, known := s.sweeps[id]; known && other.Status != "cancelled" {
		snapshot := *other
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, snapshot)
		return
	}
	// Admission control: bounded queue, 429 + Retry-After when full.
	p := Pending{ID: id, Seq: s.seq, Priority: priority, Grid: g}
	run.Seq = p.Seq
	if err := s.queue.Push(p); err != nil {
		qlen := s.queue.Len()
		s.mu.Unlock()
		if errors.Is(err, ErrQueueFull) {
			// Retry-After is a heuristic: roughly one second per queued
			// sweep ahead of the caller, per worker.
			retry := 1 + qlen
			if s.workers > 1 {
				retry = 1 + qlen/s.workers
			}
			if retry > 60 {
				retry = 60
			}
			w.Header().Set("Retry-After", strconv.Itoa(retry))
			httpError(w, http.StatusTooManyRequests, fmt.Sprintf("queue full (%d pending); retry later", qlen))
			return
		}
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	s.seq++
	s.sweeps[id] = run
	s.evictFinishedLocked()
	snapshot := *run
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, snapshot)
}

// restoreResultLocked loads a finished sweep from the disk store into the
// tracked table, tagged Source "disk". The caller holds s.mu.
func (s *Server) restoreResultLocked(id string) (*sweepRun, bool) {
	if s.store == nil {
		return nil, false
	}
	b, ok := s.store.Get(id)
	if !ok {
		return nil, false
	}
	var res sweep.Result
	if err := json.Unmarshal(b, &res); err != nil {
		s.logf("serve: corrupt stored result %s: %v", id, err)
		return nil, false
	}
	// The file must be the grid it is filed under: a result stored under
	// another grid's id is re-simulated, never served as this grid's.
	if res.Hash != id || res.Grid.Hash() != id {
		s.logf("serve: stored result %s holds grid %s (hash field %s); re-simulating", id, res.Grid.Hash(), res.Hash)
		return nil, false
	}
	// One expansion covers both the feed header and the simulation total.
	// The total is the same jobs+baselines count the live-run path
	// reports (not res.Jobs, which excludes baseline runs), so Done/Total
	// of a disk-restored sweep agrees with what the original run showed.
	plan, err := res.Grid.Plan()
	if err != nil {
		s.logf("serve: stored result %s: %v", id, err)
		return nil, false
	}
	f := feedFromPlan(plan)
	f.rows = res.Rows
	f.done = true
	run := &sweepRun{
		ID: id, Seq: s.seq, Status: "done", Done: plan.TotalSims, Total: plan.TotalSims,
		Source: "disk", grid: res.Grid, result: &res, resultJSON: b, feed: f,
	}
	s.seq++
	s.sweeps[id] = run
	s.evictFinishedLocked()
	return run, true
}

// evictFinishedLocked drops the oldest finished sweeps (done, error or
// cancelled — never queued or running) past the tracked bound; the caller
// holds s.mu. Dropped results remain on disk if a store is configured.
func (s *Server) evictFinishedLocked() {
	for len(s.sweeps) > s.maxTracked() {
		oldestID := ""
		oldest := uint64(0)
		for id, run := range s.sweeps {
			switch run.Status {
			case "queued", "running":
				continue
			}
			if oldestID == "" || run.Seq < oldest {
				oldestID, oldest = id, run.Seq
			}
		}
		if oldestID == "" {
			return // everything live; nothing evictable
		}
		delete(s.sweeps, oldestID)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]sweepRun, 0, len(s.sweeps))
	for _, run := range s.sweeps {
		out = append(out, *run)
	}
	s.mu.Unlock()
	// Submission order, so operators see queue/arrival order — not hash
	// order. Queue positions come from one ranking pass, not a per-sweep
	// scan.
	positions := s.queue.Positions()
	for i := range out {
		if out[i].Status == "queued" {
			if pos, ok := positions[out[i].ID]; ok {
				pos := pos
				out[i].Position = &pos
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	writeJSON(w, http.StatusOK, map[string]interface{}{"sweeps": out})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	run, ok := s.lookup(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown sweep")
		return
	}
	if run.Status == "queued" {
		if pos := s.queue.Position(id); pos >= 0 {
			run.Position = &pos
		}
	}
	writeJSON(w, http.StatusOK, run)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	run, ok := s.sweeps[id]
	if !ok {
		s.mu.Unlock()
		httpError(w, http.StatusNotFound, "unknown sweep")
		return
	}
	switch run.Status {
	case "queued":
		s.queue.Remove(id)
		run.cancelRequested = true
		run.Status, run.Error = "cancelled", "cancelled"
		run.feed.finish("cancelled")
		snapshot := *run
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, snapshot)
	case "running":
		run.cancelRequested = true
		// execute sets run.cancel with Status "running" and clears both
		// together under s.mu, so a running sweep always has one.
		cancel := run.cancel
		snapshot := *run
		s.mu.Unlock()
		cancel()
		writeJSON(w, http.StatusOK, snapshot)
	default:
		snapshot := *run
		s.mu.Unlock()
		writeJSON(w, http.StatusConflict, snapshot)
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown sweep")
		return
	}
	switch run.Status {
	case "error":
		httpError(w, http.StatusInternalServerError, run.Error)
		return
	case "cancelled":
		httpError(w, http.StatusGone, "sweep cancelled")
		return
	case "done":
	default:
		httpError(w, http.StatusConflict, fmt.Sprintf("sweep still %s (%d/%d sims)", run.Status, run.Done, run.Total))
		return
	}

	res := run.result
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		// The stored canonical bytes, not a re-encoding: a disk-restored
		// result serves the exact bytes the original run produced.
		w.Header().Set("Content-Type", "application/json")
		w.Write(run.resultJSON)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, res.Doc().Text())
	case "md":
		w.Header().Set("Content-Type", "text/markdown; charset=utf-8")
		fmt.Fprint(w, res.Doc().Markdown())
	case "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		doc := res.Doc()
		for _, sec := range doc.Sections {
			if sec.Table != nil {
				fmt.Fprint(w, sec.Table.CSV())
			}
		}
	default:
		httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown format %q (want json|text|md|csv)", format))
	}
}

// lookup snapshots one sweep's state under the lock.
func (s *Server) lookup(id string) (sweepRun, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	run, ok := s.sweeps[id]
	if !ok {
		return sweepRun{}, false
	}
	return *run, true
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	b, err := report.EncodeJSON(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// maxRequestBody bounds the body of POST /sweeps and POST /shard. A grid
// or shard request is a few hundred bytes of JSON; a megabyte leaves room
// for any grid a sweep could run while keeping a broken or hostile client
// from making the server buffer unbounded input.
const maxRequestBody = 1 << 20

// readBody reads a request body of at most maxRequestBody bytes. On
// failure it answers the request itself — 413 for an oversized body, 400
// for a body that cannot be read — and reports false.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body too large: limit is %d bytes", maxRequestBody))
		return nil, false
	case err != nil:
		httpError(w, http.StatusBadRequest, fmt.Sprintf("reading request body: %v", err))
		return nil, false
	}
	return b, true
}
