package bench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"pvsim/internal/service"
	"pvsim/internal/sweep"
	"pvsim/internal/workloads"
)

// serve-local and serve-sharded: closed-loop clients over loopback against
// an in-process sweep service, the `pvsim serve` path; sharded, the service
// splits every sweep across two in-process shard workers.

// opTimeout fails an op that takes longer.
const opTimeout = 60 * time.Second

// spanHeader carries "<op> <span id>" from a traced client to the service
// middleware, so the server-side span joins the client's op.
const spanHeader = "X-Pvbench-Span"

type serveStack struct {
	env
	sharded bool
	names   []string // workload names, cycled by op
	perSim  uint64   // accesses per simulation

	client  *http.Client
	base    string // the service's URL
	svc     *service.Server
	front   *httpServer   // the service's listener
	workers []*httpServer // shard workers' listeners
	dataDir string

	// ops maps a traced sweep's grid hash to its op's root span, so a shard
	// request, which names only the grid, joins the op that submitted it.
	ops sync.Map // string -> spanRef
}

type spanRef struct{ op, id int }

func (d *serveStack) grid(seed uint64, workload string) sweep.Grid {
	return sweep.Grid{
		Specs:     []string{"PV-8", "1K-11a", "stride-PV-8"},
		Workloads: []string{workload},
		Seeds:     []uint64{seed},
		Scale:     d.scale(0.05),
	}
}

// sourceOp is the op whose grid op i submits: every fourth op from op 11
// on resubmits the grid of op i-6, a recent fresh op the service still
// holds, so it answers without simulating; every other op submits a grid
// of its own.
func sourceOp(i int) int {
	if i >= 8 && i%4 == 3 {
		return i - 6
	}
	return i
}

func startServe(e env, sharded bool) (_ stack, err error) {
	d := &serveStack{
		env:     e,
		sharded: sharded,
		names:   workloads.Names(),
		client:  &http.Client{Timeout: opTimeout, Transport: &http.Transport{MaxIdleConnsPerHost: e.clients}},
	}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	jobs, err := d.grid(0, d.names[0]).Jobs()
	if err != nil {
		return nil, err
	}
	d.perSim = simAccesses(jobs[0].Config)
	if d.dataDir, err = os.MkdirTemp(e.dir, "serve-"); err != nil {
		return nil, err
	}
	var urls []string
	if sharded {
		for k := 0; k < 2; k++ {
			srv, err := listen(d.traceShard(service.NewShardWorker(sweep.Options{}, nil)))
			if err != nil {
				return nil, err
			}
			d.workers = append(d.workers, srv)
			urls = append(urls, srv.url)
		}
	}
	if d.svc, err = service.New(service.Options{DataDir: d.dataDir, ShardWorkers: urls}); err != nil {
		return nil, err
	}
	if d.front, err = listen(d.traceService(d.svc)); err != nil {
		return nil, err
	}
	d.base = d.front.url

	// One warm-up sweep per client, concurrently.
	errs := make([]error, e.clients)
	var wg sync.WaitGroup
	for c := 0; c < e.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = d.sweep(-1, d.grid(e.warmSeed(c), d.names[c%len(d.names)]), false).err
		}(c)
	}
	wg.Wait()
	return d, errors.Join(errs...)
}

func (d *serveStack) op(i int) opResult {
	src := sourceOp(i)
	r := d.sweep(i, d.grid(d.seed+uint64(src), d.names[src%len(d.names)]), src != i)
	r.source = src
	return r
}

// sweep submits g, streams it to the end, and fetches its result. A repeat
// must be answered from the earlier sweep of the same grid.
func (d *serveStack) sweep(i int, g sweep.Grid, repeat bool) opResult {
	var r opResult
	plan, err := g.Plan()
	if err != nil {
		r.err = err
		return r
	}
	body, err := json.Marshal(g)
	if err != nil {
		r.err = err
		return r
	}
	root := d.rec.Begin("op", i, -1)
	defer d.rec.End(root)
	if root >= 0 && !repeat {
		d.ops.Store(g.Hash(), spanRef{i, root})
	}

	t0 := time.Now()
	sp := d.rec.Begin("http.submit", i, root)
	req, err := http.NewRequest(http.MethodPost, d.base+"/sweeps", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	if sp >= 0 {
		req.Header.Set(spanHeader, fmt.Sprintf("%d %d", i, sp))
	}
	status, err := d.do(req, nil)
	d.rec.End(sp)
	if err != nil {
		r.err = fmt.Errorf("submit: %w", err)
		return r
	}
	want := http.StatusAccepted
	if repeat {
		want = http.StatusOK // answered from the sweep already known
	}
	if status.code != want {
		r.err = fmt.Errorf("submit answered %d, want %d", status.code, want)
		return r
	}
	id := g.Hash()
	if status.ID != id {
		r.err = fmt.Errorf("submit answered id %q, want %q", status.ID, id)
		return r
	}

	sp = d.rec.Begin("http.stream", i, root)
	var stream []byte
	_, err = d.get("/sweeps/"+id+"/stream?format=json", func(body io.Reader) error {
		var buf bytes.Buffer
		chunk := make([]byte, 32<<10)
		for {
			n, err := body.Read(chunk)
			buf.Write(chunk[:n])
			if r.firstRow == 0 && buf.Len() > len(plan.Header) {
				r.firstRow = time.Since(t0)
			}
			if err == io.EOF {
				stream = buf.Bytes()
				return nil
			}
			if err != nil {
				return err
			}
		}
	})
	r.lat = time.Since(t0)
	d.rec.End(sp)
	if err != nil {
		r.err = fmt.Errorf("stream: %w", err)
		return r
	}

	sp = d.rec.Begin("http.result", i, root)
	var result []byte
	_, err = d.get("/sweeps/"+id+"/result", func(body io.Reader) (err error) {
		result, err = io.ReadAll(body)
		return err
	})
	d.rec.End(sp)
	switch {
	case err != nil:
		r.err = fmt.Errorf("result: %w", err)
	case !bytes.Equal(stream, result):
		r.err = fmt.Errorf("streamed %d bytes differ from the %d-byte result", len(stream), len(result))
	case !bytes.HasPrefix(result, plan.Header):
		r.err = errors.New("result does not open with the grid's stream header")
	}
	if r.err != nil {
		return r
	}
	r.digest = sha256.Sum256(result)
	if repeat {
		r.counts.cacheHits = 1
		return r
	}
	r.accesses = uint64(plan.TotalSims) * d.perSim
	r.counts = counts{accesses: r.accesses, planned: uint64(plan.TotalSims)}
	if i < 0 || i >= d.prefix {
		return r
	}
	// The exact counts of the prefix ops come from the rows and from the
	// sweep's status, whose total is the simulations the service ran.
	var rows sweep.Result
	if err := json.Unmarshal(result, &rows); err != nil {
		r.err = fmt.Errorf("decoding result: %w", err)
		return r
	}
	for _, row := range rows.Rows {
		r.counts.addRow(row)
	}
	st, err := d.get("/sweeps/"+id, nil)
	if err != nil {
		r.err = fmt.Errorf("status: %w", err)
		return r
	}
	r.counts.executed = uint64(st.Total)
	return r
}

// sweepStatus is the part of the service's sweep status the benchmark reads.
type sweepStatus struct {
	code  int
	ID    string `json:"id"`
	Total int    `json:"total"`
}

// get fetches a path of the service's API, like do.
func (d *serveStack) get(path string, read func(io.Reader) error) (sweepStatus, error) {
	req, err := http.NewRequest(http.MethodGet, d.base+path, nil)
	if err != nil {
		return sweepStatus{}, err
	}
	return d.do(req, read)
}

// do sends req and hands a 2xx body to read, or decodes it as a status when
// read is nil. Any other answer is an error.
func (d *serveStack) do(req *http.Request, read func(io.Reader) error) (sweepStatus, error) {
	resp, err := d.client.Do(req)
	if err != nil {
		return sweepStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return sweepStatus{}, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	st := sweepStatus{code: resp.StatusCode}
	if read != nil {
		return st, read(resp.Body)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// traceService wraps the service so a traced client's submit gets a
// server-side span.
func (d *serveStack) traceService(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, parent, ok := parseSpanHeader(r.Header.Get(spanHeader))
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		sp := d.rec.Begin("service.submit", op, parent)
		h.ServeHTTP(w, r)
		d.rec.End(sp)
	})
}

func parseSpanHeader(v string) (op, parent int, ok bool) {
	a, b, found := strings.Cut(v, " ")
	if !found {
		return 0, 0, false
	}
	op, err1 := strconv.Atoi(a)
	parent, err2 := strconv.Atoi(b)
	return op, parent, err1 == nil && err2 == nil
}

// traceShard wraps a shard worker so that, traced, each shard request gets
// a worker-side span under the op whose grid it runs.
func (d *serveStack) traceShard(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if d.rec == nil || r.URL.Path != "/shard" {
			h.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		op, parent := -1, -1
		var req service.ShardRequest
		if json.Unmarshal(body, &req) == nil {
			if v, ok := d.ops.Load(req.Grid.Hash()); ok {
				ref := v.(spanRef)
				op, parent = ref.op, ref.id
			}
		}
		sp := d.rec.Begin("shard.request", op, parent)
		h.ServeHTTP(w, r)
		d.rec.End(sp)
	})
}

// close shuts the stack down in dependency order. Sharded, every worker
// must still be healthy: a failed dispatch would have fallen back to the
// local engine and hidden the failure from the ops.
func (d *serveStack) close() error {
	var errs []error
	d.client.CloseIdleConnections()
	if d.sharded && d.front != nil {
		var ws struct {
			Workers []service.WorkerStatus `json:"workers"`
		}
		if _, err := d.get("/workers", func(body io.Reader) error { return json.NewDecoder(body).Decode(&ws) }); err != nil {
			errs = append(errs, fmt.Errorf("listing shard workers: %w", err))
		}
		for _, w := range ws.Workers {
			if !w.Healthy {
				errs = append(errs, fmt.Errorf("shard worker %s was marked dead", w.URL))
			}
		}
		d.client.CloseIdleConnections()
	}
	if d.front != nil {
		errs = append(errs, d.front.close())
	}
	if d.svc != nil {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		errs = append(errs, d.svc.Close(ctx))
		cancel()
	}
	for _, w := range d.workers {
		errs = append(errs, w.close())
	}
	if d.dataDir != "" {
		errs = append(errs, os.RemoveAll(d.dataDir))
	}
	return errors.Join(errs...)
}

// httpServer is one loopback listener serving a handler.
type httpServer struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns ErrServerClosed once close shuts it down
	}()
	return s, nil
}

// close stops accepting, waits for in-flight requests, and returns once
// the serving goroutine has exited.
func (s *httpServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.done
	return err
}
