// Package bench is the repository's benchmark: four workloads that drive
// the simulator, the sweep engine and the sweep service through their
// public entry points, time them from outside, and check their outputs.
// cmd/pvbench runs one workload per process; README.md lists the metrics.
package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// DefaultSeed is the seed whose output digests are pinned.
const DefaultSeed = 1

// setupTrials is how many times an untraced run sets its workload up; it
// reports the median.
const setupTrials = 5

// Options select one run.
type Options struct {
	Workload string
	Seed     uint64
	// Seconds is how long the run measures. A traced run alternates over it
	// between traced and untraced segments.
	Seconds float64
	Trace   bool
	// TraceDir receives a traced run's spans.json and one cpu-<k>.pprof per
	// traced segment, in a subdirectory named after the workload and seed.
	TraceDir string
	// Dir is the scratch directory for the service's data; empty means the
	// system's temporary directory.
	Dir string
	// Tiny shrinks every simulation to its smallest size, for tests of the
	// harness; its numbers measure nothing.
	Tiny bool
}

// Workloads lists the workload names in their documented order.
func Workloads() []string {
	names := make([]string, len(catalog))
	for i, w := range catalog {
		names[i] = w.name
	}
	return names
}

// Run executes one workload and reports its metrics: the end-to-end set
// untraced, the per-layer set traced.
func Run(opts Options) (*Result, error) {
	var w *workload
	for i := range catalog {
		if catalog[i].name == opts.Workload {
			w = &catalog[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("bench: unknown workload %q (want one of %v)", opts.Workload, Workloads())
	}
	dir, err := os.MkdirTemp(opts.Dir, "pvbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := env{seed: opts.Seed, tiny: opts.Tiny, dir: dir, clients: min(w.clients, runtime.NumCPU()), prefix: w.minOps}
	if opts.Tiny {
		e.prefix = w.tinyOps
	}
	if opts.Trace {
		return runTraced(w, e, opts)
	}
	return runUntraced(w, e, opts)
}

// runUntraced sets the workload up setupTrials times, then measures it.
// Every host time is scaled to the nominal host by a probe taken right
// after it (see probe.go).
func runUntraced(w *workload, e env, opts Options) (*Result, error) {
	probe, err := newHostProbe()
	if err != nil {
		return nil, err
	}
	defer probe.close()
	var setups []float64
	var d stack
	for t := 0; t < setupTrials; t++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if d, err = w.start(e); err != nil {
			return nil, fmt.Errorf("bench: setting up %s: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds()*probe.speed())
	}
	runtime.GC() // set-up garbage is not the ops' to collect
	ph := measure(e, d, opts.Seconds, probe)
	res := ph.result(w, e)
	if err := d.close(); err != nil {
		res.problem("%v", err)
	}

	vs := newValues()
	vs.set("setup_s", median(setups))
	vs.n["setup_s"] = len(setups)
	var rates, opRates, cpus []float64
	for _, rd := range ph.rounds {
		if rd.ops == 0 { // a round that began just as the run ended
			continue
		}
		rates = append(rates, ratio(float64(rd.accesses)/1e6, rd.dt.Seconds()*rd.speed))
		opRates = append(opRates, ratio(float64(rd.ops), rd.dt.Seconds()*rd.speed))
		cpus = append(cpus, ratio(float64(rd.cpu)*rd.speed, float64(rd.accesses)))
	}
	vs.set("maccess_per_s", median(rates))
	vs.set("ops_per_s", median(opRates))
	vs.set("cpu_ns_per_access", median(cpus))
	vs.percentile("op_p50_ms", ph.latencies(false), 50)
	vs.percentile("rss_p90_mb", ph.rss, 90)
	res.Metrics = vs.list(EndToEnd)
	return res, nil
}

// tracedSegment is the length of one segment of a traced run, as a share
// of its seconds. Segments alternate traced and untraced, traced first, so
// drift in the host's speed cancels out of trace_overhead.
const tracedSegment = 0.125

// runTraced measures the workload once, alternating between segments with
// spans and a CPU profile and segments without. Ops that started in a
// traced segment keep their spans.
func runTraced(w *workload, e env, opts Options) (*Result, error) {
	out := filepath.Join(opts.TraceDir, fmt.Sprintf("%s-seed%d", w.name, e.seed))
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	e.rec = NewRecorder()
	e.rec.SetRecording(false) // set-up work is not an op
	d, err := w.start(e)
	if err != nil {
		return nil, fmt.Errorf("bench: setting up %s: %w", w.name, err)
	}
	runtime.GC()
	segs := startSegments(e.rec, out, max(minSegment, time.Duration(opts.Seconds*tracedSegment*float64(time.Second))))
	ph := measure(e, d, opts.Seconds, nil)
	segErr := segs.stop()
	closeErr := d.close()
	if segErr != nil {
		return nil, segErr
	}
	if err := e.rec.WriteFile(filepath.Join(out, "spans.json")); err != nil {
		return nil, err
	}
	fold, err := foldProfile(segs.files...)
	if err != nil {
		return nil, err
	}
	res := ph.result(w, e)
	if closeErr != nil {
		res.problem("%v", closeErr)
	}
	res.Metrics = perLayer(ph, segs, fold, e.rec.Spans()).list(PerLayer)
	return res, nil
}

// minSegment keeps a short traced run from toggling the profiler in a
// tight loop.
const minSegment = 100 * time.Millisecond

// interval is a stretch of wall time.
type interval struct{ from, to time.Time }

// segments toggles tracing on a schedule: on for a segment, off for the
// next, until stopped. Each traced segment writes its own CPU profile.
type segments struct {
	rec    *Recorder
	dir    string
	length time.Duration
	quit   chan struct{}
	done   chan struct{}

	// Written by the toggling goroutine, read after stop.
	traced  []interval
	files   []string
	rt0, rt rtSample // rt sums the runtime's accounting over traced segments
	prof    *os.File
	err     error
}

func startSegments(rec *Recorder, dir string, length time.Duration) *segments {
	s := &segments{rec: rec, dir: dir, length: length, quit: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	return s
}

func (s *segments) loop() {
	defer close(s.done)
	for k := 0; ; k++ {
		on := k%2 == 0
		if on {
			if s.err = s.begin(k); s.err != nil {
				return
			}
		}
		t := time.NewTimer(s.length)
		select {
		case <-s.quit:
			t.Stop()
			if on {
				s.err = s.end()
			}
			return
		case <-t.C:
		}
		if on {
			if s.err = s.end(); s.err != nil {
				return
			}
		}
	}
}

func (s *segments) begin(k int) error {
	f, err := os.Create(filepath.Join(s.dir, fmt.Sprintf("cpu-%d.pprof", k)))
	if err != nil {
		return err
	}
	s.rt0 = readRuntime()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	s.prof = f
	s.files = append(s.files, f.Name())
	s.traced = append(s.traced, interval{from: time.Now()})
	s.rec.SetRecording(true)
	return nil
}

func (s *segments) end() error {
	s.rec.SetRecording(false)
	s.traced[len(s.traced)-1].to = time.Now()
	pprof.StopCPUProfile()
	rt := readRuntime()
	s.rt.allocBytes += rt.allocBytes - s.rt0.allocBytes
	s.rt.gcCPU += rt.gcCPU - s.rt0.gcCPU
	s.rt.usedCPU += rt.usedCPU - s.rt0.usedCPU
	return s.prof.Close()
}

// stop ends the schedule, closing a traced segment in progress, and waits
// for the toggling goroutine to exit.
func (s *segments) stop() error {
	close(s.quit)
	<-s.done
	return s.err
}

// tracedShare is the share of [from, to) that traced segments cover.
func (s *segments) tracedShare(from, to time.Time) float64 {
	if !to.After(from) {
		return 0
	}
	var in time.Duration
	for _, iv := range s.traced {
		lo, hi := iv.from, iv.to
		if from.After(lo) {
			lo = from
		}
		if to.Before(hi) {
			hi = to
		}
		if hi.After(lo) {
			in += hi.Sub(lo)
		}
	}
	return float64(in) / float64(to.Sub(from))
}

// phase is one measured stretch of closed-loop operations.
type phase struct {
	ops      []opResult // indexed by op; always a prefix [0, n)
	minOps   int        // the ops every run completes
	rounds   []round
	rss      []float64 // resident set in MB, sampled every rssEvery
	problems []string
}

// round is a stretch of closed-loop ops that ends once every caller's last
// op has returned; the host is probed between rounds, while no op runs.
type round struct {
	ops      int
	accesses uint64
	dt, cpu  time.Duration // wall and process CPU time
	// speed is the host's speed relative to the nominal one, the mean of
	// the probes before and after the round.
	speed float64
}

const (
	// rssEvery is how often a phase samples the resident set.
	rssEvery = 50 * time.Millisecond
	// roundLength is the target length of a round. Shorter rounds follow
	// the host's speed more closely; each costs one probe and, with two
	// callers, the wait for the slower one's last op.
	roundLength = 1250 * time.Millisecond
)

// measure runs ops closed-loop from e.clients callers, in rounds of about
// roundLength, until seconds have passed and at least e.prefix ops have run.
// A round ends when every caller's last op has returned, so a run overruns
// by at most a round and an op. Callers take op indices in order, so the
// ops that ran are exactly 0..n-1.
func measure(e env, d stack, seconds float64, probe *hostProbe) *phase {
	ph := &phase{minOps: e.prefix}
	end := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			ph.rss = append(ph.rss, rssMB())
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	var next atomic.Int64
	var mu sync.Mutex
	before := probe.speed()
	for k := 0; k == 0 || time.Now().Before(end) || int(next.Load()) < ph.minOps; k++ {
		t0, cpu0 := time.Now(), cpuTime()
		deadline := t0.Add(roundLength)
		if end.Before(deadline) {
			deadline = end
		}
		var wg sync.WaitGroup
		for c := 0; c < e.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// An index is taken only to be run, so the rounds leave no
				// gaps.
				for time.Now().Before(deadline) || int(next.Load()) < ph.minOps {
					i := int(next.Add(1) - 1)
					start := time.Now()
					r := d.op(i)
					r.start, r.end, r.round = start, time.Now(), k
					mu.Lock()
					for len(ph.ops) <= i {
						ph.ops = append(ph.ops, opResult{})
					}
					ph.ops[i] = r
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		rd := round{dt: time.Since(t0), cpu: cpuTime() - cpu0}
		after := probe.speed()
		rd.speed = (before + after) / 2
		before = after
		ph.rounds = append(ph.rounds, rd)
	}
	close(stop)
	<-sampled
	for _, r := range ph.ops {
		ph.rounds[r.round].ops++
		ph.rounds[r.round].accesses += r.accesses
	}
	// A repeated op must answer exactly what the op it repeats answered.
	for i, r := range ph.ops {
		if r.err == nil && r.source != i && ph.ops[r.source].err == nil && r.digest != ph.ops[r.source].digest {
			ph.ops[i].err = fmt.Errorf("op %d repeats op %d but its output differs", i, r.source)
		}
	}
	for i, r := range ph.ops {
		if r.err != nil {
			ph.problems = append(ph.problems, fmt.Sprintf("op %d: %v", i, r.err))
		}
	}
	return ph
}

func (ph *phase) failed() int {
	n := 0
	for _, r := range ph.ops {
		if r.err != nil {
			n++
		}
	}
	return n
}

// latencies lists the op latencies of successful fresh ops, or of repeats,
// scaled to the nominal host.
func (ph *phase) latencies(repeats bool) []float64 {
	var out []float64
	for i, r := range ph.ops {
		if r.err == nil && (r.source != i) == repeats {
			out = append(out, ms(r.lat)*ph.rounds[r.round].speed)
		}
	}
	return out
}

// prefix is the ops every run completes.
func (ph *phase) prefix() []opResult { return ph.ops[:ph.minOps] }

func (ph *phase) digest() string {
	h := sha256.New()
	for _, r := range ph.prefix() {
		h.Write(r.digest[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// result judges the phase: no failed op, and at DefaultSeed the pinned
// digest.
func (ph *phase) result(w *workload, e env) *Result {
	res := &Result{
		Attempted: len(ph.ops),
		Failed:    ph.failed(),
		Digest:    ph.digest(),
		DigestOps: ph.minOps,
		Problems:  ph.problems,
	}
	if want := pinned[w.name]; e.seed == DefaultSeed && !e.tiny && res.Digest != want {
		res.problem("output digest %s, pinned %s", res.Digest, want)
	}
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	return res
}

func (r *Result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	r.Correct = false
}

// perLayer computes the traced run's metrics. Profile and runtime numbers
// are per access simulated inside traced segments, an op's accesses counted
// in proportion to its time there. Counts cover the prefix ops, so they
// repeat exactly for a seed.
func perLayer(ph *phase, segs *segments, fold Fold, spans []Span) values {
	vs := newValues()
	var acc float64
	for _, r := range ph.ops {
		acc += float64(r.accesses) * segs.tracedShare(r.start, r.end)
	}
	for _, l := range Layers {
		vs.set("prof."+l, ratio(float64(fold.Self[l]), acc))
	}
	vs.set("prof.codec", ratio(float64(fold.Codec), acc))
	vs.set("prof.sim.maps", ratio(float64(fold.Maps["sim"]), acc))
	vs.set("prof.memsys.maps", ratio(float64(fold.Maps["memsys"]), acc))
	vs.set("prof.attributed_share", 1-fold.Share("other"))
	vs.set("rt.alloc_bytes_per_access", ratio(float64(segs.rt.allocBytes), acc))
	vs.set("rt.gc_cpu_share", ratio(segs.rt.gcCPU, segs.rt.usedCPU))

	var c counts
	for _, r := range ph.prefix() {
		c.add(r.counts)
	}
	vs.set("trace.accesses", float64(c.accesses))
	vs.set("memsys.l1d_read_miss_ratio", ratio(float64(c.misses), float64(c.reads)))
	vs.set("memsys.l2_requests", float64(c.l2Requests))
	vs.set("memsys.l2_pv_requests", float64(c.l2PVRequests))
	vs.set("memsys.offchip_reads", float64(c.offchipReads))
	vs.set("core.pvcache_lookups", float64(c.pvLookups))
	vs.set("core.pvcache_hit_ratio", ratio(float64(c.pvHits), float64(c.pvLookups)))
	vs.set("core.pv_fetches", float64(c.pvFetches))
	vs.set("core.pv_writebacks", float64(c.pvWritebacks))
	vs.set("core.mshr_stalls", float64(c.mshrStalls))
	vs.set("sms.prefetches_issued", float64(c.issued))
	vs.set("sms.prefetch_useful_ratio", ratio(float64(c.issued-c.unused), float64(c.issued)))
	vs.set("cpu.ipc", ratio(c.ipcSum, float64(c.ipcN)))
	vs.set("timing.cycles_per_access", ratio(c.cpaSum, float64(c.cpaN)))
	vs.set("sweep.sims_planned", float64(c.planned))
	vs.set("sweep.sims_executed", float64(c.executed))
	vs.set("sweep.exec_ratio", ratio(float64(c.executed), float64(c.planned)))
	vs.set("service.cache_hit_ops", float64(c.cacheHits))

	// Latencies over every op of the run: tracing costs too little to
	// split them by segment, except to measure that cost itself, where an
	// op counts as traced when most of it ran traced.
	vs.percentile("op_p90_ms", ph.latencies(false), 90)
	var firstRows, inTraced, inUntraced []float64
	for i, r := range ph.ops {
		if r.err != nil || r.source != i {
			continue
		}
		if r.firstRow > 0 {
			firstRows = append(firstRows, ms(r.firstRow))
		}
		switch share := segs.tracedShare(r.start, r.end); {
		case share > 0.5:
			inTraced = append(inTraced, ms(r.lat))
		case share < 0.5:
			inUntraced = append(inUntraced, ms(r.lat))
		}
	}
	vs.percentile("first_row_p50_ms", firstRows, 50)
	vs.set("first_row_n", float64(len(firstRows)))
	hits := ph.latencies(true)
	vs.percentile("hit_p50_ms", hits, 50)
	vs.set("hit_n", float64(len(hits)))
	if len(inTraced) > 0 && len(inUntraced) > 0 {
		vs.set("trace_overhead", median(inTraced)/median(inUntraced)-1)
	}

	self := SelfTimes(spans)
	byName := map[string][]float64{}
	for i, s := range spans {
		if s.Op >= 0 { // warm-up sweeps' shard requests carry op -1
			byName[s.Name] = append(byName[s.Name], ms(self[i]))
		}
	}
	for _, name := range spanNames {
		xs := byName[name]
		vs.percentile("span."+name+".p50_ms", xs, 50)
		vs.percentile("span."+name+".p90_ms", xs, 90)
		vs.set("span."+name+".n", float64(len(xs)))
	}
	// Shard requests per fresh sweep whose spans were recorded.
	fresh := 0
	for _, s := range spans {
		if s.Name == "op" && s.Op >= 0 && ph.ops[s.Op].source == s.Op {
			fresh++
		}
	}
	vs.set("span.shard.count", ratio(float64(len(byName["shard.request"])), float64(fresh)))
	return vs
}

// foldProfile merges CPU profiles and folds them through
// `go tool pprof -traces`.
func foldProfile(paths ...string) (Fold, error) {
	var stderr bytes.Buffer
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, paths...)...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return Fold{}, fmt.Errorf("bench: go tool pprof -traces: %w: %s", err, stderr.Bytes())
	}
	return ParseTraces(bytes.NewReader(out))
}

// rtSample is a reading of the Go runtime's own accounting.
type rtSample struct {
	allocBytes     uint64
	gcCPU, usedCPU float64 // seconds
}

func readRuntime() rtSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return rtSample{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		usedCPU:    s[2].Value.Float64() - s[3].Value.Float64(),
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMB is the process's resident set now, from /proc/self/statm (Linux);
// 0 where that cannot be read.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages*uint64(os.Getpagesize())) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
