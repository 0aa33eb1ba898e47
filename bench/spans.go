package bench

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around a
// public entry point (the program itself carries no spans).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an op's root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

// Recorder keeps spans in memory for the traced run. A nil *Recorder is the
// untraced run: Begin and Add return -1, and End ignores -1. A paused one
// starts no new op: it records a root span (parent -1) only while
// recording, and a child span only when its parent was recorded, so an op
// keeps all of its spans or none.
type Recorder struct {
	t0    time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts an empty, recording recorder; span times count from
// now.
func NewRecorder() *Recorder {
	r := &Recorder{t0: time.Now()}
	r.on.Store(true)
	return r
}

// SetRecording pauses or resumes the recording of root spans.
func (r *Recorder) SetRecording(on bool) { r.on.Store(on) }

// Begin opens a span and returns its id.
func (r *Recorder) Begin(name string, op, parent int) int {
	return r.Add(name, op, parent, time.Now(), time.Time{})
}

// End closes the span Begin opened.
func (r *Recorder) End(id int) {
	if r == nil || id < 0 {
		return
	}
	end := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = end
	r.mu.Unlock()
}

// Add records a span whose bounds were taken elsewhere, such as a wave
// boundary seen in a progress callback. A zero end leaves the span open for
// End.
func (r *Recorder) Add(name string, op, parent int, start, end time.Time) int {
	if r == nil || parent < 0 && !r.on.Load() {
		return -1
	}
	s := Span{Parent: parent, Op: op, Name: name, Start: start.Sub(r.t0).Nanoseconds()}
	if !end.IsZero() {
		s.End = end.Sub(r.t0).Nanoseconds()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans)
	r.spans = append(r.spans, s)
	return s.ID
}

// Spans returns a copy of every recorded span, indexed by id.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteFile writes the spans as JSON.
func (r *Recorder) WriteFile(path string) error {
	b, err := json.MarshalIndent(r.Spans(), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// SelfTimes returns each span's self time, indexed like spans (whose ids
// must equal their indices): its duration minus the part of its interval
// that the union of its children covers. Overlapping children count once,
// and child time outside the parent's interval counts not at all.
func SelfTimes(spans []Span) []time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered measures the union of the kids' intervals clipped to parent.
func covered(parent Span, kids []Span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		total += v.hi - max(v.lo, end)
		end = v.hi
	}
	return total
}
