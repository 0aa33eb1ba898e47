package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"pvsim/internal/sweep"
)

// feed is one sweep's streaming state: rows appended in expansion order
// by the engine's RowSink, fanned out to any number of subscribers. A
// subscriber replays the rows it has not yet seen, then blocks until more
// arrive or the feed finishes. Finished feeds (done or failed) stay
// readable: a client connecting after completion replays the whole sweep.
type feed struct {
	mu      sync.Mutex
	rows    []sweep.Row
	jobs    int // expected row count, from the admission plan
	header  []byte
	done    bool
	errMsg  string // non-empty when the sweep failed or was cancelled
	waiters []chan struct{}
}

// feedFromPlan builds a feed from an already-expanded admission plan —
// the expansion-free path the server uses so a submit expands its grid
// exactly once.
func feedFromPlan(p sweep.Plan) *feed {
	return &feed{jobs: p.Jobs, header: p.Header}
}

// append publishes one row (the engine delivers them in expansion order)
// and wakes subscribers.
func (f *feed) append(row sweep.Row) {
	f.mu.Lock()
	f.rows = append(f.rows, row)
	f.wakeLocked()
	f.mu.Unlock()
}

// finish marks the feed complete; errMsg is empty for success. Cancelled
// and failed sweeps publish no further rows — subscribers see the error
// marker and the stream ends.
func (f *feed) finish(errMsg string) {
	f.mu.Lock()
	f.done = true
	f.errMsg = errMsg
	f.wakeLocked()
	f.mu.Unlock()
}

func (f *feed) wakeLocked() {
	for _, w := range f.waiters {
		close(w)
	}
	f.waiters = nil
}

// next returns the rows from index from onwards, plus the completion
// state. If nothing new is available it returns a wait channel that
// closes on the next append/finish; the caller selects on it and its own
// cancellation.
func (f *feed) next(from int) (rows []sweep.Row, done bool, errMsg string, wait <-chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if from < len(f.rows) {
		rows = f.rows[from:len(f.rows):len(f.rows)]
		return rows, false, "", nil
	}
	if f.done {
		return nil, true, f.errMsg, nil
	}
	w := make(chan struct{})
	f.waiters = append(f.waiters, w)
	return nil, false, "", w
}

// forget removes a wait channel a subscriber abandoned (its client
// disconnected before the next wake). Without it, every timed-out poll
// of a long-queued sweep would leave its channel in waiters until the
// next append/finish — which for a sweep parked deep in the queue may be
// arbitrarily far away — growing the slice without bound. Forgetting
// after a wake already cleared the list is a harmless no-op.
func (f *feed) forget(w <-chan struct{}) {
	f.mu.Lock()
	for i, x := range f.waiters {
		if x == w {
			f.waiters = append(f.waiters[:i], f.waiters[i+1:]...)
			break
		}
	}
	f.mu.Unlock()
}

// handleStream serves GET /sweeps/{id}/stream: partial results as they
// land, in expansion order, in one of three framings.
//
//   - json (default): chunks whose byte concatenation is exactly the
//     finished sweep's Result.JSON() — the same bytes `pvsim sweep
//     -format json` prints. Save the stream to a file and you hold the
//     serial report. A failed or cancelled sweep truncates the document
//     (it never becomes valid JSON), which is the error signal.
//   - ndjson: one compact JSON row per line, then a final status line
//     {"id":...,"jobs":N,"done":true} (or {"error":...}).
//   - sse: Server-Sent Events — `event: row` per row, then `event: done`
//     (or `event: error`). Selected by ?format=sse or an Accept header
//     of text/event-stream.
//
// Streams of queued sweeps block until the sweep starts; streams of
// finished sweeps replay in full. The connection's context cancels the
// stream (not the sweep — DELETE does that).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	run, ok := s.sweeps[id]
	var f *feed
	if ok {
		f = run.feed
	}
	s.mu.Unlock()
	if !ok || f == nil {
		httpError(w, http.StatusNotFound, "unknown sweep")
		return
	}

	format := r.URL.Query().Get("format")
	if format == "" {
		switch {
		case strings.Contains(r.Header.Get("Accept"), "text/event-stream"):
			format = "sse"
		case strings.Contains(r.Header.Get("Accept"), "application/x-ndjson"):
			format = "ndjson"
		default:
			format = "json"
		}
	}

	fr, ok := framingFor(format, f, id)
	if !ok {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown format %q (want json|ndjson|sse)", format))
		return
	}
	w.Header().Set("Content-Type", fr.contentType)
	if format == "sse" {
		w.Header().Set("Cache-Control", "no-cache")
	}
	flush := func() {}
	if fl, ok := w.(http.Flusher); ok {
		flush = fl.Flush
	}
	follow(r.Context(), w, flush, f, fr)
}

// framing is one stream format: its Content-Type, the chunk that opens
// the stream (none when empty), the bytes of row i, and the closing bytes
// of a finished feed, whose errMsg is empty on success.
type framing struct {
	contentType string
	open        []byte
	row         func(row sweep.Row, i int) ([]byte, error)
	finish      func(errMsg string) []byte
}

// framingFor returns the framing of format (json, ndjson or sse, as
// handleStream describes them) for feed f of sweep id; ok is false for an
// unknown format.
func framingFor(format string, f *feed, id string) (fr framing, ok bool) {
	rowLine := func(row sweep.Row, _ int) ([]byte, error) { return sweep.RowLine(row) }
	switch format {
	case "json":
		return framing{
			contentType: "application/json",
			open:        f.header,
			row:         sweep.StreamRow,
			finish: func(errMsg string) []byte {
				if errMsg != "" {
					return nil
				}
				return sweep.StreamFooter(f.jobs)
			},
		}, true
	case "ndjson":
		return framing{
			contentType: "application/x-ndjson",
			row:         rowLine,
			finish: func(errMsg string) []byte {
				if errMsg != "" {
					return fmt.Appendf(nil, "{\"id\":%q,\"error\":%q}\n", id, errMsg)
				}
				return fmt.Appendf(nil, "{\"id\":%q,\"jobs\":%d,\"done\":true}\n", id, f.jobs)
			},
		}, true
	case "sse":
		return framing{
			contentType: "text/event-stream",
			row: func(row sweep.Row, i int) ([]byte, error) {
				line, err := rowLine(row, i)
				if err != nil {
					return nil, err
				}
				// line carries its own \n
				return fmt.Appendf(nil, "event: row\ndata: %s\n", line), nil
			},
			finish: func(errMsg string) []byte {
				if errMsg != "" {
					return fmt.Appendf(nil, "event: error\ndata: {\"id\":%q,\"error\":%q}\n\n", id, errMsg)
				}
				return fmt.Appendf(nil, "event: done\ndata: {\"id\":%q,\"jobs\":%d}\n\n", id, f.jobs)
			},
		}, true
	}
	return framing{}, false
}

// follow writes feed f to w in framing fr: the opening chunk, every row
// as it lands, and the closing bytes once the feed finishes. A write
// error (a disconnected client, typically) ends the stream at once: a
// blocked feed would otherwise hold the handler — and its goroutine —
// until the sweep finished, writing rows nobody reads. Cancelling ctx
// ends the stream too.
func follow(ctx context.Context, w io.Writer, flush func(), f *feed, fr framing) {
	if len(fr.open) > 0 {
		if _, err := w.Write(fr.open); err != nil {
			return
		}
		flush()
	}
	i := 0
	for {
		rows, done, errMsg, wait := f.next(i)
		switch {
		case len(rows) > 0:
			for _, row := range rows {
				chunk, err := fr.row(row, i)
				if err != nil {
					return
				}
				if _, err := w.Write(chunk); err != nil {
					return
				}
				i++
			}
			flush()
		case done:
			w.Write(fr.finish(errMsg))
			flush()
			return
		default:
			select {
			case <-wait:
			case <-ctx.Done():
				f.forget(wait)
				return
			}
		}
	}
}
