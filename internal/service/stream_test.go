package service

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"pvsim/internal/sweep"
)

// brokenWriter is a ResponseWriter standing in for a client that went
// away mid-stream: the first `ok` writes succeed, every later one fails
// the way a closed connection does.
type brokenWriter struct {
	ok     int
	writes int
}

func (b *brokenWriter) Header() http.Header { return http.Header{} }
func (b *brokenWriter) WriteHeader(int)     {}
func (b *brokenWriter) Write(p []byte) (int, error) {
	b.writes++
	if b.writes > b.ok {
		return 0, errors.New("write: broken pipe")
	}
	return len(p), nil
}

// TestStreamStopsOnWriteError is the regression pin for the ignored
// w.Write errors: when the client disconnects mid-stream, all three
// framings must return promptly instead of looping over the remaining
// rows (and then parking on the feed forever — the feed here never
// finishes, exactly so an un-fixed handler hangs the test's deadline).
func TestStreamStopsOnWriteError(t *testing.T) {
	g := sweep.Grid{Specs: []string{"none"}, Workloads: []string{"Apache"}, Scale: testScale}
	plan, err := g.Plan()
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"json", "ndjson", "sse"} {
		t.Run(format, func(t *testing.T) {
			f := feedFromPlan(plan)
			fr, ok := framingFor(format, f, "id")
			if !ok {
				t.Fatalf("no framing for %q", format)
			}
			// Plenty of rows already published, none to come, no finish:
			// a handler that shrugs off write errors drains all of them
			// and then blocks on the feed.
			for i := 0; i < 64; i++ {
				f.append(sweep.Row{Job: i})
			}
			w := &brokenWriter{ok: 3}
			done := make(chan struct{})
			go func() {
				follow(context.Background(), w, func() {}, f, fr)
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("handler still running 5s after the client write failed")
			}
			if w.writes > w.ok+2 {
				t.Errorf("handler kept writing after the first error: %d writes, %d succeeded", w.writes, w.ok)
			}
		})
	}
}
