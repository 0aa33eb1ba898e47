package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"pvsim/internal/sweep"
)

// ErrQueueFull is returned by Queue.Push when the queue is at its bounded
// depth; the HTTP layer maps it to 429 with a Retry-After header.
var ErrQueueFull = errors.New("service: queue full")

// Pending is one admitted-but-not-yet-running sweep. It is the queue's
// unit of persistence: the grid (the work), the seq (FIFO order within a
// priority), and the priority. The id is the grid's hash — the same
// public id the HTTP API uses.
type Pending struct {
	ID       string     `json:"id"`
	Seq      uint64     `json:"seq"`
	Priority int        `json:"priority"`
	Grid     sweep.Grid `json:"grid"`
}

// before reports whether p drains before q: higher priority first, then
// lower submission seq — the deterministic drain order the controller and
// the persisted queue file both rely on.
func (p Pending) before(q Pending) bool {
	if p.Priority != q.Priority {
		return p.Priority > q.Priority
	}
	return p.Seq < q.Seq
}

// Queue is a bounded FIFO+priority queue of pending sweeps. Push rejects
// with ErrQueueFull past the depth bound (admission control — the caller
// backpressures instead of buffering without bound), Pop blocks until an
// item is available or the queue is closed, and drain order is a pure
// function of the queued items: priority descending, then seq ascending.
type Queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	depth  int
	items  []Pending
	closed bool
}

// NewQueue builds a queue bounded at depth items (depth must be > 0).
func NewQueue(depth int) *Queue {
	q := &Queue{depth: depth}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push admits one pending sweep, or rejects with ErrQueueFull at the
// bound. Pushing onto a closed queue returns an error: shutdown has
// begun and the item belongs in the persisted snapshot, not in memory.
func (q *Queue) Push(p Pending) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return errors.New("service: queue closed")
	}
	if len(q.items) >= q.depth {
		return ErrQueueFull
	}
	q.items = append(q.items, p)
	q.cond.Signal()
	return nil
}

// Pop removes and returns the next sweep in drain order, blocking until
// one is available. ok is false when the queue has been closed: workers
// exit, leaving any still-queued items for Snapshot to persist.
func (q *Queue) Pop() (p Pending, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return Pending{}, false
	}
	best := 0
	for i := 1; i < len(q.items); i++ {
		if q.items[i].before(q.items[best]) {
			best = i
		}
	}
	p = q.items[best]
	q.items = append(q.items[:best], q.items[best+1:]...)
	return p, true
}

// Remove drops a queued sweep by id (cancellation before it ever ran) and
// reports whether it was queued.
func (q *Queue) Remove(id string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, p := range q.items {
		if p.ID == id {
			q.items = append(q.items[:i], q.items[i+1:]...)
			return true
		}
	}
	return false
}

// Len reports the number of queued sweeps.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Position reports a queued sweep's 0-based place in drain order, or -1
// if it is not queued — the "you are Nth in line" the status endpoint
// shows.
func (q *Queue) Position(id string) int {
	if pos, ok := q.Positions()[id]; ok {
		return pos
	}
	return -1
}

// Positions ranks every queued sweep in one sort pass: id -> 0-based
// place in drain order. It exists so the status and list endpoints pay
// O(n log n) once per request instead of a per-id counting scan under
// the queue mutex — the scan was quadratic across a poll of the whole
// queue, and it ran with Push/Pop blocked.
func (q *Queue) Positions() map[string]int {
	q.mu.Lock()
	items := make([]Pending, len(q.items))
	copy(items, q.items)
	q.mu.Unlock()
	sortPending(items)
	pos := make(map[string]int, len(items))
	for i, p := range items {
		pos[p.ID] = i
	}
	return pos
}

// Close wakes every blocked Pop with ok=false. Queued items stay in place
// for Snapshot; further Pushes error.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Snapshot returns the queued sweeps in drain order — the exact order a
// restarted server re-admits them in.
func (q *Queue) Snapshot() []Pending {
	q.mu.Lock()
	out := make([]Pending, len(q.items))
	copy(out, q.items)
	q.mu.Unlock()
	sortPending(out)
	return out
}

// sortPending orders items in drain order. before is a total order
// (seqs are unique), so an unstable sort is deterministic here.
func sortPending(items []Pending) {
	sort.Slice(items, func(i, j int) bool { return items[i].before(items[j]) })
}

// LoadPending parses a queue file previously written by
// Server.persistQueue. Unknown fields are rejected so a mangled file
// errors instead of silently dropping work.
func LoadPending(r io.Reader) ([]Pending, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var items []Pending
	if err := dec.Decode(&items); err != nil {
		return nil, fmt.Errorf("service: decoding queue: %w", err)
	}
	return items, nil
}
