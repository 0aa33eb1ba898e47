package service

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"testing"

	"pvsim/internal/sweep"
)

func pend(id string, seq uint64, prio int) Pending {
	return Pending{ID: id, Seq: seq, Priority: prio, Grid: sweep.Grid{Specs: []string{"PV-8"}}}
}

// TestQueueDrainOrder pins the deterministic drain order: priority
// descending, then submission seq ascending — never insertion order.
func TestQueueDrainOrder(t *testing.T) {
	q := NewQueue(8)
	for _, p := range []Pending{
		pend("a", 0, 0), pend("b", 1, 5), pend("c", 2, 0), pend("d", 3, 5), pend("e", 4, -1),
	} {
		if err := q.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"b", "d", "a", "c", "e"}
	for i, id := range want {
		p, ok := q.Pop()
		if !ok || p.ID != id {
			t.Fatalf("pop %d = (%q, %v), want %q", i, p.ID, ok, id)
		}
	}
}

func TestQueueBoundAndRemove(t *testing.T) {
	q := NewQueue(2)
	if err := q.Push(pend("a", 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(pend("b", 1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(pend("c", 2, 0)); err != ErrQueueFull {
		t.Fatalf("push past depth returned %v, want ErrQueueFull", err)
	}
	if !q.Remove("a") || q.Remove("a") {
		t.Fatal("Remove did not drop exactly one queued item")
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d after remove, want 1", q.Len())
	}
	// Removal freed a slot: admission works again.
	if err := q.Push(pend("c", 2, 0)); err != nil {
		t.Fatalf("push after remove: %v", err)
	}
}

func TestQueuePosition(t *testing.T) {
	q := NewQueue(8)
	q.Push(pend("low", 0, 0))
	q.Push(pend("high", 1, 9))
	q.Push(pend("mid", 2, 4))
	for id, want := range map[string]int{"high": 0, "mid": 1, "low": 2} {
		if got := q.Position(id); got != want {
			t.Errorf("Position(%s) = %d, want %d", id, got, want)
		}
	}
	if got := q.Position("missing"); got != -1 {
		t.Errorf("Position(missing) = %d, want -1", got)
	}
}

// TestQueueCloseUnblocksPop pins shutdown behavior: Close wakes blocked
// workers with ok=false and leaves queued items for Snapshot.
func TestQueueCloseUnblocksPop(t *testing.T) {
	q := NewQueue(4)
	popped := make(chan bool)
	go func() {
		_, ok := q.Pop()
		popped <- ok
	}()
	q.Close()
	if ok := <-popped; ok {
		t.Fatal("Pop on closed queue returned ok")
	}
	if err := q.Push(pend("a", 0, 0)); err == nil {
		t.Fatal("Push on closed queue accepted")
	}
}

// TestQueueSaveLoadRoundTrip pins persistence: the queue file a server
// writes on Close holds its queue in drain order, and LoadPending
// reconstructs the same items.
func TestQueueSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(Options{Workers: -1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	svc.queue.Push(pend("a", 0, 0))
	svc.queue.Push(pend("b", 1, 7))
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(svc.queueFile())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	items, err := LoadPending(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 || items[0].ID != "b" || items[1].ID != "a" {
		t.Fatalf("round trip = %+v, want [b a] in drain order", items)
	}
	if items[0].Priority != 7 || items[1].Seq != 0 {
		t.Fatalf("round trip lost priority/seq: %+v", items)
	}
	if items[0].Grid.Hash() != pend("b", 1, 7).Grid.Hash() {
		t.Fatal("round trip changed the grid hash")
	}
	// A mangled file errors instead of silently dropping work.
	if _, err := LoadPending(bytes.NewReader([]byte(`[{"id":"x","bogus":1}]`))); err == nil {
		t.Fatal("LoadPending accepted unknown fields")
	}
}

// TestQueuePositionsMatchDrainOrder is the teeth behind the one-pass
// ranking: under mixed priorities and interleaved seqs, the position map
// must agree exactly with the order Pop actually drains the queue.
func TestQueuePositionsMatchDrainOrder(t *testing.T) {
	q := NewQueue(64)
	prios := []int{0, 5, -3, 5, 0, 9, 2, 2, -3, 7}
	for i, prio := range prios {
		if err := q.Push(pend(fmt.Sprintf("s%d", i), uint64(i), prio)); err != nil {
			t.Fatal(err)
		}
	}
	positions := q.Positions()
	if len(positions) != len(prios) {
		t.Fatalf("Positions ranked %d items, want %d", len(positions), len(prios))
	}
	for id, pos := range positions {
		if got := q.Position(id); got != pos {
			t.Errorf("Position(%s) = %d, Positions map says %d", id, got, pos)
		}
	}
	for i := 0; i < len(prios); i++ {
		p, ok := q.Pop()
		if !ok {
			t.Fatalf("queue dry after %d pops", i)
		}
		if positions[p.ID] != i {
			t.Fatalf("pop %d drained %s, but its ranked position was %d", i, p.ID, positions[p.ID])
		}
	}
}

// BenchmarkQueuePositions measures the ranking pass the status and list
// endpoints pay per request, at a full default-depth-sized queue of mixed
// priorities (the old per-id counting scan was quadratic across a poll of
// every queued sweep).
func BenchmarkQueuePositions(b *testing.B) {
	const n = 1024
	q := NewQueue(n)
	for i := 0; i < n; i++ {
		if err := q.Push(pend(fmt.Sprintf("s%d", i), uint64(i), i%7)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := len(q.Positions()); got != n {
			b.Fatalf("ranked %d items, want %d", got, n)
		}
	}
}
