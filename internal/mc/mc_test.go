package mc

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestChooserEnumeratesFullTree(t *testing.T) {
	var seen [][]int
	runs, truncated, cex := enumerate(100, func(c *chooser) error {
		a := c.Choose(2, func(i int) string { return fmt.Sprintf("a%d", i) })
		b := c.Choose(3, func(i int) string { return fmt.Sprintf("b%d", i) })
		seen = append(seen, []int{a, b})
		return nil
	})
	if cex != nil {
		t.Fatalf("unexpected counterexample: %v", cex)
	}
	if truncated || runs != 6 {
		t.Fatalf("enumerated %d runs (truncated=%v), want all 6", runs, truncated)
	}
	uniq := map[string]bool{}
	for _, s := range seen {
		uniq[fmt.Sprint(s)] = true
	}
	if len(uniq) != 6 {
		t.Fatalf("paths not distinct: %v", seen)
	}
}

func TestChooserVariableWidths(t *testing.T) {
	// The second decision's width depends on the first — the shape the
	// explorers actually produce (enabled sets change with state).
	runs, truncated, cex := enumerate(100, func(c *chooser) error {
		a := c.Choose(3, func(i int) string { return "a" })
		if a == 0 {
			c.Choose(2, func(i int) string { return "b" })
		}
		return nil
	})
	if cex != nil || truncated {
		t.Fatalf("cex=%v truncated=%v", cex, truncated)
	}
	if runs != 4 { // a=0 has 2 continuations, a=1 and a=2 are leaves
		t.Fatalf("enumerated %d runs, want 4", runs)
	}
}

func TestChooserBudgetTruncates(t *testing.T) {
	runs, truncated, _ := enumerate(3, func(c *chooser) error {
		c.Choose(2, func(i int) string { return "x" })
		c.Choose(2, func(i int) string { return "y" })
		return nil
	})
	if !truncated || runs != 3 {
		t.Fatalf("runs=%d truncated=%v, want budget cut at 3", runs, truncated)
	}
}

func TestChooserCounterexampleAndReplay(t *testing.T) {
	body := func(c *chooser) error {
		a := c.Choose(2, func(i int) string { return fmt.Sprintf("a%d", i) })
		b := c.Choose(2, func(i int) string { return fmt.Sprintf("b%d", i) })
		if a == 1 && b == 1 {
			return fmt.Errorf("boom")
		}
		return nil
	}
	_, _, cex := enumerate(100, body)
	if cex == nil || cex.Err.Error() != "boom" {
		t.Fatalf("counterexample not found: %v", cex)
	}
	if cex.Seed != "1,1" {
		t.Fatalf("seed %q, want 1,1", cex.Seed)
	}
	trail, err := ParseSeed(cex.Seed)
	if err != nil {
		t.Fatal(err)
	}
	trace, rerr := replay(trail, body)
	if rerr == nil || rerr.Error() != "boom" {
		t.Fatalf("replay did not reproduce: %v", rerr)
	}
	if !reflect.DeepEqual(trace, cex.Trace) {
		t.Fatalf("replay trace %v != counterexample trace %v", trace, cex.Trace)
	}
}

func TestParseSeedRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"1,x", "-1", "1,,2", "0.5"} {
		if _, err := ParseSeed(bad); err == nil {
			t.Errorf("ParseSeed(%q) accepted", bad)
		}
	}
	if trail, err := ParseSeed(" "); err != nil || len(trail) != 0 {
		t.Errorf("blank seed: trail=%v err=%v", trail, err)
	}
}

func TestScheduleExplorerSmall(t *testing.T) {
	rep, err := ExploreSchedules(ScheduleOptions{Jobs: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cex != nil {
		t.Fatalf("counterexample:\n%s", rep.Cex)
	}
	if rep.Truncated || rep.Explored < 2 {
		t.Fatalf("explored %d schedules (truncated=%v)", rep.Explored, rep.Truncated)
	}
}

func TestScheduleExplorerCancellation(t *testing.T) {
	rep, err := ExploreSchedules(ScheduleOptions{Jobs: 2, Workers: 2, Cancel: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cex != nil {
		t.Fatalf("counterexample:\n%s", rep.Cex)
	}
	if rep.Truncated {
		t.Fatalf("cancellation tree truncated at %d schedules", rep.Explored)
	}
}

// TestScheduleExplorerAcceptance is the issue's acceptance geometry: every
// interleaving of a 3-job × 2-worker grid, with and without injected
// cancellation, byte-identical to serial on every schedule.
func TestScheduleExplorerAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("full 3x2 enumeration skipped with -short")
	}
	for _, cancel := range []bool{false, true} {
		rep, err := ExploreSchedules(ScheduleOptions{Jobs: 3, Workers: 2, Cancel: cancel})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Cex != nil {
			t.Fatalf("cancel=%v counterexample:\n%s", cancel, rep.Cex)
		}
		if rep.Truncated {
			t.Fatalf("cancel=%v truncated at %d schedules", cancel, rep.Explored)
		}
		t.Logf("cancel=%v: %d schedules", cancel, rep.Explored)
	}
}

func TestScheduleExplorerCatchesFault(t *testing.T) {
	opts := ScheduleOptions{Jobs: 2, Workers: 2, Fault: "corrupt-row"}
	rep, err := ExploreSchedules(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cex == nil {
		t.Fatal("corrupt-row fault went undetected")
	}
	if !strings.Contains(rep.Cex.Err.Error(), "diverged from serial") {
		t.Fatalf("unexpected failure: %v", rep.Cex.Err)
	}
	trace, rerr := ReplaySchedule(opts, rep.Cex.Seed)
	if rerr == nil {
		t.Fatal("replaying the counterexample seed passed")
	}
	if !reflect.DeepEqual(trace, rep.Cex.Trace) {
		t.Fatalf("replay trace diverges:\n%v\nvs\n%v", trace, rep.Cex.Trace)
	}
	// The same schedule without the fault passes: the defect is in the
	// fault, not the pool.
	opts.Fault = ""
	if _, rerr := ReplaySchedule(opts, rep.Cex.Seed); rerr != nil {
		t.Fatalf("fault-free replay failed: %v", rerr)
	}
}

func TestStateExplorerDefaultGeometry(t *testing.T) {
	rep, err := ExploreStates(StateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cex != nil {
		t.Fatalf("counterexample:\n%s", rep.Cex)
	}
	if rep.Truncated {
		t.Fatalf("truncated at %d states", rep.Explored)
	}
	if rep.Explored < 100 || rep.Paths < 10 {
		t.Fatalf("suspiciously small space: %d states, %d paths", rep.Explored, rep.Paths)
	}
	t.Logf("%d states, %d quiescent paths", rep.Explored, rep.Paths)
}

func TestStateExplorerGeometries(t *testing.T) {
	for _, tc := range []StateOptions{
		{Sets: 4, Entries: 2, MSHRs: 2, Accesses: 6}, // MSHRs == entries: all-in-flight victim fallback reachable
		{Sets: 4, Entries: 3, MSHRs: 1, Accesses: 6}, // deep stall pressure
		{Sets: 4, Entries: 4, MSHRs: 2, Accesses: 5}, // cache as large as the table: steady-state all-hit
		{Sets: 3, Entries: 2, MSHRs: 1, Accesses: 7}, // a table barely larger than the PVCache: near-constant eviction
	} {
		tc := tc
		t.Run(fmt.Sprintf("s%de%dm%da%d", tc.Sets, tc.Entries, tc.MSHRs, tc.Accesses), func(t *testing.T) {
			rep, err := ExploreStates(tc)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Cex != nil {
				t.Fatalf("counterexample:\n%s", rep.Cex)
			}
			if rep.Truncated {
				t.Fatalf("truncated at %d states", rep.Explored)
			}
			t.Logf("%d states, %d paths", rep.Explored, rep.Paths)
		})
	}
}

func TestStateExplorerRejectsBadGeometry(t *testing.T) {
	if _, err := ExploreStates(StateOptions{Entries: 4, MSHRs: 6}); err == nil {
		t.Fatal("MSHRs > entries accepted")
	}
	if _, err := ExploreStates(StateOptions{Sets: 2, Entries: 4}); err == nil {
		t.Fatal("entries > sets accepted")
	}
}

func TestStateExplorerBudgetTruncates(t *testing.T) {
	rep, err := ExploreStates(StateOptions{Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated || rep.Explored != 10 {
		t.Fatalf("explored %d states (truncated=%v), want cut at 10", rep.Explored, rep.Truncated)
	}
}

func TestStateExplorerCatchesFaults(t *testing.T) {
	for fault, wantErr := range map[string]string{
		"leak-hit":       "diverged from shadow model",
		"drop-writeback": "",
	} {
		opts := StateOptions{Fault: fault}
		rep, err := ExploreStates(opts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Cex == nil {
			t.Fatalf("fault %q went undetected", fault)
		}
		if wantErr != "" && !strings.Contains(rep.Cex.Err.Error(), wantErr) {
			t.Fatalf("fault %q tripped the wrong check: %v", fault, rep.Cex.Err)
		}
		trace, rerr := ReplayState(opts, rep.Cex.Seed)
		if rerr == nil {
			t.Fatalf("fault %q: replaying the counterexample seed passed", fault)
		}
		if rerr.Error() != rep.Cex.Err.Error() {
			t.Fatalf("fault %q: replay failed differently: %v vs %v", fault, rerr, rep.Cex.Err)
		}
		if !reflect.DeepEqual(trace, rep.Cex.Trace) {
			t.Fatalf("fault %q: replay trace diverges", fault)
		}
		// Fault-free replay of the same path passes: the harness, not the
		// machinery, injected the defect.
		opts.Fault = ""
		if _, rerr := ReplayState(opts, rep.Cex.Seed); rerr != nil {
			t.Fatalf("fault-free replay of %q's path failed: %v", fault, rerr)
		}
	}
}

// TestStateExplorerHashingIsSound spot-checks the pruning against an
// unpruned exploration: disabling the seen-set must visit at least as many
// nodes but exactly the same quiescent outcomes (every path still checks
// clean). Exhaustively re-running without pruning is exponential, so use a
// small geometry.
func TestStateExplorerDeterminism(t *testing.T) {
	a, err := ExploreStates(StateOptions{Accesses: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExploreStates(StateOptions{Accesses: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Explored != b.Explored || a.Paths != b.Paths || (a.Cex == nil) != (b.Cex == nil) {
		t.Fatalf("exploration not deterministic: %+v vs %+v", a, b)
	}
}

// TestScheduleExplorerInFlightWait: a grid whose seed axis repeats a
// value ([7, 7]) runs its job's configuration twice, so some schedules
// find the twin already simulating on the other worker. The explorer must
// reach that wait transition, with and without injected cancellation, and
// every schedule must still simulate each signature once and match serial
// bytes.
func TestScheduleExplorerInFlightWait(t *testing.T) {
	for _, cancel := range []bool{false, true} {
		rep, err := ExploreSchedules(ScheduleOptions{Jobs: 1, Workers: 2, Seeds: []uint64{7, 7}, Cancel: cancel})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Cex != nil {
			t.Fatalf("cancel=%v counterexample:\n%s", cancel, rep.Cex)
		}
		if rep.Truncated {
			t.Fatalf("cancel=%v truncated at %d schedules", cancel, rep.Explored)
		}
		if rep.Waits == 0 {
			t.Fatalf("cancel=%v: none of %d schedules waited on an in-flight twin", cancel, rep.Explored)
		}
		t.Logf("cancel=%v: %d schedules, %d with an in-flight wait", cancel, rep.Explored, rep.Waits)
	}
}
