package sweep

import (
	"bytes"
	"context"
	"testing"
)

// TestShardsPlan pins the cell-aligned planner as properties over grids
// of several shapes and every shard count up to past the cell count: the
// shards tile the jobs in expansion order, no baseline cell appears in two
// shards, there are min(n, cells) shards balanced by cell count, each
// lists exactly its range's cells, and the shards' simulations add up to
// the unsharded TotalSims — every baseline runs once.
func TestShardsPlan(t *testing.T) {
	grids := map[string]Grid{
		"one cell":   {Specs: []string{"none", "16-11a", "PV-8"}, Workloads: []string{"Apache"}, Scale: testScale},
		"two cells":  {Specs: []string{"16-11a"}, Workloads: []string{"Apache", "Qry1"}, Scale: testScale},
		"mixes only": {Specs: []string{"PV-8"}, Mixes: []string{"oltp-web", "DB2@500+Apache@500"}, PVCache: []int{4, 8}, Scale: testScale},
		"full":       testGrid(),
		"defaults":   {Specs: []string{"none", "PV-8"}, Seeds: []uint64{1, 2, 3}, Scale: testScale},
	}
	for name, g := range grids {
		jobs, err := g.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		cellsOf := func(js []Job) map[BaselineRef]bool {
			out := map[BaselineRef]bool{}
			for _, j := range js {
				out[BaselineRef{Seed: j.Seed, Scenario: j.Scenario}] = true
			}
			return out
		}
		cells := len(cellsOf(jobs))
		total, err := g.TotalSims()
		if err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= cells+2; n++ {
			shards, err := g.Shards(n)
			if err != nil {
				t.Fatalf("%s: Shards(%d): %v", name, n, err)
			}
			if want := min(n, cells); len(shards) != want {
				t.Fatalf("%s: Shards(%d) planned %d shards, want %d", name, n, len(shards), want)
			}
			owner := map[BaselineRef]int{}
			next, sims := 0, 0
			for i, sh := range shards {
				if sh.Index != i || sh.Start != next || sh.End <= sh.Start {
					t.Fatalf("%s: Shards(%d)[%d] = #%d [%d,%d), want #%d contiguous non-empty from %d", name, n, i, sh.Index, sh.Start, sh.End, i, next)
				}
				own := cellsOf(jobs[sh.Start:sh.End])
				for c := range own {
					if prev, ok := owner[c]; ok {
						t.Errorf("%s: Shards(%d): cell %+v in shards %d and %d", name, n, c, prev, i)
					}
					owner[c] = i
				}
				// Balanced: the first cells%n shards carry one extra cell.
				want := cells / len(shards)
				if i < cells%len(shards) {
					want++
				}
				if len(own) != want {
					t.Errorf("%s: Shards(%d)[%d] holds %d cells, want %d", name, n, i, len(own), want)
				}
				if len(sh.Baselines) != len(own) {
					t.Errorf("%s: Shards(%d)[%d] lists %d baselines, range has %d cells", name, n, i, len(sh.Baselines), len(own))
				}
				for _, b := range sh.Baselines {
					if !own[b] {
						t.Errorf("%s: Shards(%d)[%d] lists baseline %+v not in its range", name, n, i, b)
					}
				}
				sims += sh.Sims()
				next = sh.End
			}
			if next != len(jobs) {
				t.Fatalf("%s: Shards(%d) covers %d of %d jobs", name, n, next, len(jobs))
			}
			if sims != total {
				t.Errorf("%s: Shards(%d) plans %d sims, TotalSims is %d", name, n, sims, total)
			}
		}
	}
	if _, err := testGrid().Shards(0); err == nil {
		t.Error("Shards(0) accepted, want error")
	}
	if _, err := PlanShards(nil, 1); err == nil {
		t.Error("PlanShards of no jobs accepted, want error")
	}
}

// TestShardsRepeatedCells pins the planner on a grid that names a seed
// twice: the seed's cells recur later in expansion order, so no cut may
// fall between their two runs, and every baseline still runs once.
func TestShardsRepeatedCells(t *testing.T) {
	g := Grid{Specs: []string{"none", "PV-8"}, Workloads: []string{"Apache", "Qry1"}, Seeds: []uint64{7, 42, 7, 9}, Scale: testScale}
	total, err := g.TotalSims()
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 4; n++ {
		shards, err := g.Shards(n)
		if err != nil {
			t.Fatal(err)
		}
		// Seeds 7, 42, 7 form one indivisible run; seed 9's two cells
		// can each stand alone.
		if want := min(n, 3); len(shards) != want {
			t.Errorf("Shards(%d) planned %d shards, want %d", n, len(shards), want)
		}
		sims := 0
		for _, sh := range shards {
			sims += sh.Sims()
		}
		if sims != total {
			t.Errorf("Shards(%d) plans %d sims, TotalSims is %d", n, sims, total)
		}
	}
}

// TestShardedRunByteIdentical is the tentpole pin at the sweep layer:
// an unsharded serial run, a 1-shard run, and an N-shard run (partials
// merged out of order) must produce byte-identical Result JSON.
func TestShardedRunByteIdentical(t *testing.T) {
	g := testGrid()
	serial, err := New(Options{Parallel: 1}).Run(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3} {
		e := New(Options{Parallel: 4})
		shards, err := g.Shards(n)
		if err != nil {
			t.Fatal(err)
		}
		parts := make([]Partial, len(shards))
		for i, sh := range shards {
			p, err := e.RunShard(context.Background(), g, sh, nil)
			if err != nil {
				t.Fatalf("shard %d: %v", i, err)
			}
			// Reverse arrival order: merging must not depend on it.
			parts[len(shards)-1-i] = *p
		}
		merged, err := g.MergePartials(parts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := merged.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: merged sharded result differs from serial run:\n--- merged ---\n%s\n--- serial ---\n%s", n, got, want)
		}
	}
}

// TestRunShardProgress pins the shard's own simulation accounting: the
// progress callback counts the shard's jobs plus its baselines, ending
// exactly at Shard.Sims().
func TestRunShardProgress(t *testing.T) {
	g := Grid{Specs: []string{"none", "16-11a"}, Workloads: []string{"Apache", "Qry1"}, Seeds: []uint64{42}, Scale: testScale}
	shards, err := g.Shards(2)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Parallel: 2})
	for _, sh := range shards {
		var last, calls int
		if _, err := e.RunShard(context.Background(), g, sh, func(done, total int) {
			calls++
			if done != calls || total != sh.Sims() {
				t.Errorf("shard %d progress (%d,%d), want (%d,%d)", sh.Index, done, total, calls, sh.Sims())
			}
			last = done
		}); err != nil {
			t.Fatal(err)
		}
		if last != sh.Sims() {
			t.Errorf("shard %d progress ended at %d, want %d", sh.Index, last, sh.Sims())
		}
	}
}

// TestMergePartialsValidation pins the merge's tiling checks: gaps,
// overlaps, foreign hashes, short rows and misnumbered rows all error
// instead of assembling a silently wrong result.
func TestMergePartialsValidation(t *testing.T) {
	// Two cells, so Shards(2) yields the two partials the gap and overlap
	// cases need.
	g := Grid{Specs: []string{"none", "16-11a"}, Workloads: []string{"Apache", "Qry1"}, Seeds: []uint64{42}, Scale: testScale}
	e := New(Options{Parallel: 2})
	shards, err := g.Shards(2)
	if err != nil {
		t.Fatal(err)
	}
	var parts []Partial
	for _, sh := range shards {
		p, err := e.RunShard(context.Background(), g, sh, nil)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, *p)
	}
	if len(parts) != 2 {
		t.Fatalf("Shards(2) of a two-cell grid gave %d partials, want 2", len(parts))
	}
	if _, err := g.MergePartials(parts); err != nil {
		t.Fatalf("valid partials rejected: %v", err)
	}

	corrupt := func(name string, mutate func([]Partial) []Partial) {
		cp := make([]Partial, len(parts))
		for i := range parts {
			cp[i] = parts[i]
			cp[i].Rows = append([]Row(nil), parts[i].Rows...)
		}
		if _, err := g.MergePartials(mutate(cp)); err == nil {
			t.Errorf("%s: merge accepted, want error", name)
		}
	}
	corrupt("gap", func(ps []Partial) []Partial { return ps[:1] })
	corrupt("overlap", func(ps []Partial) []Partial { return append(ps, ps[len(ps)-1]) })
	corrupt("foreign hash", func(ps []Partial) []Partial { ps[0].Hash = "feedfacefeedface"; return ps })
	corrupt("short rows", func(ps []Partial) []Partial { ps[0].Rows = ps[0].Rows[:0]; return ps })
	corrupt("misnumbered row", func(ps []Partial) []Partial { ps[0].Rows[0].Job = 99; return ps })
}

// TestRunShardBadRange pins range validation: a shard outside the grid's
// jobs errors without simulating.
func TestRunShardBadRange(t *testing.T) {
	g := Grid{Specs: []string{"none"}, Workloads: []string{"Apache"}, Seeds: []uint64{42}, Scale: testScale}
	e := New(Options{Parallel: 1})
	for _, sh := range []Shard{{Start: -1, End: 1}, {Start: 0, End: 99}, {Start: 1, End: 1}} {
		if _, err := e.RunShard(context.Background(), g, sh, nil); err == nil {
			t.Errorf("RunShard accepted range [%d,%d)", sh.Start, sh.End)
		}
	}
}

// TestPlanMatchesPieces pins Grid.Plan against the quantities it
// replaces: StreamHeader's bytes and job count, and TotalSims.
func TestPlanMatchesPieces(t *testing.T) {
	g := testGrid()
	plan, err := g.Plan()
	if err != nil {
		t.Fatal(err)
	}
	header, jobs, err := StreamHeader(g)
	if err != nil {
		t.Fatal(err)
	}
	total, err := g.TotalSims()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plan.Header, header) {
		t.Error("Plan.Header differs from StreamHeader")
	}
	if plan.Jobs != jobs || plan.TotalSims != total {
		t.Errorf("Plan = {Jobs:%d TotalSims:%d}, want {%d %d}", plan.Jobs, plan.TotalSims, jobs, total)
	}
}
