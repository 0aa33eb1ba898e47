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
			shards, err := PlanShards(jobs, n)
			if err != nil {
				t.Fatalf("%s: PlanShards(%d): %v", name, n, err)
			}
			if want := min(n, cells); len(shards) != want {
				t.Fatalf("%s: PlanShards(%d) planned %d shards, want %d", name, n, len(shards), want)
			}
			owner := map[BaselineRef]int{}
			next, sims := 0, 0
			for i, sh := range shards {
				if sh.Index != i || sh.Start != next || sh.End <= sh.Start {
					t.Fatalf("%s: PlanShards(%d)[%d] = #%d [%d,%d), want #%d contiguous non-empty from %d", name, n, i, sh.Index, sh.Start, sh.End, i, next)
				}
				own := cellsOf(jobs[sh.Start:sh.End])
				for c := range own {
					if prev, ok := owner[c]; ok {
						t.Errorf("%s: PlanShards(%d): cell %+v in shards %d and %d", name, n, c, prev, i)
					}
					owner[c] = i
				}
				// Balanced: the first cells%n shards carry one extra cell.
				want := cells / len(shards)
				if i < cells%len(shards) {
					want++
				}
				if len(own) != want {
					t.Errorf("%s: PlanShards(%d)[%d] holds %d cells, want %d", name, n, i, len(own), want)
				}
				if len(sh.Baselines) != len(own) {
					t.Errorf("%s: PlanShards(%d)[%d] lists %d baselines, range has %d cells", name, n, i, len(sh.Baselines), len(own))
				}
				for _, b := range sh.Baselines {
					if !own[b] {
						t.Errorf("%s: PlanShards(%d)[%d] lists baseline %+v not in its range", name, n, i, b)
					}
				}
				sims += sh.Sims()
				next = sh.End
			}
			if next != len(jobs) {
				t.Fatalf("%s: PlanShards(%d) covers %d of %d jobs", name, n, next, len(jobs))
			}
			if sims != total {
				t.Errorf("%s: PlanShards(%d) plans %d sims, TotalSims is %d", name, n, sims, total)
			}
		}
	}
	jobs, err := testGrid().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PlanShards(jobs, 0); err == nil {
		t.Error("PlanShards(0) accepted, want error")
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
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	total, err := g.TotalSims()
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 4; n++ {
		shards, err := PlanShards(jobs, n)
		if err != nil {
			t.Fatal(err)
		}
		// Seeds 7, 42, 7 form one indivisible run; seed 9's two cells
		// can each stand alone.
		if want := min(n, 3); len(shards) != want {
			t.Errorf("PlanShards(%d) planned %d shards, want %d", n, len(shards), want)
		}
		sims := 0
		for _, sh := range shards {
			sims += sh.Sims()
		}
		if sims != total {
			t.Errorf("PlanShards(%d) plans %d sims, TotalSims is %d", n, sims, total)
		}
	}
}

// TestShardedRunByteIdentical is the tentpole pin at the sweep layer:
// an unsharded serial run, a 1-shard run, and an N-shard run (partials
// checked and put into one release buffer in reverse arrival order, the
// coordinator's path) must produce byte-identical Result JSON.
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
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3} {
		e := New(Options{Parallel: 4})
		shards, err := PlanShards(jobs, n)
		if err != nil {
			t.Fatal(err)
		}
		parts := make([]*Partial, len(shards))
		for i, sh := range shards {
			if parts[i], err = e.RunShard(context.Background(), g, nil, sh, nil, nil); err != nil {
				t.Fatalf("shard %d: %v", i, err)
			}
		}
		rel := NewReleaser(0, len(jobs), nil)
		for i := len(shards) - 1; i >= 0; i-- {
			if err := CheckPartial(parts[i], jobs, shards[i]); err != nil {
				t.Fatalf("shard %d: %v", i, err)
			}
			rel.Put(parts[i].Rows...)
		}
		merged, err := rel.Result(g)
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
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	shards, err := PlanShards(jobs, 2)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Parallel: 2})
	for _, sh := range shards {
		var last, calls int
		if _, err := e.RunShard(context.Background(), g, nil, sh, func(done, total int) {
			calls++
			if done != calls || total != sh.Sims() {
				t.Errorf("shard %d progress (%d,%d), want (%d,%d)", sh.Index, done, total, calls, sh.Sims())
			}
			last = done
		}, nil); err != nil {
			t.Fatal(err)
		}
		if last != sh.Sims() {
			t.Errorf("shard %d progress ended at %d, want %d", sh.Index, last, sh.Sims())
		}
	}
}

// TestCheckPartial pins the coordinator's check of a worker's partial:
// the honest answer passes, and a wrong range, short rows, a misnumbered
// row or a foreign config hash each error instead of reaching the
// release buffer.
func TestCheckPartial(t *testing.T) {
	// Two cells, so the plan has two shards and one can answer for the
	// other.
	g := Grid{Specs: []string{"none", "16-11a"}, Workloads: []string{"Apache", "Qry1"}, Seeds: []uint64{42}, Scale: testScale}
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	shards, err := PlanShards(jobs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 2 {
		t.Fatalf("PlanShards(2) of a two-cell grid gave %d shards, want 2", len(shards))
	}
	e := New(Options{Parallel: 2})
	var parts []Partial
	for _, sh := range shards {
		p, err := e.RunShard(context.Background(), g, jobs, sh, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, *p)
	}
	for _, c := range []struct {
		name   string
		mutate func(p *Partial)
		ok     bool
	}{
		{"honest", func(*Partial) {}, true},
		{"wrong range", func(p *Partial) { *p = parts[1] }, false},
		{"shifted range", func(p *Partial) { p.Start++ }, false},
		{"short rows", func(p *Partial) { p.Rows = p.Rows[:len(p.Rows)-1] }, false},
		{"misnumbered row", func(p *Partial) { p.Rows[0].Job = 99 }, false},
		{"foreign config hash", func(p *Partial) { p.Rows[len(p.Rows)-1].Config = "feedfacefeedface" }, false},
	} {
		p := parts[0]
		p.Rows = append([]Row(nil), p.Rows...)
		c.mutate(&p)
		if err := CheckPartial(&p, jobs, shards[0]); (err == nil) != c.ok {
			t.Errorf("%s: CheckPartial = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestRunShardBadRange pins range validation: a shard outside the grid's
// jobs errors without simulating.
func TestRunShardBadRange(t *testing.T) {
	g := Grid{Specs: []string{"none"}, Workloads: []string{"Apache"}, Seeds: []uint64{42}, Scale: testScale}
	e := New(Options{Parallel: 1})
	for _, sh := range []Shard{{Start: -1, End: 1}, {Start: 0, End: 99}, {Start: 1, End: 1}} {
		if _, err := e.RunShard(context.Background(), g, nil, sh, nil, nil); err == nil {
			t.Errorf("RunShard accepted range [%d,%d)", sh.Start, sh.End)
		}
	}
}

// TestPlanMatchesPieces pins Grid.Plan against the quantities it
// summarizes, each derived here on its own: the zero-row Result encoding
// cut after the rows array's bracket, the job expansion's length, and the
// jobs plus one baseline per distinct (seed, scenario) cell.
func TestPlanMatchesPieces(t *testing.T) {
	g := testGrid()
	plan, err := g.Plan()
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	n := g.normalized()
	empty, err := (&Result{Grid: n, Hash: n.Hash(), Jobs: len(jobs), Rows: []Row{}}).JSON()
	if err != nil {
		t.Fatal(err)
	}
	header := empty[:bytes.LastIndex(empty, rowsArrayOpen)+len(rowsArrayOpen)]
	if !bytes.Equal(plan.Header, header) {
		t.Errorf("Plan.Header = %q, want %q", plan.Header, header)
	}
	cells := map[baselineCell]bool{}
	for _, j := range jobs {
		cells[baselineCell{j.Seed, j.Scenario}] = true
	}
	if plan.Jobs != len(jobs) || plan.TotalSims != len(jobs)+len(cells) {
		t.Errorf("Plan = {Jobs:%d TotalSims:%d}, want {%d %d}", plan.Jobs, plan.TotalSims, len(jobs), len(jobs)+len(cells))
	}
}
