package sweep

import (
	"bytes"
	"encoding/json"
	"regexp"
	"testing"

	_ "pvsim/pv/predictors"
)

var hashShape = regexp.MustCompile(`^[0-9a-f]{16}$`)

// FuzzDecodeGrid pins the grid wire format from both sides — the bytes
// `pvsim sweep -grid` and the serve API accept:
//
//  1. DecodeGrid never panics, whatever bytes arrive.
//  2. Anything it accepts has a well-formed, deterministic identity:
//     Hash() is 16 lowercase hex chars and survives a marshal/decode
//     round trip (the dedup and disk-store key is stable across the
//     wire).
//  3. Anything that also Validates expands: Jobs() succeeds, job count
//     is positive, expansion order indexes are dense, and TotalSims
//     adds at least one matched baseline.
func FuzzDecodeGrid(f *testing.F) {
	seeds := []Grid{
		{Specs: []string{"PV-8"}},
		{Specs: []string{"16-11a", "PV-8"}, Workloads: []string{"Apache", "Qry1"}, Seeds: []uint64{42, 7}, Scale: 0.01},
		{Specs: []string{"none"}, Mixes: []string{"oltp-web", "DB2@500+Apache@500"}, PhaseFlush: true},
		{Specs: []string{"PV-8"}, PVCache: []int{4, 8}, Timing: true, Cost: true},
	}
	for _, g := range seeds {
		b, err := json.Marshal(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"specs":["PV-8"],"bogus":1}`))
	f.Add([]byte(`{"specs":[],"pvcache":[0]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"specs":["PV-8"],"scale":-1}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeGrid(bytes.NewReader(data))
		if err != nil {
			return // rejected is fine; rejecting by panic is not
		}
		id := g.Hash()
		if !hashShape.MatchString(id) {
			t.Fatalf("Hash() = %q, want 16 lowercase hex chars", id)
		}
		// The wire round trip preserves identity: what a client re-submits
		// from a marshaled grid must dedup against the original.
		b, err := json.Marshal(g)
		if err != nil {
			t.Fatalf("accepted grid does not re-marshal: %v", err)
		}
		again, err := DecodeGrid(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("marshaled grid does not re-decode: %v\n%s", err, b)
		}
		if again.Hash() != id {
			t.Fatalf("round trip changed hash %s -> %s\n%s", id, again.Hash(), b)
		}

		if err := g.Validate(); err != nil {
			return
		}
		// Cap expansion so a fuzz-built mega-grid cannot stall the run; the
		// axes still exercise each other below the cap.
		axis := func(n int) int {
			if n == 0 {
				return 1
			}
			return n
		}
		cells := len(g.Specs) * (axis(len(g.Workloads)+len(g.Mixes)) * 8) * axis(len(g.Seeds)) * axis(len(g.PVCache))
		if cells > 512 {
			t.Skip("grid too large to expand under fuzzing")
		}
		jobs, err := g.Jobs()
		if err != nil {
			t.Fatalf("valid grid does not expand: %v", err)
		}
		if len(jobs) == 0 {
			t.Fatal("valid grid expanded to zero jobs")
		}
		for i, j := range jobs {
			if j.Index != i {
				t.Fatalf("job %d carries index %d; expansion order broken", i, j.Index)
			}
		}
		total, err := g.TotalSims()
		if err != nil {
			t.Fatalf("TotalSims on valid grid: %v", err)
		}
		if total <= len(jobs) {
			t.Fatalf("TotalSims = %d with %d jobs; matched baselines missing", total, len(jobs))
		}
	})
}

// FuzzPartialMerge pins the shard protocol's merge against adversarial
// partials — the bytes a coordinator decodes from a worker:
//
//  1. Decoding and MergePartials never panic, whatever bytes arrive.
//  2. Anything MergePartials accepts tiles the grid exactly: the partials
//     carry no foreign grid hash, their ranges cover every job once, the
//     result carries one row per job in expansion order under the grid's
//     hash, and each row is the one its partial sent for that slot.
func FuzzPartialMerge(f *testing.F) {
	g := Grid{Specs: []string{"none", "PV-8"}, Workloads: []string{"Apache", "Qry1"}, Scale: testScale}
	jobs, err := g.Jobs()
	if err != nil {
		f.Fatal(err)
	}
	hash := g.Hash()
	partial := func(start, end int) Partial {
		p := Partial{Hash: hash, Start: start, End: end}
		for i := start; i < end; i++ {
			p.Rows = append(p.Rows, Row{Job: i, Workload: jobs[i].Scenario, Spec: jobs[i].SpecName})
		}
		return p
	}
	n := len(jobs)
	foreign := partial(0, n)
	foreign.Hash = "feedfacefeedface"
	for _, parts := range [][]Partial{
		{foreign},
		{partial(0, n)},
		{partial(0, n/2), partial(n/2, n)},
		{partial(n/2, n), partial(0, n/2)},
		{partial(0, 1), partial(1, n)},
		{partial(0, n/2)},
		{partial(0, n/2), partial(0, n/2), partial(n/2, n)},
		{partial(0, n/2), partial(n/2-1, n)},
		{},
	} {
		b, err := json.Marshal(parts)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`[{"start":0,"end":-1,"rows":[]}]`))
	f.Add([]byte(`[null,{"start":2,"end":0}]`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var parts []Partial
		if err := json.Unmarshal(data, &parts); err != nil {
			return
		}
		res, err := g.MergePartials(parts)
		if err != nil {
			return // rejected is fine; rejecting by panic is not
		}
		if res.Hash != hash || res.Jobs != n || len(res.Rows) != n {
			t.Fatalf("merge accepted: hash %s jobs %d rows %d, want %s %d %d", res.Hash, res.Jobs, len(res.Rows), hash, n, n)
		}
		for i, r := range res.Rows {
			if r.Job != i {
				t.Fatalf("merged row %d carries job %d", i, r.Job)
			}
		}
		covered := 0
		for _, p := range parts {
			if p.Hash != "" && p.Hash != hash {
				t.Fatalf("merge accepted a partial for grid %s", p.Hash)
			}
			if p.Start < 0 || p.End > n || p.End-p.Start != len(p.Rows) {
				t.Fatalf("merge accepted partial [%d,%d) with %d rows over %d jobs", p.Start, p.End, len(p.Rows), n)
			}
			for i, r := range p.Rows {
				if res.Rows[p.Start+i] != r {
					t.Fatalf("merged row %d differs from the one partial [%d,%d) sent", p.Start+i, p.Start, p.End)
				}
			}
			covered += len(p.Rows)
		}
		if covered != n {
			t.Fatalf("merge accepted partials covering %d rows of %d jobs", covered, n)
		}
	})
}
