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

// FuzzPartialMerge pins the coordinator's side of the shard protocol
// against adversarial partials — the bytes it decodes from a worker for
// one shard of its plan:
//
//  1. Decoding and CheckPartial never panic, whatever bytes arrive.
//  2. Anything CheckPartial accepts goes into a release buffer over the
//     shard's jobs without a panic, and the buffer releases exactly the
//     shard's jobs, in expansion order, each the row the partial sent.
func FuzzPartialMerge(f *testing.F) {
	g := Grid{Specs: []string{"none", "PV-8"}, Workloads: []string{"Apache", "Qry1"}, Scale: testScale}
	jobs, err := g.Jobs()
	if err != nil {
		f.Fatal(err)
	}
	shards, err := PlanShards(jobs, 2)
	if err != nil {
		f.Fatal(err)
	}
	partial := func(start, end int) Partial {
		p := Partial{Hash: g.Hash(), Start: start, End: end}
		for _, j := range jobs[start:end] {
			p.Rows = append(p.Rows, Row{Job: j.Index, Workload: j.Scenario, Spec: j.SpecName, Config: j.Config.Hash()})
		}
		return p
	}
	for k, sh := range shards {
		honest := partial(sh.Start, sh.End)
		short := partial(sh.Start, sh.End)
		short.Rows = short.Rows[1:]
		misnumbered := partial(sh.Start, sh.End)
		misnumbered.Rows[0].Job++
		foreign := partial(sh.Start, sh.End)
		foreign.Rows[0].Config = "feedfacefeedface"
		other := shards[1-k]
		for _, p := range []Partial{honest, short, misnumbered, foreign, partial(other.Start, other.End)} {
			b, err := json.Marshal(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b, uint8(k))
		}
	}
	f.Add([]byte(`{"start":0,"end":-1,"rows":[]}`), uint8(0))
	f.Add([]byte(`{"start":2,"end":0,"rows":[null]}`), uint8(1))
	f.Add([]byte(`null`), uint8(0))
	f.Add([]byte(`not json`), uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, pick uint8) {
		sh := shards[int(pick)%len(shards)]
		var p Partial
		if err := json.Unmarshal(data, &p); err != nil {
			return
		}
		if err := CheckPartial(&p, jobs, sh); err != nil {
			return // rejected is fine; rejecting by panic is not
		}
		var released []Row
		rel := NewReleaser(sh.Start, sh.End-sh.Start, func(r Row) { released = append(released, r) })
		rel.Put(p.Rows...)
		if len(released) != sh.End-sh.Start {
			t.Fatalf("accepted partial released %d rows, shard [%d,%d) has %d jobs", len(released), sh.Start, sh.End, sh.End-sh.Start)
		}
		for i, r := range released {
			if r.Job != sh.Start+i || r != p.Rows[i] {
				t.Fatalf("released row %d carries job %d, want job %d as the partial sent it", i, r.Job, sh.Start+i)
			}
		}
	})
}
