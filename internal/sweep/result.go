package sweep

import (
	"fmt"

	"pvsim/internal/report"
	"pvsim/internal/sim"
)

// Row is one job's structured outcome. Coverage fractions are measured
// against the job's matched baseline (same workload, seed, scale, timing;
// no prefetcher), exactly like the paper's figures.
type Row struct {
	Job  int    `json:"job"`
	Seed uint64 `json:"seed"`
	// Workload is the scenario label: the workload name, or the mix
	// name/spec for jobs from the grid's Mixes axis.
	Workload string `json:"workload"`
	Spec     string `json:"spec"`  // registered spec name, as given in the grid
	Label    string `json:"label"` // family label of the effective config ("PV-8", ...)
	PVCache  int    `json:"pvcache,omitempty"`
	Config   string `json:"config"` // sim.Config.Hash of the exact run

	Reads         uint64  `json:"reads"`
	Misses        uint64  `json:"misses"`
	MissRate      float64 `json:"miss_rate"`
	Covered       float64 `json:"covered"`
	Uncovered     float64 `json:"uncovered"`
	Overpredicted float64 `json:"overpredicted"`
	Issued        uint64  `json:"prefetch_issued"`
	Unused        uint64  `json:"prefetch_unused"`

	// Timing grids only.
	IPC     float64 `json:"ipc,omitempty"`
	Speedup float64 `json:"speedup,omitempty"` // vs the matched baseline, matched-pair mean

	// Cost grids only (Grid.Cost): the cost model's elapsed cycles,
	// cycles per access, and modeled speedup over the matched baseline
	// (baseline cycles / job cycles; >1 = prefetching helps).
	Cycles       uint64  `json:"cycles,omitempty"`
	CPA          float64 `json:"cpa,omitempty"`
	SpeedupProxy float64 `json:"speedup_proxy,omitempty"`
}

// Result is one finished sweep: the normalized grid it ran, its hash, and
// one row per job in expansion order. Identical grids produce identical
// Results — including their JSON bytes — at any parallelism.
type Result struct {
	Grid Grid   `json:"grid"`
	Hash string `json:"hash"`
	Jobs int    `json:"jobs"`
	Rows []Row  `json:"rows"`
}

// result wraps g's rows, one per job in expansion order, as its Result.
func (g Grid) result(rows []Row) *Result {
	g = g.normalized()
	return &Result{Grid: g, Hash: g.Hash(), Jobs: len(rows), Rows: rows}
}

// rowFor reduces one job's simulation (and its matched baseline) to a Row.
func rowFor(j Job, base, res sim.Result) Row {
	cov := sim.CoverageOf(base, res)
	row := Row{
		Job:      j.Index,
		Seed:     j.Seed,
		Workload: j.Scenario,
		Spec:     j.SpecName,
		Label:    j.Config.Prefetch.Label(),
		PVCache:  j.PVCache,
		Config:   j.Config.Hash(),

		Reads:         res.L1DReads(),
		Misses:        res.L1DReadMisses(),
		Covered:       cov.Covered,
		Uncovered:     cov.Uncovered,
		Overpredicted: cov.Overpredicted,
		Issued:        res.PrefetchIssued(),
		Unused:        res.PrefetchUnused(),
	}
	if row.Reads > 0 {
		row.MissRate = float64(row.Misses) / float64(row.Reads)
	}
	if j.Config.Timing {
		row.IPC = res.IPC
		if iv, err := sim.SpeedupOver(base, res); err == nil {
			row.Speedup = iv.Mean
		}
	}
	if j.Config.Cost.Enabled {
		row.Cycles = res.Cost.ElapsedCycles()
		row.CPA = res.Cost.CPA()
		row.SpeedupProxy = base.Cost.SlowdownOver(res.Cost)
	}
	return row
}

// JSON renders the result as indented deterministic JSON (same encoder
// contract as report.Doc.JSON).
func (r *Result) JSON() ([]byte, error) { return report.EncodeJSON(r) }

// Doc renders the result as a report document, so a sweep reuses the same
// text/markdown/CSV/JSON emitters as every paper experiment.
func (r *Result) Doc() *report.Doc {
	headers := []string{"Job", "Seed", "Workload", "Config", "PVCache", "Covered", "Uncovered", "Overpred", "MissRate"}
	if r.Grid.Timing {
		headers = append(headers, "IPC", "Speedup")
	}
	if r.Grid.Cost {
		headers = append(headers, "Cycles", "CPA", "SpdProxy")
	}
	t := report.NewTable(headers...)
	for _, row := range r.Rows {
		pvc := ""
		if row.PVCache > 0 {
			pvc = fmt.Sprintf("%d", row.PVCache)
		}
		cells := []string{
			fmt.Sprintf("%d", row.Job),
			fmt.Sprintf("%d", row.Seed),
			row.Workload,
			row.Label,
			pvc,
			report.Pct(row.Covered),
			report.Pct(row.Uncovered),
			report.Pct(row.Overpredicted),
			fmt.Sprintf("%.4f", row.MissRate),
		}
		if r.Grid.Timing {
			cells = append(cells,
				fmt.Sprintf("%.4f", row.IPC),
				fmt.Sprintf("%.4f", row.Speedup))
		}
		if r.Grid.Cost {
			cells = append(cells,
				fmt.Sprintf("%d", row.Cycles),
				fmt.Sprintf("%.4f", row.CPA),
				report.Ratio(row.SpeedupProxy))
		}
		t.AddRow(cells...)
	}
	doc := &report.Doc{
		ID:    "sweep",
		Title: fmt.Sprintf("parameter sweep (%d jobs, grid %s)", r.Jobs, r.Hash),
	}
	mixes := ""
	if len(r.Grid.Mixes) > 0 {
		mixes = fmt.Sprintf(" mixes=%v phase_flush=%v", r.Grid.Mixes, r.Grid.PhaseFlush)
	}
	if r.Grid.Cost {
		mixes += " cost=true"
	}
	doc.Add(report.Section{
		Table: t,
		Body: fmt.Sprintf("Grid: specs=%v workloads=%v pvcache=%v seeds=%v scale=%g timing=%v%s\n"+
			"Coverage fractions are against each job's matched no-prefetcher baseline.\n"+
			"Rows are in grid expansion order (seed-major), identical at any -p.",
			r.Grid.Specs, r.Grid.Workloads, r.Grid.PVCache, r.Grid.Seeds, r.Grid.Scale, r.Grid.Timing, mixes),
	})
	return doc
}
