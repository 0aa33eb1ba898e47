package experiments

import (
	"math"
	"slices"
	"strings"
	"testing"

	"pvsim/internal/workloads"
)

// checkRows asserts the row shape every renderer reads: one row per
// workload, in the order want gives, and every value finite.
func checkRows[R any](t *testing.T, id string, rows []R, want []string, fields func(R) (string, []float64)) {
	t.Helper()
	if len(rows) != len(want) {
		t.Fatalf("%s: %d rows, want %d", id, len(rows), len(want))
	}
	for i, row := range rows {
		name, vals := fields(row)
		if name != want[i] {
			t.Errorf("%s: row %d is %s, want %s", id, i, name, want[i])
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s holds %v", id, name, v)
			}
		}
	}
}

// TestFigureRows pins each figure's typed rows: one per workload in
// workloads.All() order (fig5: its three, in that order), every value
// finite, every speedup pair accepted, and fig10's three L2 sizes per
// workload in ascending order.
func TestFigureRows(t *testing.T) {
	r := NewRunner(Options{Scale: determinismScale, Seed: 42})
	all := workloads.Names()

	coverage := func(c CoverageRow) (string, []float64) {
		vals := []float64{c.MissRate, c.L2Hit}
		for _, cv := range c.Cov {
			vals = append(vals, cv.Covered, cv.Uncovered, cv.Overpredicted)
		}
		return c.Workload, vals
	}
	checkRows(t, "fig4", fig4Rows(r), all, coverage)
	checkRows(t, "fig5", fig5Rows(r), []string{"Apache", "Oracle", "Qry17"}, coverage)

	checkRows(t, "fig6", fig6Rows(r), all, func(f Fig6Row) (string, []float64) {
		return f.Workload, []float64{f.PV8, f.PV16, f.PV32}
	})
	checkRows(t, "fig8", fig8Rows(r), all, func(f Fig8Row) (string, []float64) {
		return f.Workload, []float64{f.AppMisses, f.PVMisses, f.AppWritebacks, f.PVWritebacks, f.L2Fill}
	})

	offChip := func(wantSizes []int) func(OffChipRow) (string, []float64) {
		return func(o OffChipRow) (string, []float64) {
			var sizes []int
			var vals []float64
			for _, c := range o.Cells {
				sizes = append(sizes, c.L2Bytes)
				vals = append(vals, c.Misses, c.Writebacks, c.Total)
			}
			if !slices.Equal(sizes, wantSizes) {
				t.Errorf("%s: L2 sizes %v, want %v", o.Workload, sizes, wantSizes)
			}
			return o.Workload, vals
		}
	}
	checkRows(t, "fig7", fig7Rows(r), all, offChip([]int{8 << 20, 8 << 20}))
	checkRows(t, "fig10", fig10Rows(r), all, offChip([]int{2 << 20, 4 << 20, 8 << 20}))

	speedup := func(s SpeedupRow) (string, []float64) {
		var vals []float64
		for _, iv := range s.Speedups {
			if iv.N == 0 {
				t.Errorf("%s: a speedup pair was rejected", s.Workload)
			}
			vals = append(vals, iv.Mean, iv.Half)
		}
		return s.Workload, vals
	}
	checkRows(t, "fig9", fig9Rows(r), all, speedup)
	checkRows(t, "fig11", fig11Rows(r), all, speedup)
}

// TestCalibDocument drives the calibration dashboard after the figures
// it reads: it must simulate nothing of its own, print one row per
// workload under every column header the calibration workflow reads, and
// hold no NaN cell.
func TestCalibDocument(t *testing.T) {
	r := NewRunner(Options{Scale: determinismScale, Seed: 42})
	for _, id := range []string{"fig4", "fig6", "fig8", "fig9"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		e.Run(r)
	}
	before := r.CachedResults()
	e, err := ByID("calib")
	if err != nil {
		t.Fatal(err)
	}
	doc := e.Run(r)
	if got := r.CachedResults(); got != before {
		t.Errorf("calib grew the result cache from %d to %d: it ran configs the figures do not", before, got)
	}

	tab := doc.Sections[0].Table
	for _, col := range []string{"Workload", "missRate", "L2hit", "Inf cov/ovr", "1K-11", "16-11", "8-11", "PV-8", "ΔL2req", "L2fill", "spd 1K", "spd PV8"} {
		if !slices.Contains(tab.Headers, col) {
			t.Errorf("dashboard lacks the %q column", col)
		}
	}
	var names []string
	for _, row := range tab.Rows {
		names = append(names, row[0])
	}
	if !slices.Equal(names, workloads.Names()) {
		t.Errorf("dashboard rows %v, want one per workload %v", names, workloads.Names())
	}
	if strings.Contains(doc.Text(), "NaN") {
		t.Error("dashboard contains NaN cells")
	}
}

// TestCalibDeterministic: two fresh runners at the same (scale, seed)
// must render identical dashboard bytes, like every other surface of the
// simulator.
func TestCalibDeterministic(t *testing.T) {
	e, err := ByID("calib")
	if err != nil {
		t.Fatal(err)
	}
	render := func() string {
		return e.Run(NewRunner(Options{Scale: determinismScale, Seed: 42})).Text()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("calib output is not deterministic:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}
