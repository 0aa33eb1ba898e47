package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pvsim/internal/workloads"
)

func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"table1", "fig4", "fig11", "space", "btb",
		// The registry sections: predictor families and named configs.
		"registered predictors", "sms", "stride",
		"named configs", "PV-8", "1K-11a", "stride-PV-8", "btb-PV-8",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list output missing %q:\n%s", want, out.String())
		}
	}
}

// TestListWorkloads checks that the workloads section of `pvsim list` names
// every workload with its class, one line each, before the next section's
// blank line.
func TestListWorkloads(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"list"}, &out); err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(out.String(), "\nworkloads:\n")
	if !ok {
		t.Fatalf("list output has no workloads: section:\n%s", out.String())
	}
	section, _, _ = strings.Cut(section, "\n\n")
	lines := strings.Split(section, "\n")
	if len(lines) != len(workloads.All()) {
		t.Fatalf("workloads: section has %d lines, want %d:\n%s", len(lines), len(workloads.All()), section)
	}
	for i, w := range workloads.All() {
		if f := strings.Fields(lines[i]); len(f) < 2 || f[0] != w.Name || f[1] != w.Class {
			t.Errorf("workloads: line %d is %q, want %s (%s)", i, lines[i], w.Name, w.Class)
		}
	}
}

func TestRunStaticExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scale", "0.01", "table3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "59.125KB") {
		t.Errorf("table3 output:\n%s", out.String())
	}
}

func TestRunMarkdownFormat(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-format", "md", "space"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "## space") {
		t.Errorf("markdown output:\n%s", out.String())
	}
}

func TestRunCSVFormat(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-format", "csv", "table3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Configuration,Tags") {
		t.Errorf("csv output:\n%s", out.String())
	}
}

// TestScaleRejected pins -scale validation at flag parsing, for the
// experiment runner and for sweeps: NaN, infinities, negative values and
// scales whose access count overflows an int error before anything runs.
// Unchecked, NaN ran experiments at the 1000-access floor and panicked a
// sweep's grid hash, a negative scale silently became a full-scale run,
// and 1e20 overflowed to the 1000-access floor.
func TestScaleRejected(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"experiment NaN", []string{"-scale", "NaN", "fig4"}},
		{"experiment +Inf", []string{"-scale", "+Inf", "table3"}},
		{"experiment -Inf", []string{"-scale", "-Inf", "table3"}},
		{"experiment negative", []string{"-scale", "-1", "table3"}},
		{"sweep NaN", []string{"sweep", "-specs", "PV-8", "-workloads", "Apache", "-scale", "NaN"}},
		{"sweep +Inf", []string{"sweep", "-specs", "PV-8", "-workloads", "Apache", "-scale", "+Inf"}},
		{"sweep negative", []string{"sweep", "-specs", "PV-8", "-workloads", "Apache", "-scale", "-1"}},
		{"experiment 1e20", []string{"-scale", "1e20", "table3"}},
		{"experiment 1e300", []string{"-scale", "1e300", "table3"}},
		{"sweep 1e20", []string{"sweep", "-specs", "PV-8", "-workloads", "Apache", "-scale", "1e20"}},
		{"sweep 1e300", []string{"sweep", "-specs", "PV-8", "-workloads", "Apache", "-scale", "1e300"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(c.args, &out)
			if err == nil || !strings.Contains(err.Error(), "-scale") {
				t.Errorf("run(%q) = %v, want a -scale error", c.args, err)
			}
			if out.Len() != 0 {
				t.Errorf("run(%q) printed output:\n%s", c.args, out.String())
			}
		})
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil {
		t.Error("no arguments accepted")
	}
	if err := run([]string{"not-an-experiment"}, &out); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run([]string{"-format", "xml", "table3"}, &out); err == nil {
		t.Error("unknown format accepted")
	}
}

// TestRunOutputFileKeptOnBadID pins that a typo in an experiment id fails
// before -o touches the output file: an existing file keeps its bytes.
func TestRunOutputFileKeptOnBadID(t *testing.T) {
	file := filepath.Join(t.TempDir(), "keep.txt")
	want := []byte("earlier results\n")
	if err := os.WriteFile(file, want, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-o", file, "table1", "nosuchexp"}, &out); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	got, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("-o file rewritten on a bad id: %q, want %q", got, want)
	}
}

// TestHelpExitsZero checks that -h on the experiment command and on every
// subcommand makes run return flag.ErrHelp, which exits 0, while a real
// error still exits 1.
func TestHelpExitsZero(t *testing.T) {
	for _, args := range [][]string{
		{"-h"}, {"sweep", "-h"}, {"serve", "-h"}, {"shard", "-h"}, {"mc", "-h"},
	} {
		err := run(args, &bytes.Buffer{})
		if !errors.Is(err, flag.ErrHelp) {
			t.Errorf("pvsim %s returned %v, want flag.ErrHelp", strings.Join(args, " "), err)
		}
		if code := exitCode(err); code != 0 {
			t.Errorf("pvsim %s exits %d, want 0", strings.Join(args, " "), code)
		}
	}
	if code := exitCode(errors.New("no experiment given")); code != 1 {
		t.Errorf("a real error exits %d, want 1", code)
	}
}
