package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
