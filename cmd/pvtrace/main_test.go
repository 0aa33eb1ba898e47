package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Oracle") {
		t.Errorf("list output:\n%s", out.String())
	}
}

// TestRecordAndInspect records a workload's access stream to a file — a
// compiled PVA2 trace, the one on-disk format — and checks that inspecting
// it reports every access.
func TestRecordAndInspect(t *testing.T) {
	file := filepath.Join(t.TempDir(), "t.pvc")
	var out bytes.Buffer
	if err := run([]string{"-compile", "-workload", "Qry1", "-n", "5000", "-o", file}, &out); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(file); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-inspect", file}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "accesses:        5000") {
		t.Errorf("inspect output:\n%s", out.String())
	}
}

// TestCompileDeterministic mirrors the pvcalib determinism pin for the
// trace compiler: two compilations of the same (workload, seed, core, n)
// must be byte-identical files with byte-identical command output, a
// different seed must change the bytes, and inspecting the same file
// twice must render identical summaries.
func TestCompileDeterministic(t *testing.T) {
	dir := t.TempDir()
	compile := func(file, seed string) (fileBytes []byte, cmdOut string) {
		t.Helper()
		var out bytes.Buffer
		if err := run([]string{"-compile", "-workload", "DB2", "-n", "4000", "-seed", seed, "-o", file}, &out); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		// The summary line names the output file; normalize it away so
		// compilations into different paths stay comparable.
		return b, strings.ReplaceAll(out.String(), file, "OUT")
	}
	a, aOut := compile(filepath.Join(dir, "a.pvc"), "42")
	b, bOut := compile(filepath.Join(dir, "b.pvc"), "42")
	if !bytes.Equal(a, b) {
		t.Fatalf("same (workload, seed, n) compiled different bytes: %d vs %d", len(a), len(b))
	}
	if aOut != bOut {
		t.Fatalf("compile output differs for identical compilations:\n--- a ---\n%s\n--- b ---\n%s", aOut, bOut)
	}
	c, _ := compile(filepath.Join(dir, "c.pvc"), "43")
	if bytes.Equal(a, c) {
		t.Fatal("seed 43 compiled the same bytes as seed 42; seeding is broken")
	}

	inspect := func(file string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run([]string{"-inspect", file}, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	first := inspect(filepath.Join(dir, "a.pvc"))
	if second := inspect(filepath.Join(dir, "a.pvc")); first != second {
		t.Fatalf("inspect is not deterministic:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if !strings.Contains(first, "accesses:        4000") {
		t.Errorf("inspect summary:\n%s", first)
	}
}

// TestCompileAndInspect exercises the PVA2 path end to end: compile the
// same stream at two chunk lengths and inspect both — the chunking is an
// encoding detail, so the two must summarize identically.
func TestCompileAndInspect(t *testing.T) {
	dir := t.TempDir()
	small := filepath.Join(dir, "small.pvc")
	dflt := filepath.Join(dir, "default.pvc")

	var out bytes.Buffer
	if err := run([]string{"-compile", "-workload", "Qry1", "-n", "5000", "-chunk", "1024", "-o", small}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "5 chunks of 1024") {
		t.Errorf("compile output:\n%s", out.String())
	}
	if _, err := os.Stat(small); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-compile", "-workload", "Qry1", "-n", "5000", "-o", dflt}, &out); err != nil {
		t.Fatal(err)
	}

	inspect := func(file string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run([]string{"-inspect", file}, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	a, b := inspect(small), inspect(dflt)
	for name, s := range map[string]string{"small": a, "default": b} {
		if !strings.Contains(s, "PVA2 compiled") {
			t.Errorf("%s inspect does not name the format:\n%s", name, s)
		}
		if !strings.Contains(s, "workload=Qry1 seed=42 core=0") {
			t.Errorf("%s inspect does not show the provenance:\n%s", name, s)
		}
		if !strings.Contains(s, "accesses:        5000") {
			t.Errorf("%s inspect summary:\n%s", name, s)
		}
	}
	// Same stream, same statistics: strip the format line and compare.
	strip := func(s string) string { return s[strings.Index(s, "accesses:"):] }
	if strip(a) != strip(b) {
		t.Fatalf("summaries diverge across chunk lengths:\n--- 1024 ---\n%s--- default ---\n%s", a, b)
	}
}

func TestErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil {
		t.Error("no mode accepted")
	}
	if err := run([]string{"-compile"}, &out); err == nil {
		t.Error("compile without -o accepted")
	}
	if err := run([]string{"-compile", "-workload", "nope", "-o", filepath.Join(t.TempDir(), "x")}, &out); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := run([]string{"-record", "-o", filepath.Join(t.TempDir(), "x")}, &out); err == nil {
		t.Error("removed -record flag accepted")
	}
	if err := run([]string{"-inspect", "/does/not/exist"}, &out); err == nil {
		t.Error("missing file accepted")
	}
	// A file that is not a compiled trace is rejected by its magic.
	notTrace := filepath.Join(t.TempDir(), "not.pvc")
	if err := os.WriteFile(notTrace, append([]byte("XXXX"), make([]byte, 60)...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-inspect", notTrace}, &out); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("non-PVA2 file: err = %v, want a bad-magic error", err)
	}
}

// TestCompileFlagEdges pins the numeric flag checks: a negative -core or
// -chunk is rejected before anything is written, -chunk 0 means the
// default, and an empty trace compiles and inspects to finite figures.
func TestCompileFlagEdges(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string // substring of the error; "" means success
		wantOut string // substring of the output on success
	}{
		{"negative core", []string{"-core", "-1"}, "-core -1", ""},
		{"negative chunk", []string{"-chunk", "-5"}, "-chunk -5", ""},
		{"zero chunk is default", []string{"-chunk", "0", "-n", "100"}, "", "chunks of 4096"},
		{"empty trace", []string{"-n", "0"}, "", "0.00 B/access"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			file := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "-")+".pvc")
			var out bytes.Buffer
			err := run(append([]string{"-compile", "-workload", "Qry1", "-o", file}, tc.args...), &out)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one naming %q", err, tc.wantErr)
				}
				if _, statErr := os.Stat(file); !os.IsNotExist(statErr) {
					t.Fatalf("rejected flags still wrote %s (stat: %v)", file, statErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), tc.wantOut) {
				t.Fatalf("compile output lacks %q:\n%s", tc.wantOut, out.String())
			}
			out.Reset()
			if err := run([]string{"-inspect", file}, &out); err != nil {
				t.Fatal(err)
			}
			for _, bad := range []string{"NaN", "Inf"} {
				if strings.Contains(out.String(), bad) {
					t.Fatalf("inspect output holds %s:\n%s", bad, out.String())
				}
			}
		})
	}
}
