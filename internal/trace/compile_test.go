package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// compileParams is a small-but-representative workload for codec tests.
func compileParams() Params {
	p := testParams()
	p.RegionPool = 256
	p.NumPCs = 128
	return p
}

// TestCompileRoundTrip pins the core contract: a compiled trace replays the
// exact access sequence the source stream produced, across chunk
// boundaries, including short final chunks.
func TestCompileRoundTrip(t *testing.T) {
	const n, chunkLen = 10_000, 512 // 19 full chunks + a short one
	ref := NewGenerator(compileParams(), 42, 0)
	ct, err := Compile(NewGenerator(compileParams(), 42, 0), n, chunkLen, "test")
	if err != nil {
		t.Fatal(err)
	}
	if ct.Len() != n || ct.ChunkLen() != chunkLen {
		t.Fatalf("Len=%d ChunkLen=%d, want %d %d", ct.Len(), ct.ChunkLen(), n, chunkLen)
	}
	if want := (n + chunkLen - 1) / chunkLen; ct.Chunks() != want {
		t.Fatalf("Chunks=%d want %d", ct.Chunks(), want)
	}
	p := ct.Replayer()
	for i := 0; i < n; i++ {
		want, got := ref.Next(), p.Next()
		if got != want {
			t.Fatalf("access %d: got %+v want %+v", i, got, want)
		}
	}
	if p.Remaining() != 0 {
		t.Fatalf("Remaining=%d after full replay", p.Remaining())
	}
}

// TestCompiledReplayerReset pins that Reset replays the identical sequence
// without rebuilding anything, even from mid-chunk positions.
func TestCompiledReplayerReset(t *testing.T) {
	const n = 3000
	ct, err := Compile(NewGenerator(compileParams(), 7, 1), n, 1024, "")
	if err != nil {
		t.Fatal(err)
	}
	p := ct.Replayer()
	first := make([]Access, n)
	for i := range first {
		first[i] = p.Next()
	}
	for _, partial := range []int{0, 1, 1023, 1024, 1025, n} {
		p.Reset()
		for i := 0; i < partial; i++ {
			p.Next()
		}
		p.Reset()
		for i := 0; i < n; i++ {
			if got := p.Next(); got != first[i] {
				t.Fatalf("after Reset (partial=%d): access %d got %+v want %+v", partial, i, got, first[i])
			}
		}
	}
}

// TestCompiledWriteReadFile pins the on-disk PVA2 round trip: serialize,
// reparse, and compare every access plus the header fields.
func TestCompiledWriteReadFile(t *testing.T) {
	const n = 2500
	ct, err := Compile(NewGenerator(compileParams(), 11, 0), n, 1000, "workload=Apache seed=11 core=0")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.pvc")
	var buf bytes.Buffer
	if _, err := ct.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCompiled(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != ct.Len() || got.ChunkLen() != ct.ChunkLen() || got.Meta() != ct.Meta() {
		t.Fatalf("header mismatch: %d/%d/%q vs %d/%d/%q",
			got.Len(), got.ChunkLen(), got.Meta(), ct.Len(), ct.ChunkLen(), ct.Meta())
	}
	a, b := ct.Replayer(), got.Replayer()
	for i := 0; i < n; i++ {
		x, y := a.Next(), b.Next()
		if x != y {
			t.Fatalf("access %d: reparsed %+v want %+v", i, y, x)
		}
	}
	// And through a file for OpenCompiled.
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCompiled(path); err != nil {
		t.Fatalf("OpenCompiled: %v", err)
	}
}

// TestCompileNegativeCount pins the negative-count guard: the count
// header is unsigned, so a negative n must fail instead of wrapping.
func TestCompileNegativeCount(t *testing.T) {
	_, err := Compile(NewGenerator(compileParams(), 1, 0), -1, 0, "")
	if err == nil {
		t.Fatal("Compile(-1) succeeded; want error")
	}
	if !strings.Contains(err.Error(), "negative") {
		t.Fatalf("Compile(-1) error %q does not mention the negative count", err)
	}
}

// TestReadCompiledRejectsCorrupt pins the validation surface: truncations
// and inconsistent headers must produce errors, never panics or silently
// wrong traces.
func TestReadCompiledRejectsCorrupt(t *testing.T) {
	ct, err := Compile(NewGenerator(compileParams(), 5, 0), 300, 128, "m")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ct.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Every strict prefix must fail cleanly.
	for cut := 0; cut < len(good); cut += 17 {
		if _, err := ReadCompiled(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	// Bad magic.
	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	if _, err := ReadCompiled(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Corrupt a chunk directory offset.
	bad = append([]byte(nil), good...)
	bad[4+8+4+4+1+4] ^= 0xFF // first offset byte (after magic+count+chunkLen+metaLen+meta+nchunks)
	if _, err := ReadCompiled(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupt chunk directory accepted")
	}
	// Trailing garbage after data.
	bad = append(append([]byte(nil), good...), 0xAB)
	if _, err := ReadCompiled(bytes.NewReader(bad)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestCompiledMatchesGenerator pins the compiled replay against its
// reference, the live generator, at the default chunk length and on a
// core other than 0 (the per-core stream derivation).
func TestCompiledMatchesGenerator(t *testing.T) {
	const n = 2000
	ref := NewGenerator(compileParams(), 9, 3)
	ct, err := Compile(NewGenerator(compileParams(), 9, 3), n, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	cp := ct.Replayer()
	for i := 0; i < n; i++ {
		x, y := ref.Next(), cp.Next()
		if x != y {
			t.Fatalf("access %d: generator %+v compiled %+v", i, x, y)
		}
	}
}
