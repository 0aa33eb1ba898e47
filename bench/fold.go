package bench

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"
)

// Layers are the profile's folding targets: the program's modules, the two
// standard-library layers a served sweep pays for, the garbage collector's
// workers, and "other" for everything else (the benchmark harness, the Go
// scheduler, unlisted packages).
var Layers = []string{
	"trace", "memsys", "sms", "stride", "core", "cpu", "timing", "sim",
	"experiments", "sweep", "service", "report", "json", "http", "gc", "other",
}

// Fold is a CPU profile folded by layer. Every sample is charged to exactly
// one layer, so Self sums to Total.
type Fold struct {
	Total time.Duration
	Self  map[string]time.Duration
	// Codec is the self time of the PVTable set codec (sms.SetCodec and
	// core's BitReader/BitWriter), a slice across the sms and core layers.
	Codec time.Duration
	// Maps is, per layer, the time spent in runtime map frames that layer
	// called.
	Maps map[string]time.Duration
}

// Share is layer's fraction of the folded time.
func (f Fold) Share(layer string) float64 {
	if f.Total == 0 {
		return 0
	}
	return float64(f.Self[layer]) / float64(f.Total)
}

// ParseTraces folds the text `go tool pprof -traces` prints: blocks
// separated by dashed lines, each opening with the sample's value and leaf
// frame, followed by its callers. A sample is charged to the nearest frame,
// walking from the leaf, whose package owns a layer; frames of the runtime
// and of standard-library helpers (sync, syscall, strconv, ...) own none and
// pass their time to their caller. Samples on the collector's background
// workers go to "gc", and samples no owning frame claims go to "other".
func ParseTraces(r io.Reader) (Fold, error) {
	f := Fold{Self: map[string]time.Duration{}, Maps: map[string]time.Duration{}}
	var value time.Duration
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			f.add(value, stack)
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	inBlocks := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlocks = true
			continue
		}
		if !inBlocks || strings.TrimSpace(line) == "" {
			continue
		}
		if line[0] != ' ' || len(stack) == 0 && !startsWithValue(line) {
			return Fold{}, fmt.Errorf("bench: unexpected pprof -traces line %q", line)
		}
		fn := strings.TrimSuffix(strings.TrimSpace(line), " (inline)")
		if len(stack) == 0 {
			v, rest, _ := strings.Cut(fn, " ")
			d, err := time.ParseDuration(v)
			if err != nil {
				return Fold{}, fmt.Errorf("bench: sample value in %q: %w", line, err)
			}
			value, fn = d, strings.TrimSpace(rest)
		}
		stack = append(stack, fn)
	}
	if err := sc.Err(); err != nil {
		return Fold{}, err
	}
	flush()
	return f, nil
}

// startsWithValue reports whether a block's first line carries a value.
func startsWithValue(line string) bool {
	t := strings.TrimSpace(line)
	return t != "" && t[0] >= '0' && t[0] <= '9'
}

// gcWorkers are the runtime's background collector goroutines.
var gcWorkers = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// add charges one sample; stack runs from the leaf to the root.
func (f *Fold) add(v time.Duration, stack []string) {
	f.Total += v
	for _, fn := range stack {
		if gcWorkers[fn] {
			f.Self["gc"] += v
			return
		}
	}
	inMap := false
	for _, fn := range stack {
		layer, owns := frameLayer(fn)
		if !owns {
			inMap = inMap || isMapFrame(fn)
			continue
		}
		f.Self[layer] += v
		if inMap {
			f.Maps[layer] += v
		}
		if isCodecFrame(fn) {
			f.Codec += v
		}
		return
	}
	f.Self["other"] += v
}

// frameLayer names the layer that owns a frame's package, or reports that
// the package owns none (runtime and standard-library helpers).
func frameLayer(fn string) (layer string, owns bool) {
	pkg := framePackage(fn)
	switch {
	case strings.HasPrefix(pkg, "pvsim/internal/"):
		name := strings.TrimPrefix(pkg, "pvsim/internal/")
		for _, l := range Layers {
			if l == name {
				return l, true
			}
		}
		return "other", true
	case pkg == "main" || pkg == "pvsim" || strings.HasPrefix(pkg, "pvsim/"):
		return "other", true
	case pkg == "encoding/json":
		return "json", true
	case pkg == "net" || strings.HasPrefix(pkg, "net/"):
		return "http", true
	}
	return "", false
}

// framePackage extracts the import path from a symbol such as
// "pvsim/internal/core.(*Table[go.shape.struct { ... }]).ReadSetInto":
// type arguments are dropped first, because they hold paths of their own.
func framePackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// isMapFrame reports whether a runtime frame belongs to the built-in map:
// lookups, assignment, deletion, iteration, and key hashing.
func isMapFrame(fn string) bool {
	for _, p := range []string{"internal/runtime/maps.", "runtime.map", "runtime.memhash", "runtime.aeshash", "runtime.strhash", "runtime.interhash", "runtime.nilinterhash"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// isCodecFrame reports whether an owning frame is the PVTable set codec.
func isCodecFrame(fn string) bool {
	for _, p := range []string{"pvsim/internal/sms.SetCodec.", "pvsim/internal/core.(*BitReader).", "pvsim/internal/core.(*BitWriter).", "pvsim/internal/core.NewBitReader", "pvsim/internal/core.NewBitWriter"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}
