package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// TestParallelDeterminismFullSet is the scheduler stress test: the complete
// experiment set rendered with Parallel=1 must be byte-identical to
// Parallel=8. At Parallel=1 every simulation after the first of each
// geometry runs on a rebuilt pooled system. Experiments fan their configurations out through Runner.RunAll, so this
// exercises the semaphore, the in-flight wait and the pool's claim/return
// dance under real contention — and it runs under the CI -race job, where
// a scheduler race fails loudly even when the bytes happen to match.
func TestParallelDeterminismFullSet(t *testing.T) {
	ids := make([]string, 0, len(All()))
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	render := func(r *Runner) string {
		var sb strings.Builder
		for _, id := range ids {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			sb.WriteString(e.Run(r).Text())
		}
		return sb.String()
	}

	serial := render(NewRunner(Options{Scale: determinismScale, Seed: 42, Parallel: 1}))
	parallel := render(NewRunner(Options{Scale: determinismScale, Seed: 42, Parallel: 8}))
	if serial != parallel {
		t.Fatal(diffHint(t, serial, parallel, "Parallel=8 full-set report diverges from Parallel=1"))
	}
}

// diffHint points at the first diverging line so a failure is debuggable
// without dumping two full multi-experiment reports.
func diffHint(t *testing.T, a, b, msg string) string {
	t.Helper()
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("%s:\nline %d:\n  a: %s\n  b: %s", msg, i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("%s: lengths differ (%d vs %d lines)", msg, len(la), len(lb))
}
