package moment

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"moment/internal/topology"
)

// TestExplainGolden pins the rendered provenance trail for a fixed problem
// (machine B, PapersArXiv) byte-for-byte against a committed
// golden file. The trail is the diagnosis surface operators diff across
// deploys — any change to its content or ordering must be deliberate.
// Regenerate with:
//
//	UPDATE_GOLDEN=1 go test -run TestExplainGolden .
func TestExplainGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("real planner run in -short mode")
	}
	render := func() string {
		t.Helper()
		ex := NewExplain()
		_, err := OptimizeWith(MachineB(), Workload{Dataset: MustDataset("PA"), Model: GraphSAGE},
			SearchOptions{Explain: ex})
		if err != nil {
			t.Fatal(err)
		}
		return ex.Render()
	}

	got := render()
	if !strings.Contains(got, "[  sum] result ") {
		t.Fatalf("trail has no result summary:\n%s", got)
	}

	// Determinism first: two fresh runs of the same problem must render
	// identically before a golden comparison means anything.
	if again := render(); again != got {
		t.Fatalf("explain trail not deterministic across runs:\n--- first\n%s\n--- second\n%s", got, again)
	}

	golden := filepath.Join("testdata", "explain_B_PA.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1 go test -run TestExplainGolden .)", err)
	}
	if got != string(want) {
		t.Errorf("explain trail drifted from %s.\nIf the change is deliberate, regenerate with "+
			"UPDATE_GOLDEN=1.\n--- got\n%s\n--- want\n%s", golden, got, want)
	}
}

// TestExplainTruncatedDeterministic plans the SM420GP chassis, whose trail
// overflows the default step bound, with one scoring worker and with
// eight: the truncated renders must be byte-identical, and they must keep
// the run-level summaries that say what was chosen.
func TestExplainTruncatedDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("real planner runs in -short mode")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	render := func(parallelism int) string {
		t.Helper()
		ex := NewExplain()
		_, err := OptimizeWith(topology.Supermicro420GP(), Workload{Dataset: MustDataset("PA"), Model: GraphSAGE},
			SearchOptions{Explain: ex, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		if ex.Dropped() == 0 {
			t.Fatal("trail not truncated; the test no longer covers the bound")
		}
		return ex.Render()
	}
	one := render(1)
	for _, line := range []string{"[  sum] result ", "[  sum] plan reason=predicted-io-sec", "[  sum] search reason=evaluated", "[  sum] truncated dropped="} {
		if !strings.Contains(one, line) {
			t.Errorf("truncated trail lacks %q", line)
		}
	}
	if eight := render(8); eight != one {
		t.Fatalf("truncated trail depends on parallelism:\n--- parallelism 1\n%s\n--- parallelism 8\n%s", one, eight)
	}
}
