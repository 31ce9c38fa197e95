package experiments

import (
	"strings"
	"testing"
)

// compareFixture builds a baseline/new pair exercising every row status:
// an improvement, an in-band wobble, a regression, a configuration that
// disappeared, and a brand-new one.
func compareFixture() (old, now []BenchRecord) {
	mk := func(machine, layout string, epoch float64) BenchRecord {
		return BenchRecord{
			Machine: machine, Dataset: "IG", Model: "GraphSAGE",
			Layout: layout, Policy: "static", EpochSec: epoch,
		}
	}
	old = []BenchRecord{
		mk("A", "(a)", 20.0), // improves to 14
		mk("A", "(b)", 10.0), // wobbles to 10.5
		mk("B", "(a)", 8.0),  // regresses to 10
		mk("B", "(d)", 30.0), // missing in new
	}
	now = []BenchRecord{
		mk("A", "(a)", 14.0),
		mk("A", "(b)", 10.5),
		mk("B", "(a)", 10.0),
		mk("B", "moment", 6.0), // new configuration
	}
	return old, now
}

func TestCompareBenchClassification(t *testing.T) {
	old, now := compareFixture()
	rep := CompareBench(old, now, 0.10)
	want := map[string]CompareStatus{
		"A/IG/GraphSAGE/(a)/static":    StatusImprovement,
		"A/IG/GraphSAGE/(b)/static":    StatusOK,
		"B/IG/GraphSAGE/(a)/static":    StatusRegression,
		"B/IG/GraphSAGE/(d)/static":    StatusMissing,
		"B/IG/GraphSAGE/moment/static": StatusNew,
	}
	if len(rep.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rep.Rows), len(want))
	}
	for _, row := range rep.Rows {
		if row.Status != want[row.Key] {
			t.Errorf("%s: status %s, want %s", row.Key, row.Status, want[row.Key])
		}
	}
}

// TestCompareGateFails is the satellite gate test: a >10% regression must
// make Err non-nil (momentbench -compare exits non-zero on it), and the
// error must name the offending configuration.
func TestCompareGateFails(t *testing.T) {
	old, now := compareFixture()
	rep := CompareBench(old, now, 0.10)
	err := rep.Err()
	if err == nil {
		t.Fatal("25% regression passed the 10% gate")
	}
	if !strings.Contains(err.Error(), "B/IG/GraphSAGE/(a)/static") {
		t.Errorf("gate error does not name the regressed configuration: %v", err)
	}
	if regs := rep.Regressions(); len(regs) != 1 {
		t.Errorf("%d regressions, want 1", len(regs))
	}
}

func TestCompareGatePasses(t *testing.T) {
	old, _ := compareFixture()
	// Identical records: everything in-band, missing/new rows don't trip it.
	rep := CompareBench(old, old, 0.10)
	if err := rep.Err(); err != nil {
		t.Fatalf("identical record sets failed the gate: %v", err)
	}
	for _, row := range rep.Rows {
		if row.Status != StatusOK {
			t.Errorf("%s: status %s on identical sets", row.Key, row.Status)
		}
	}
	// A 25% slowdown passes a looser 30% gate.
	loose := CompareBench(
		[]BenchRecord{{Machine: "A", EpochSec: 8}},
		[]BenchRecord{{Machine: "A", EpochSec: 10}}, 0.30)
	if err := loose.Err(); err != nil {
		t.Errorf("25%% slowdown failed a 30%% gate: %v", err)
	}
}

func TestCompareThresholdDefault(t *testing.T) {
	rep := CompareBench(nil, nil, 0)
	if rep.Threshold != 0.10 {
		t.Errorf("default threshold %v, want 0.10", rep.Threshold)
	}
}

func TestCompareZeroBaseline(t *testing.T) {
	rep := CompareBench(
		[]BenchRecord{{Machine: "A", EpochSec: 0}},
		[]BenchRecord{{Machine: "A", EpochSec: 5}}, 0.10)
	if rep.Rows[0].Status != StatusRegression {
		t.Errorf("going from 0 to 5 s/epoch classified %s", rep.Rows[0].Status)
	}
}

// TestCompareReportGolden pins the rendered -compare output: the header,
// column alignment, signed percentage deltas, and missing/new rows sorted
// to the bottom.
func TestCompareReportGolden(t *testing.T) {
	old, now := compareFixture()
	checkGolden(t, "bench_compare", CompareBench(old, now, 0.10).String())
}

// TestCompareAgainstCommittedBaseline replays the real gate: fresh
// BenchRecords against the committed BENCH_PR10.json must not regress.
func TestCompareAgainstCommittedBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark grid in -short mode")
	}
	baseline, err := ReadBenchRecords("../../BENCH_PR10.json")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := BenchRecords()
	if err != nil {
		t.Fatal(err)
	}
	rep := CompareBench(baseline, recs, 0.10)
	if err := rep.Err(); err != nil {
		t.Errorf("planner rework regressed the benchmark grid:\n%s\n%v", rep, err)
	}
	for _, row := range rep.Rows {
		if row.Status == StatusMissing {
			t.Errorf("configuration %s vanished from the grid", row.Key)
		}
	}
}

func TestReadBenchRecordsErrors(t *testing.T) {
	if _, err := ReadBenchRecords("testdata/does-not-exist.json"); err == nil {
		t.Error("missing file did not error")
	}
	bad := "testdata/bad_bench.json"
	if _, err := ReadBenchRecords(bad); err == nil {
		t.Error("malformed JSON did not error")
	}
}
