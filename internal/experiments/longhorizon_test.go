package experiments

import (
	"math"
	"testing"
)

// The long-horizon rows reproduce the committed BENCH_PR10.json baseline,
// which is stricter than the -compare gate's 10%. The fault-only longsim
// row holds bit for bit. The drift row holds to 1e-12 relative: until the
// hotness or the layout first changes, its epochs are priced from the
// planned served bytes, which sum the same hotness in another order.
func TestLongHorizonRowsReproduceBaseline(t *testing.T) {
	baseline, err := ReadBenchRecords("../../BENCH_PR10.json")
	if err != nil {
		t.Fatal(err)
	}
	row := func(layout string) BenchRecord {
		t.Helper()
		for _, r := range baseline {
			if r.Layout == layout {
				return r
			}
		}
		t.Fatalf("BENCH_PR10.json has no %s row", layout)
		return BenchRecord{}
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-12*math.Abs(want) }

	want := row("longsim")
	got, err := LongSimRecord(want.SimEpochs)
	if err != nil {
		t.Fatal(err)
	}
	if got.EpochSec != want.EpochSec || got.SimResims != want.SimResims || got.SimCacheHits != want.SimCacheHits {
		t.Errorf("longsim: epoch %v s, %d resims, %d hits; baseline %v s, %d, %d",
			got.EpochSec, got.SimResims, got.SimCacheHits, want.EpochSec, want.SimResims, want.SimCacheHits)
	}

	want = row("drift")
	got, err = DriftRecord(want.DriftEpochs)
	if err != nil {
		t.Fatal(err)
	}
	if !near(got.EpochSec, want.EpochSec) || !near(got.DriftOracleEpochSec, want.DriftOracleEpochSec) ||
		!near(got.DriftMovedGiB, want.DriftMovedGiB) || !near(got.DriftOracleGiB, want.DriftOracleGiB) {
		t.Errorf("drift: epoch %v s (oracle %v s), moved %v GiB (oracle %v); baseline %v s (%v s), %v GiB (%v)",
			got.EpochSec, got.DriftOracleEpochSec, got.DriftMovedGiB, got.DriftOracleGiB,
			want.EpochSec, want.DriftOracleEpochSec, want.DriftMovedGiB, want.DriftOracleGiB)
	}
	if got.DriftEvents != want.DriftEvents || got.DriftTrips != want.DriftTrips || got.DriftReplans != want.DriftReplans {
		t.Errorf("drift: %d events, %d trips, %d replans; baseline %d, %d, %d",
			got.DriftEvents, got.DriftTrips, got.DriftReplans, want.DriftEvents, want.DriftTrips, want.DriftReplans)
	}
}
