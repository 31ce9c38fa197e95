package trainsim

import (
	"math"
	"testing"

	"moment/internal/gnn"
	"moment/internal/graph"
)

func dataset(t testing.TB, name string) graph.Dataset {
	t.Helper()
	d, err := graph.DatasetByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestComputeStatsIG(t *testing.T) {
	stats, err := ComputeStats(Workload{Dataset: dataset(t, "IG"), Model: gnn.KindSAGE}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 2.69M training vertices at batch 8000 -> 337 batches (Table 2).
	if stats.BatchesPerEpoch != 337 {
		t.Errorf("batches = %d, want 337", stats.BatchesPerEpoch)
	}
	// Unique per batch: well above the 8000 seeds, well below the raw
	// 8000×(1+25+250) sample count.
	if stats.UniquePerBatch < 50_000 || stats.UniquePerBatch > 2_208_000 {
		t.Errorf("unique/batch = %.0f out of plausible range", stats.UniquePerBatch)
	}
	if stats.EdgesPerBatch <= 8000*25 {
		t.Errorf("edges/batch = %.0f too low", stats.EdgesPerBatch)
	}
	// Hotness sums to 1 and decreases with rank.
	sum := 0.0
	for i, h := range stats.VirtualHot {
		sum += h
		if h < 0 {
			t.Fatalf("negative hotness at %d", i)
		}
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("hotness sums to %v", sum)
	}
	// Per-vertex hotness density decreases with rank.
	for i := 1; i < len(stats.VirtualHot); i++ {
		d0 := stats.VirtualHot[i-1] / stats.VirtualBytes[i-1]
		d1 := stats.VirtualHot[i] / stats.VirtualBytes[i]
		if d1 > d0*(1+1e-9) {
			t.Fatalf("hotness density not monotone at %d", i)
		}
	}
	// Virtual bytes cover the full feature store.
	total := 0.0
	for _, b := range stats.VirtualBytes {
		total += b
	}
	want := float64(dataset(t, "IG").Vertices) * 4096
	if math.Abs(total-want) > 0.001*want {
		t.Errorf("virtual bytes %.3e, want %.3e", total, want)
	}
}

func TestComputeStatsSkewSensitivity(t *testing.T) {
	base := dataset(t, "IG")
	lo, hi := base, base
	lo.Skew = 0.6
	hi.Skew = 1.1
	sLo, err := ComputeStats(Workload{Dataset: lo}, 0)
	if err != nil {
		t.Fatal(err)
	}
	sHi, err := ComputeStats(Workload{Dataset: hi}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Higher skew -> fewer distinct fetches per batch.
	if sHi.UniquePerBatch >= sLo.UniquePerBatch {
		t.Errorf("skew did not reduce unique: %.0f vs %.0f", sHi.UniquePerBatch, sLo.UniquePerBatch)
	}
	// Higher skew -> more head mass.
	headLo, headHi := 0.0, 0.0
	for i := 0; i < hotDetail; i++ {
		headLo += sLo.VirtualHot[i]
		headHi += sHi.VirtualHot[i]
	}
	if headHi <= headLo {
		t.Errorf("head mass %v <= %v under higher skew", headHi, headLo)
	}
}

func TestComputeStatsDedupFactor(t *testing.T) {
	d := dataset(t, "IG")
	s1, err := ComputeStats(Workload{Dataset: d, DedupFactor: 1.0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	s05, err := ComputeStats(Workload{Dataset: d, DedupFactor: 0.5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s05.UniquePerBatch >= s1.UniquePerBatch {
		t.Errorf("dedup factor did not reduce unique: %.0f vs %.0f",
			s05.UniquePerBatch, s1.UniquePerBatch)
	}
}

func TestComputeStatsErrors(t *testing.T) {
	d := dataset(t, "IG")
	if _, err := ComputeStats(Workload{Dataset: d, BatchSize: -1}, 0); err == nil {
		t.Error("negative batch accepted")
	}
	if _, err := ComputeStats(Workload{Dataset: d, Fanouts: []int{}}, 0); err == nil {
		t.Error("empty fanouts accepted")
	}
	var empty graph.Dataset
	if _, err := ComputeStats(Workload{Dataset: empty}, 0); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestSaturate(t *testing.T) {
	if saturate(0, 100) != 0 || saturate(0.5, 0) != 0 {
		t.Error("degenerate saturate")
	}
	if saturate(1, 5) != 1 || saturate(2, 5) != 1 {
		t.Error("p>=1 should saturate to 1")
	}
	// 1-(1-p)^D for small p*D approximates p*D.
	got := saturate(1e-9, 100)
	if math.Abs(got-1e-7) > 1e-9 {
		t.Errorf("small-p saturate = %v", got)
	}
	// Large p*D approaches 1.
	if saturate(0.01, 10_000) < 0.999 {
		t.Error("large draws should saturate")
	}
}

func TestGeneralizedHarmonic(t *testing.T) {
	// Exact for small n.
	exact := 0.0
	for r := 1; r <= 500; r++ {
		exact += math.Pow(float64(r), -0.9)
	}
	got := generalizedHarmonic(500, 0.9)
	if math.Abs(got-exact) > 1e-9 {
		t.Errorf("H(500,0.9) = %v, want %v", got, exact)
	}
	// s=1 path and monotonicity in n.
	h1 := generalizedHarmonic(1_000_000, 1)
	h2 := generalizedHarmonic(10_000_000, 1)
	if h2 <= h1 {
		t.Error("harmonic not increasing")
	}
	// ~ln(n) + gamma for s=1.
	want := math.Log(1e6) + 0.5772
	if math.Abs(h1-want) > 0.05 {
		t.Errorf("H(1e6,1) = %v, want ~%v", h1, want)
	}
}

func TestRankBucketsCoverage(t *testing.T) {
	ranks, counts := rankBuckets(1_000_000, 500)
	total := 0.0
	for i, c := range counts {
		if c < 1 {
			t.Fatalf("bucket %d count %v", i, c)
		}
		total += c
	}
	if math.Abs(total-1_000_000) > 1 {
		t.Errorf("buckets cover %v of 1e6", total)
	}
	// Ranks strictly increasing.
	for i := 1; i < len(ranks); i++ {
		if ranks[i] <= ranks[i-1] {
			t.Fatalf("ranks not increasing at %d", i)
		}
	}
	// Small n: every rank individual.
	r2, c2 := rankBuckets(100, 500)
	if len(r2) != 100 || c2[0] != 1 {
		t.Errorf("small-n buckets: %d ranks", len(r2))
	}
}
