package trainsim

import (
	"math"
	"math/rand"
	"testing"

	"moment/internal/gnn"
	"moment/internal/topology"
)

func newDriftRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func driftCfg(t *testing.T) Config {
	t.Helper()
	m := topology.MachineB()
	p, err := topology.ClassicPlacement(m, topology.LayoutC)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Machine: m, Placement: p,
		Workload:        Workload{Dataset: dataset(t, "IG"), Model: gnn.KindSAGE},
		Cache:           CachePartitioned,
		VirtualVertices: 2000,
	}
}

func runDrift(t *testing.T, cfg Config, opt DriftOptions) *DriftReport {
	t.Helper()
	rep, err := SimulateDriftEpochs(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// The oracle-differential suite: for every drift scenario the closed
// adaptive loop must land within 5% of the from-scratch oracle's mean
// epoch time while migrating strictly less than half its bytes — the
// incremental re-solve plus payback billing avoid the full solver's
// label-churn migrations without giving up epoch time.
func TestDriftAdaptiveTracksOracle(t *testing.T) {
	cfg := driftCfg(t)
	cases := []struct {
		name string
		kind DriftKind
	}{
		{"gradual-rotate", DriftRotate},
		{"sudden-flip", DriftFlip},
		{"oscillation", DriftOscillate},
		{"reshuffle", DriftShuffle},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := DriftOptions{
				Epochs:   300,
				Schedule: DriftSchedule{Every: 100, Kind: tc.kind, Mag: 0.2, Seed: 7},
			}
			ad := runDrift(t, cfg, opt)
			opt.Oracle = true
			or := runDrift(t, cfg, opt)
			if ad.DriftEvents != 2 || or.DriftEvents != 2 {
				t.Fatalf("drift events: adaptive %d, oracle %d, want 2", ad.DriftEvents, or.DriftEvents)
			}
			if or.Replans != or.DriftEvents {
				t.Errorf("oracle replanned %d times for %d events", or.Replans, or.DriftEvents)
			}
			if ad.Trips == 0 {
				t.Error("adaptive loop never detected the drift")
			}
			if ratio := ad.MeanEpoch / or.MeanEpoch; ratio > 1.05 {
				t.Errorf("adaptive mean epoch %.3fs is %.1f%% over oracle %.3fs",
					ad.MeanEpoch, (ratio-1)*100, or.MeanEpoch)
			}
			if or.MovedBytes <= 0 {
				t.Fatalf("oracle migrated nothing under %s drift", tc.kind)
			}
			if ad.MovedBytes >= 0.5*or.MovedBytes {
				t.Errorf("adaptive migrated %.3g bytes, want < half of oracle's %.3g",
					ad.MovedBytes, or.MovedBytes)
			}
		})
	}
}

// The no-drift control: a steady workload must cost nothing — no trips, no
// replans, no migration, and epoch times identical to the oracle's.
func TestDriftNoDriftControl(t *testing.T) {
	cfg := driftCfg(t)
	opt := DriftOptions{Epochs: 50, Schedule: DriftSchedule{}}
	ad := runDrift(t, cfg, opt)
	opt.Oracle = true
	or := runDrift(t, cfg, opt)
	if ad.Trips != 0 || ad.Replans != 0 || ad.MovedBytes != 0 {
		t.Errorf("steady workload: trips=%d replans=%d moved=%.3g, want all zero",
			ad.Trips, ad.Replans, ad.MovedBytes)
	}
	if ad.MeanEpoch != or.MeanEpoch {
		t.Errorf("steady workload: adaptive %.6f != oracle %.6f", ad.MeanEpoch, or.MeanEpoch)
	}
	if ad.Resims != 1 || ad.CacheHits != opt.Epochs-1 {
		t.Errorf("steady workload should price one epoch and memoize the rest: resims=%d hits=%d",
			ad.Resims, ad.CacheHits)
	}
}

// The long-horizon acceptance run: 1000 epochs with the hotness reshuffled
// every 100. The adaptive loop must stay within 5% of the from-scratch
// oracle's epoch time while migrating less than half its bytes, and the
// (assignment, hotness) memo must keep the fabric bill sublinear in the
// horizon. Deterministic: seeded schedule, analytic workload.
func TestDriftLongHorizonAcceptance(t *testing.T) {
	cfg := driftCfg(t)
	opt := DriftOptions{
		Epochs:   1000,
		Schedule: DriftSchedule{Every: 100, Kind: DriftShuffle, Mag: 0.2, Seed: 42},
	}
	ad := runDrift(t, cfg, opt)
	opt.Oracle = true
	or := runDrift(t, cfg, opt)

	if ad.DriftEvents != 9 {
		t.Fatalf("drift events = %d, want 9 (epochs 100..900)", ad.DriftEvents)
	}
	if ad.Trips < ad.DriftEvents {
		t.Errorf("detector tripped %d times for %d events", ad.Trips, ad.DriftEvents)
	}
	ratio := ad.MeanEpoch / or.MeanEpoch
	if ratio > 1.05 {
		t.Errorf("adaptive mean epoch %.3fs is %.1f%% over oracle %.3fs (acceptance: <=5%%)",
			ad.MeanEpoch, (ratio-1)*100, or.MeanEpoch)
	}
	if or.MovedBytes <= 0 {
		t.Fatal("oracle migrated nothing over 9 reshuffles")
	}
	if ad.MovedBytes >= 0.5*or.MovedBytes {
		t.Errorf("adaptive migrated %.3g bytes, acceptance requires < half of oracle's %.3g",
			ad.MovedBytes, or.MovedBytes)
	}
	// 1000 epochs must not mean 1000 fabric runs: between events and
	// replans nothing the fabric sees changes.
	if ad.Resims > 100 {
		t.Errorf("adaptive run priced %d epochs on the fabric, want <=100", ad.Resims)
	}
	if ad.Resims+ad.CacheHits != opt.Epochs {
		t.Errorf("resims %d + cache hits %d != %d epochs", ad.Resims, ad.CacheHits, opt.Epochs)
	}
	if len(ad.EpochTimes) != opt.Epochs {
		t.Fatalf("%d epoch times for %d epochs", len(ad.EpochTimes), opt.Epochs)
	}
	if math.Abs(ad.Total.Sec()-ad.MeanEpoch*float64(opt.Epochs)) > 1e-6*ad.Total.Sec() {
		t.Error("Total and MeanEpoch disagree")
	}
}

func TestDriftSpecRoundTrip(t *testing.T) {
	specs := []DriftSchedule{
		{Every: 100, Kind: DriftShuffle, Mag: 0.2, Seed: 7},
		{Every: 1, Kind: DriftRotate, Mag: 1, Seed: -3},
		{Every: 50, Kind: DriftOscillate, Mag: 0.05, Seed: 0},
	}
	for _, want := range specs {
		got, err := ParseDriftSpec(FormatDriftSpec(want))
		if err != nil {
			t.Fatalf("%+v: %v", want, err)
		}
		if got != want {
			t.Errorf("round trip %+v -> %q -> %+v", want, FormatDriftSpec(want), got)
		}
	}
	for _, bad := range []string{
		"every=ten",
		"kind=meteor",
		"every=100;kind=rotate;mag=1.5",
		"every=100;kind=rotate;mag=0",
		"every=10;kind=shuffle;mag=NaN",
		"every=0;kind=shuffle;mag=NaN",
		"notakv",
		"volume=11",
	} {
		if _, err := ParseDriftSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
	// Empty spec parses to a schedule that never fires.
	s, err := ParseDriftSpec("")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Empty() {
		t.Errorf("empty spec not empty: %+v", s)
	}
}

// FuzzParseDriftSpec holds the drift grammar to three properties:
// ParseDriftSpec never panics, parsing the formatted schedule gives the
// schedule back, and FormatDriftSpec is a fixpoint.
func FuzzParseDriftSpec(f *testing.F) {
	for _, spec := range []string{
		"every=100;kind=shuffle;mag=0.2;seed=7",
		"every=1;kind=rotate;mag=1;seed=-3",
		" kind=oscillate ; mag=5e-324 ; every=50 ",
		"",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseDriftSpec(spec)
		if err != nil {
			return
		}
		text := FormatDriftSpec(s)
		again, err := ParseDriftSpec(text)
		if err != nil {
			t.Fatalf("ParseDriftSpec(%q) formats as %q, which does not parse: %v", spec, text, err)
		}
		if again != s {
			t.Fatalf("ParseDriftSpec(%q) = %+v, but parsing %q gives %+v", spec, s, text, again)
		}
		if got := FormatDriftSpec(again); got != text {
			t.Fatalf("FormatDriftSpec is not a fixpoint: %q then %q", text, got)
		}
	})
}

func TestApplyDriftProperties(t *testing.T) {
	base := make([]float64, 100)
	sum := 0.0
	for i := range base {
		base[i] = 1 / float64(i+1)
		sum += base[i]
	}
	for i := range base {
		base[i] /= sum
	}
	kinds := []DriftKind{DriftRotate, DriftFlip, DriftOscillate, DriftShuffle}
	for _, kind := range kinds {
		s := DriftSchedule{Every: 1, Kind: kind, Mag: 0.3, Seed: 5}
		a := append([]float64(nil), base...)
		b := append([]float64(nil), base...)
		rngA := newDriftRng(5)
		rngB := newDriftRng(5)
		applyDrift(a, s, rngA, 0)
		applyDrift(b, s, rngB, 0)
		// The first event must actually change the distribution (later
		// events may legitimately undo it: flip and oscillate are
		// involutions).
		changed := false
		for i := range a {
			if a[i] != base[i] {
				changed = true
				break
			}
		}
		if !changed {
			t.Errorf("%s: first event left the distribution untouched", kind)
		}
		for ev := 1; ev < 4; ev++ {
			applyDrift(a, s, rngA, ev)
			applyDrift(b, s, rngB, ev)
		}
		// Deterministic under the seed.
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: same seed diverged at %d", kind, i)
			}
		}
		// Mass-preserving: drift permutes hotness, never creates it.
		got := 0.0
		for _, v := range a {
			got += v
		}
		if math.Abs(got-1) > 1e-12 {
			t.Errorf("%s: drift changed total mass to %v", kind, got)
		}
	}
	// Oscillate is its own inverse: two events restore the base exactly.
	s := DriftSchedule{Every: 1, Kind: DriftOscillate, Mag: 0.3, Seed: 5}
	a := append([]float64(nil), base...)
	applyDrift(a, s, newDriftRng(5), 0)
	applyDrift(a, s, newDriftRng(5), 1)
	for i := range a {
		if a[i] != base[i] {
			t.Fatalf("oscillate did not return to base at %d", i)
		}
	}
}

func TestSimulateDriftValidation(t *testing.T) {
	cfg := driftCfg(t)
	sched := DriftSchedule{Every: 10, Kind: DriftRotate, Mag: 0.1}
	bad := cfg
	bad.Cache = CacheReplicated
	if _, err := SimulateDriftEpochs(bad, DriftOptions{Epochs: 1, Schedule: sched}); err == nil {
		t.Error("replicated cache accepted")
	}
	if _, err := SimulateDriftEpochs(bad, DriftOptions{Epochs: 1, Oracle: true}); err == nil {
		t.Error("replicated cache accepted in oracle mode")
	}
	// Without drift the run only replays faults, which any cache mode can.
	if _, err := SimulateDriftEpochs(bad, DriftOptions{Epochs: 1}); err != nil {
		t.Errorf("drift-free run on replicated caches refused: %v", err)
	}
	bad = cfg
	bad.Policy = PolicyHash
	if _, err := SimulateDriftEpochs(bad, DriftOptions{Epochs: 1, Schedule: sched}); err == nil {
		t.Error("hash policy accepted")
	}
	if _, err := SimulateDriftEpochs(cfg, DriftOptions{
		Epochs:   1,
		Schedule: DriftSchedule{Every: 10, Kind: DriftRotate, Mag: 2},
	}); err == nil {
		t.Error("magnitude 2 accepted")
	}
	if _, err := SimulateDriftEpochs(cfg, DriftOptions{
		Epochs:   1,
		Schedule: DriftSchedule{Every: -1, Kind: DriftRotate, Mag: 0.1},
	}); err == nil {
		t.Error("negative period accepted")
	}
}
