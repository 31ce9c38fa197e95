package adaptive

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"moment/internal/ddak"
)

func unitBytes(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	return b
}

func TestDetectorTripsOnTV(t *testing.T) {
	d := &DriftDetector{TVTrip: 0.2}
	ref := []float64{0.5, 0.5, 0, 0}
	sig, err := d.Check(ref, ref)
	if err != nil {
		t.Fatal(err)
	}
	if sig.Over || sig.Tripped {
		t.Errorf("identical distributions tripped: %+v", sig)
	}
	far := []float64{0, 0, 0.5, 0.5}
	sig, err = d.Check(ref, far)
	if err != nil {
		t.Fatal(err)
	}
	if sig.TV != 1 || !sig.Tripped {
		t.Errorf("disjoint distributions: %+v", sig)
	}
	if d.Checks() != 2 || d.Trips() != 1 {
		t.Errorf("counters: checks=%d trips=%d", d.Checks(), d.Trips())
	}
	if _, err := d.Check(ref, far[:2]); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestDetectorHysteresis(t *testing.T) {
	d := &DriftDetector{TVTrip: 0.1, TripAfter: 3}
	ref := []float64{1, 0}
	drift := []float64{0.7, 0.3} // TV = 0.3, over threshold
	for i := 1; i <= 2; i++ {
		sig, err := d.Check(ref, drift)
		if err != nil {
			t.Fatal(err)
		}
		if !sig.Over {
			t.Fatalf("check %d not over", i)
		}
		if sig.Tripped {
			t.Fatalf("tripped after %d consecutive checks, want 3", i)
		}
	}
	// A clean check in between resets the streak.
	if sig, _ := d.Check(ref, ref); sig.Over || sig.Tripped {
		t.Fatal("clean check misjudged")
	}
	for i := 1; i <= 3; i++ {
		sig, err := d.Check(ref, drift)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sig.Tripped, i == 3; got != want {
			t.Fatalf("streak restart check %d: tripped=%v", i, got)
		}
	}
}

func TestDetectorCooldown(t *testing.T) {
	d := &DriftDetector{TVTrip: 0.1, Cooldown: 2}
	ref := []float64{1, 0}
	drift := []float64{0.5, 0.5}
	sig, err := d.Check(ref, drift)
	if err != nil {
		t.Fatal(err)
	}
	if !sig.Tripped {
		t.Fatal("first over check did not trip")
	}
	d.Reset()
	// Two checks suppressed, the third trips again.
	for i := 1; i <= 3; i++ {
		sig, err = d.Check(ref, drift)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sig.Tripped, i == 3; got != want {
			t.Fatalf("cooldown check %d: tripped=%v, want %v", i, got, want)
		}
	}
}

// A few swapped cache residents barely move TV but swap the identity of
// the hottest items — the rank-churn signal must catch what TV misses.
func TestDetectorRankChurnCatchesIdentitySwap(t *testing.T) {
	// A nearly-flat ranked profile: rank order is well defined, but any
	// pairwise swap exchanges almost no probability mass.
	n := 100
	ref := make([]float64, n)
	for i := range ref {
		ref[i] = 1 + float64(n-i)*1e-3
	}
	sum := 0.0
	for _, v := range ref {
		sum += v
	}
	for i := range ref {
		ref[i] /= sum
	}
	// Swap the top-4 with ranks 50..53: each pair exchanges similar mass.
	live := append([]float64(nil), ref...)
	for k := 0; k < 4; k++ {
		live[k], live[50+k] = live[50+k], live[k]
	}
	tvOnly := &DriftDetector{TVTrip: 0.25}
	sig, err := tvOnly.Check(ref, live)
	if err != nil {
		t.Fatal(err)
	}
	if sig.Over {
		t.Fatalf("TV %.3f unexpectedly over 0.25 — premise broken", sig.TV)
	}
	ranked := &DriftDetector{TVTrip: 0.25, RankTopK: 8, RankTrip: 0.4}
	sig, err = ranked.Check(ref, live)
	if err != nil {
		t.Fatal(err)
	}
	if sig.RankChurn < 0.4 || !sig.Tripped {
		t.Errorf("rank churn %.3f did not trip: %+v", sig.RankChurn, sig)
	}
}

func TestTopKAndChurn(t *testing.T) {
	v := []float64{0.1, 0.9, 0.3, 0.9, 0.05}
	got := topK(v, 3, nil)
	want := []int32{1, 2, 3} // ties at 0.9 keep lower indices; 0.3 third
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("topK = %v, want %v", got, want)
	}
	if k := topK(v, 99, nil); len(k) != len(v) {
		t.Errorf("k>n returned %d entries", len(k))
	}
	if c := churn([]int32{1, 2, 3}, []int32{1, 2, 3}); c != 0 {
		t.Errorf("identical churn %v", c)
	}
	if c := churn([]int32{1, 2, 3}, []int32{4, 5, 6}); c != 1 {
		t.Errorf("disjoint churn %v", c)
	}
	if c := churn([]int32{1, 2, 3, 4}, []int32{3, 4, 5, 6}); c != 0.5 {
		t.Errorf("half churn %v", c)
	}
	if c := churn(nil, nil); c != 0 {
		t.Errorf("empty churn %v", c)
	}
}

// topK must agree with a full sort for arbitrary inputs.
func TestTopKMatchesSortProperty(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw)%200 + 1
		k := int(kRaw)%(n+5) + 1
		v := make([]float64, n)
		for i := range v {
			v[i] = math.Floor(r.Float64()*10) / 10 // coarse values force ties
		}
		got := topK(v, k, nil)
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(i)
		}
		sort.SliceStable(idx, func(a, b int) bool { return v[idx[a]] > v[idx[b]] })
		if k > n {
			k = n
		}
		want := append([]int32(nil), idx[:k]...)
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Monitor hotness stays a normalized distribution under any
// interleaving of Observe and Tick, and Tick alone leaves it unchanged.
func TestMonitorNormalizationProperty(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(20)
		m, err := NewMonitor(n, 1+r.Float64()*30)
		if err != nil {
			return false
		}
		observed := false
		for s := 0; s < int(steps)%120+5; s++ {
			switch r.Intn(3) {
			case 0:
				if err := m.Observe(int32(r.Intn(n)), r.Float64()*5); err != nil {
					return false
				}
				observed = true
			case 1:
				w := make([]float64, n)
				for i := range w {
					w[i] = r.Float64()
				}
				if err := m.ObserveWeights(w); err != nil {
					return false
				}
				observed = true
			case 2:
				before := m.Hotness()
				m.Tick()
				after := m.Hotness()
				for i := range before {
					if math.Abs(before[i]-after[i]) > 1e-9 {
						return false // Tick must not change normalized hotness
					}
				}
			}
		}
		h := m.Hotness()
		sum := 0.0
		for _, v := range h {
			if v < 0 {
				return false
			}
			sum += v
		}
		if !observed {
			return sum == 0
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: TV is a metric on distributions — symmetric, zero on self,
// bounded by [0,1], and triangle-bounded.
func TestTVMetricProperty(t *testing.T) {
	gen := func(r *rand.Rand, n int) []float64 {
		v := make([]float64, n)
		sum := 0.0
		for i := range v {
			v[i] = r.Float64()
			sum += v[i]
		}
		for i := range v {
			v[i] /= sum
		}
		return v
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(50)
		a, b, c := gen(r, n), gen(r, n), gen(r, n)
		ab, _ := TV(a, b)
		ba, _ := TV(b, a)
		aa, _ := TV(a, a)
		ac, _ := TV(a, c)
		cb, _ := TV(c, b)
		if aa != 0 {
			return false
		}
		if math.Abs(ab-ba) > 1e-12 {
			return false
		}
		if ab < 0 || ab > 1+1e-12 {
			return false
		}
		return ab <= ac+cb+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReplanDeltaPath(t *testing.T) {
	const n = 1000
	hot := zipf(t, n)
	r, err := NewReplanner(hot, unitBytes(n), bins(), 10, 1, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	r.DeltaBudget = 0.5
	// Mild drift: swap two boundary-crossing ranks.
	live := append([]float64(nil), hot...)
	live[5], live[800] = live[800], live[5]
	mig, err := r.Replan(live)
	if err != nil {
		t.Fatal(err)
	}
	if !mig.Triggered || !mig.Incremental || mig.FellBack {
		t.Fatalf("mild drift: %+v", mig)
	}
	if mig.MovedItems == 0 || mig.MovedItems > 10 {
		t.Errorf("delta moved %d items for a two-rank swap", mig.MovedItems)
	}
	if r.Replans() != 1 {
		t.Errorf("replans = %d", r.Replans())
	}
	// Severe drift blows the budget and falls back to a full solve.
	rev := make([]float64, n)
	for i := range rev {
		rev[i] = hot[n-1-i]
	}
	mig, err = r.Replan(rev)
	if err != nil {
		t.Fatal(err)
	}
	if !mig.Triggered || mig.Incremental || !mig.FellBack {
		t.Fatalf("reversal: %+v", mig)
	}
	// The fallback layout must match what a fresh replanner would plan.
	fresh, err := NewReplanner(rev, unitBytes(n), bins(), 10, 1, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range fresh.Current().Of {
		if r.Current().Of[i] != b {
			t.Fatalf("fallback layout differs from scratch plan at item %d", i)
		}
	}
}

func TestReplanPaybackSkipsUnprofitableMigration(t *testing.T) {
	const n = 1000
	hot := zipf(t, n)
	r, err := NewReplanner(hot, unitBytes(n), bins(), 10, 1, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	r.DeltaBudget = 0.9
	// TrafficScale 1 byte/epoch and a half-epoch payback window: even a
	// perfect hit-rate recovery saves < 1 byte, so any real migration is
	// unprofitable.
	r.PaybackEpochs = 0.5
	live := rotate(hot, n/2)
	mig, err := r.Replan(live)
	if err != nil {
		t.Fatal(err)
	}
	if !mig.Skipped || mig.Triggered {
		t.Fatalf("unprofitable migration not skipped: %+v", mig)
	}
	if mig.MovedItems != 0 || mig.MovedBytes != 0 {
		t.Errorf("skipped migration still bills moves: %+v", mig)
	}
	if r.Replans() != 0 {
		t.Errorf("skipped replan counted: %d", r.Replans())
	}
	// A generous window lets the same migration through.
	r.PaybackEpochs = 1e6
	mig, err = r.Replan(live)
	if err != nil {
		t.Fatal(err)
	}
	if mig.Skipped || !mig.Triggered {
		t.Fatalf("profitable migration skipped: %+v", mig)
	}
	if mig.ProjectedSavedBytes <= 0 {
		t.Errorf("no projected savings recorded: %+v", mig)
	}
}

func TestTierOf(t *testing.T) {
	const n = 300
	hot := zipf(t, n)
	r, err := NewReplanner(hot, unitBytes(n), bins(), 10, 1, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	tiers, err := TierOf(r.Current())
	if err != nil {
		t.Fatal(err)
	}
	if len(tiers) != n {
		t.Fatalf("%d tiers for %d items", len(tiers), n)
	}
	if tiers[0] != uint8(ddak.TierGPU) {
		t.Errorf("hottest item on tier %d, want GPU", tiers[0])
	}
	seen := map[uint8]bool{}
	for _, tr := range tiers {
		seen[tr] = true
	}
	if !seen[0] || !seen[2] {
		t.Errorf("tier spread missing tiers: %v", seen)
	}
	if _, err := TierOf(nil); err == nil {
		t.Error("nil assignment accepted")
	}
}
