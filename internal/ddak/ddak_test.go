package ddak

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// standard bin set: 2 GPU caches, 1 CPU cache, 4 SSDs.
func testBins() []Bin {
	return []Bin{
		{Name: "hbm0", Tier: TierGPU, Capacity: 100, Traffic: 500},
		{Name: "hbm1", Tier: TierGPU, Capacity: 100, Traffic: 500},
		{Name: "dram0", Tier: TierCPU, Capacity: 300, Traffic: 300},
		{Name: "ssd0", Tier: TierSSD, Capacity: 10_000, Traffic: 100},
		{Name: "ssd1", Tier: TierSSD, Capacity: 10_000, Traffic: 100},
		{Name: "ssd2", Tier: TierSSD, Capacity: 10_000, Traffic: 100},
		{Name: "ssd3", Tier: TierSSD, Capacity: 10_000, Traffic: 100},
	}
}

func TestPlaceHotVerticesLandInFastTiers(t *testing.T) {
	items := zipfItems(t, 2000)
	a, err := PlaceItems(items, testBins(), 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	validateItems(t, a, items)
	// The hottest vertex must be in a cache tier, not an SSD.
	if tier := a.Bins[a.Of[0]].Tier; tier == TierSSD {
		t.Errorf("hottest vertex placed on %v", a.Bins[a.Of[0]].Name)
	}
	// GPU-cache hit rate should far exceed the capacity share.
	gpuHit := a.HitRateItems(TierGPU)
	capShare := 200.0 / 2000.0
	if gpuHit < 3*capShare {
		t.Errorf("GPU hit rate %.3f barely above capacity share %.3f", gpuHit, capShare)
	}
}

// trafficMismatch measures how far realized per-bin service is from the
// max-flow traffic plan: ½·Σ|served_b − traffic_b| / Σ traffic_b, the
// total-variation distance.
func trafficMismatch(a *ItemAssignment, totalBytes float64) float64 {
	served := a.ServedBytesItems(totalBytes)
	sumT, dist := 0.0, 0.0
	for i, b := range a.Bins {
		sumT += b.Traffic
		dist += math.Abs(served[i] - b.Traffic)
	}
	return dist / (2 * sumT)
}

func TestPlaceBeatsHashOnTrafficMatch(t *testing.T) {
	items := zipfItems(t, 5000)
	bins := testBins()
	// Scale capacities so everything fits.
	for i := range bins {
		if bins[i].Tier == TierSSD {
			bins[i].Capacity = 5000
		}
	}
	const total = 1600
	d, err := PlaceItems(items, bins, 100, total)
	if err != nil {
		t.Fatal(err)
	}
	h, err := HashPlaceItems(items, bins)
	if err != nil {
		t.Fatal(err)
	}
	if md, mh := trafficMismatch(d, total), trafficMismatch(h, total); md >= mh {
		t.Errorf("DDAK mismatch %.3f >= hash %.3f", md, mh)
	}
	// DDAK's GPU hit rate should beat hash's by a wide margin.
	if d.HitRateItems(TierGPU) < 2*h.HitRateItems(TierGPU) {
		t.Errorf("DDAK gpu hit %.3f vs hash %.3f", d.HitRateItems(TierGPU), h.HitRateItems(TierGPU))
	}
}

// Capacities and Used/Access accounting hold under random items, bins,
// pool sizes and traffic scales, with traffic caps on and off.
func TestPlaceRespectsCapacitiesProperty(t *testing.T) {
	f := func(seed int64, poolRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 500 + r.Intn(1500)
		items := make([]Item, n)
		need := 0.0
		for i := range items {
			items[i] = Item{Hot: r.Float64(), Bytes: float64(1 + r.Intn(3))}
			need += items[i].Bytes
		}
		bins := []Bin{
			{Name: "g", Tier: TierGPU, Capacity: float64(50 + r.Intn(100)), Traffic: r.Float64() * 1000},
			{Name: "c", Tier: TierCPU, Capacity: float64(100 + r.Intn(200)), Traffic: r.Float64() * 1000},
			{Name: "s0", Tier: TierSSD, Capacity: need, Traffic: r.Float64() * 1000},
			{Name: "s1", Tier: TierSSD, Capacity: need, Traffic: r.Float64() * 1000},
		}
		pool := int(poolRaw)%200 + 1
		scale := 0.0 // traffic caps off
		if r.Intn(4) > 0 {
			scale = r.Float64() * 4000
		}
		a, err := PlaceItems(items, bins, pool, scale)
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return false
		}
		validateItems(t, a, items)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPoolingReducesDecisions(t *testing.T) {
	items := zipfItems(t, 10_000)
	bins := testBins()
	for i := range bins {
		bins[i].Capacity *= 10
	}
	a1, err := PlaceItems(items, bins, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	a100, err := PlaceItems(items, bins, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a100.Pools >= a1.Pools {
		t.Errorf("pooling did not reduce decisions: %d vs %d", a100.Pools, a1.Pools)
	}
	if a1.Pools != 10_000 {
		t.Errorf("poolN=1 should decide per item, got %d", a1.Pools)
	}
	// Pooled placement should stay close in quality (GPU hit rate).
	if d := a1.HitRateItems(TierGPU) - a100.HitRateItems(TierGPU); d > 0.05 {
		t.Errorf("pooling cost %.3f hit rate", d)
	}
}

func TestPlaceZeroPoolDefaults(t *testing.T) {
	a, err := PlaceItems(zipfItems(t, 300), testBins(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// default pool size 100 -> at least ceil(300/100) pools, but bins may
	// split pools; just require fewer decisions than items.
	if a.Pools >= 300 {
		t.Errorf("default pooling ineffective: %d pools", a.Pools)
	}
}

// A zero-traffic bin receives items only once the budgeted bin of its
// tier is full. With traffic caps on, the budgeted bin is capped after its
// first item and the zero-traffic bin always counts as capped, so the
// capacity-only fallback decides — by priority, which still prefers the
// budgeted bin.
func TestZeroTrafficBinsAreLastResort(t *testing.T) {
	items := zipfItems(t, 100)
	bins := []Bin{
		{Name: "budgeted", Tier: TierSSD, Capacity: 60, Traffic: 100},
		{Name: "cold", Tier: TierSSD, Capacity: 100, Traffic: 0},
	}
	for _, scale := range []float64{0, 1000} {
		a, err := PlaceItems(items, bins, 10, scale)
		if err != nil {
			t.Fatal(err)
		}
		if a.Used[0] != 60 {
			t.Errorf("scale %v: budgeted bin used %.0f, want full 60", scale, a.Used[0])
		}
		if a.Used[1] != 40 {
			t.Errorf("scale %v: cold bin used %.0f, want overflow 40", scale, a.Used[1])
		}
		// The cold bin must hold the coldest items.
		if a.Of[0] != 0 {
			t.Errorf("scale %v: hottest item in zero-traffic bin", scale)
		}
	}
}

func TestHashPlaceUniform(t *testing.T) {
	items := zipfItems(t, 4000)
	bins := []Bin{
		{Name: "s0", Tier: TierSSD, Capacity: 2000, Traffic: 100},
		{Name: "s1", Tier: TierSSD, Capacity: 2000, Traffic: 100},
		{Name: "s2", Tier: TierSSD, Capacity: 2000, Traffic: 100},
		{Name: "s3", Tier: TierSSD, Capacity: 2000, Traffic: 100},
	}
	a, err := HashPlaceItems(items, bins)
	if err != nil {
		t.Fatal(err)
	}
	validateItems(t, a, items)
	for i := range bins {
		if math.Abs(a.Used[i]-1000) > 10 {
			t.Errorf("bin %d used %.0f, want ~1000 (uniform)", i, a.Used[i])
		}
	}
	// Hash spreads hotness roughly evenly: each bin ~25%.
	for i := range bins {
		if a.Access[i] < 0.15 || a.Access[i] > 0.35 {
			t.Errorf("bin %d hotness share %.3f not ~0.25", i, a.Access[i])
		}
	}
}

func TestHashPlaceCapacityWeighted(t *testing.T) {
	bins := []Bin{
		{Name: "big", Tier: TierSSD, Capacity: 4000, Traffic: 1},
		{Name: "small", Tier: TierSSD, Capacity: 1000, Traffic: 1},
	}
	a, err := HashPlaceItems(zipfItems(t, 3000), bins)
	if err != nil {
		t.Fatal(err)
	}
	ratio := a.Used[0] / a.Used[1]
	if ratio < 3 || ratio > 5 {
		t.Errorf("capacity weighting off: used %v", a.Used)
	}
}

func TestServedBytes(t *testing.T) {
	items := []Item{{Hot: 0.5, Bytes: 1}, {Hot: 0.3, Bytes: 1}, {Hot: 0.2, Bytes: 1}}
	bins := []Bin{
		{Name: "a", Tier: TierGPU, Capacity: 1, Traffic: 10},
		{Name: "b", Tier: TierSSD, Capacity: 10, Traffic: 10},
	}
	a, err := PlaceItems(items, bins, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	served := a.ServedBytesItems(100)
	sum := 0.0
	for _, s := range served {
		sum += s
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("served sums to %v", sum)
	}
	// Hottest item is in the GPU bin: it alone serves 50.
	if math.Abs(served[0]-50) > 1e-9 {
		t.Errorf("gpu bin served %v, want 50", served[0])
	}
}

func TestTierString(t *testing.T) {
	if TierGPU.String() != "gpu" || TierCPU.String() != "cpu" || TierSSD.String() != "ssd" {
		t.Error("tier names changed")
	}
	if Tier(9).String() != "tier(9)" {
		t.Error("unknown tier name")
	}
}

func testItems(n int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Hot: 1 / float64(i+1), Bytes: 10}
	}
	return items
}

func TestPlaceItemsBasics(t *testing.T) {
	items := testItems(500)
	bins := []Bin{
		{Name: "g", Tier: TierGPU, Capacity: 500, Traffic: 100},
		{Name: "c", Tier: TierCPU, Capacity: 1000, Traffic: 50},
		{Name: "s", Tier: TierSSD, Capacity: 10000, Traffic: 20},
	}
	a, err := PlaceItems(items, bins, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Of) != 500 {
		t.Fatalf("placed %d items", len(a.Of))
	}
	// Capacity respected.
	for i := range bins {
		if a.Used[i] > bins[i].Capacity+1e-9 {
			t.Errorf("bin %d over capacity", i)
		}
	}
	// Hottest item lands in a cache tier.
	if a.Bins[a.Of[0]].Tier == TierSSD {
		t.Error("hottest item on SSD")
	}
	if a.HitRateItems(TierGPU) <= 0 {
		t.Error("no GPU hit mass")
	}
	served := a.ServedBytesItems(1000)
	sum := 0.0
	for _, s := range served {
		sum += s
	}
	if math.Abs(sum-1000) > 1e-6 {
		t.Errorf("served sums to %v", sum)
	}
}

func TestPlaceItemsVariableSizes(t *testing.T) {
	items := []Item{
		{Hot: 10, Bytes: 100}, // hot but large
		{Hot: 5, Bytes: 1},
		{Hot: 1, Bytes: 1},
	}
	bins := []Bin{
		{Name: "g", Tier: TierGPU, Capacity: 50, Traffic: 100}, // too small for item 0
		{Name: "s", Tier: TierSSD, Capacity: 1000, Traffic: 10},
	}
	a, err := PlaceItems(items, bins, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Of[0] != 1 {
		t.Error("oversized item should spill to SSD")
	}
	// Density ordering: item 1 (5/1) outranks item 0 (10/100).
	if a.Of[1] != 0 {
		t.Error("dense hot item should take the cache")
	}
}

func TestPlaceItemsErrors(t *testing.T) {
	bins := []Bin{{Name: "s", Tier: TierSSD, Capacity: 100, Traffic: 1}}
	if _, err := PlaceItems(nil, bins, 1, 0); err == nil {
		t.Error("no items accepted")
	}
	if _, err := PlaceItems([]Item{{Hot: 1, Bytes: 0}}, bins, 1, 0); err == nil {
		t.Error("zero-byte item accepted")
	}
	if _, err := PlaceItems([]Item{{Hot: -1, Bytes: 1}}, bins, 1, 0); err == nil {
		t.Error("negative hot accepted")
	}
	if _, err := PlaceItems([]Item{{Hot: 1, Bytes: 200}}, bins, 1, 0); err == nil {
		t.Error("capacity overflow accepted")
	}
	if _, err := HashPlaceItems([]Item{{Hot: 1, Bytes: 200}}, bins); err == nil {
		t.Error("hash overflow accepted")
	}
	if _, err := PlaceItems([]Item{{Hot: 1, Bytes: 1}}, nil, 1, 0); err == nil {
		t.Error("no bins accepted")
	}
	if _, err := PlaceItems([]Item{{Hot: math.NaN(), Bytes: 1}}, bins, 1, 0); err == nil {
		t.Error("NaN hotness accepted")
	}
	bad := testBins()
	bad[0].Capacity = -5
	if _, err := PlaceItems([]Item{{Hot: 1, Bytes: 1}}, bad, 1, 0); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestHashPlaceItemsIgnoresHotness(t *testing.T) {
	items := testItems(1000)
	bins := []Bin{
		{Name: "g", Tier: TierGPU, Capacity: 2500, Traffic: 100},
		{Name: "s", Tier: TierSSD, Capacity: 7500, Traffic: 10},
	}
	h, err := HashPlaceItems(items, bins)
	if err != nil {
		t.Fatal(err)
	}
	// Capacity-proportional spread: 25% / 75%.
	if math.Abs(h.Used[0]-2500) > 100 {
		t.Errorf("hash used %v", h.Used)
	}
	d, err := PlaceItems(items, bins, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.HitRateItems(TierGPU) <= h.HitRateItems(TierGPU) {
		t.Errorf("DDAK gpu hit %.3f <= hash %.3f",
			d.HitRateItems(TierGPU), h.HitRateItems(TierGPU))
	}
}

// Regression: pick() used to compare computed float priorities with ==.
// 0.1+0.2 and 0.3 are equal in exact arithmetic but differ in float64, so a
// later bin whose float happens to round lower must not displace an
// earlier bin it ties with; a real gap still wins, and ineligible bins are
// never picked however low their priority. Callers restrict eligibility to
// one tier, so every bin here is one tier's.
func TestPickBinNearTieKeepsEarlierBin(t *testing.T) {
	// Computed at runtime — Go folds constant expressions exactly, which
	// would erase the float discrepancy this test depends on.
	x, y, half := 0.1, 0.2, 0.5
	prios := []float64{(x + y) * half, 0.3 * half} // 0.15000000000000002 vs 0.15
	if prios[0] == prios[1] {
		t.Fatal("test premise broken: priorities compare exactly equal")
	}
	all := func(int) bool { return true }
	if got := pickBin(2, all, func(i int) float64 { return prios[i] }); got != 0 {
		t.Errorf("near-tie picked bin %d, want the earlier bin 0", got)
	}
	// A genuine gap must still win over bin order.
	gap := []float64{0.15, 0.10}
	if got := pickBin(2, all, func(i int) float64 { return gap[i] }); got != 1 {
		t.Errorf("clear minimum lost to bin order: picked %d, want 1", got)
	}
	// Equal priority: earliest index wins.
	if got := pickBin(3, all, func(int) float64 { return 0.5 }); got != 0 {
		t.Errorf("index tie-break picked %d, want 0", got)
	}
	// Ineligible bins are skipped, even the one with the lowest priority.
	skip := []float64{0.0, 0.5, 0.4}
	if got := pickBin(3, func(i int) bool { return i != 0 }, func(i int) float64 { return skip[i] }); got != 2 {
		t.Errorf("eligibility ignored: picked %d, want 2", got)
	}
	if got := pickBin(3, func(int) bool { return false }, func(i int) float64 { return skip[i] }); got != -1 {
		t.Errorf("no eligible bin picked %d, want -1", got)
	}
}

// Two bins with equal capacity and traffic, the CPU bin listed first: both
// start at priority 0, and the GPU bin must win, so it holds the hottest
// items and the CPU bin only the rest.
func TestPlaceEqualPriorityBinsPreferGPU(t *testing.T) {
	bins := []Bin{
		{Name: "dram", Tier: TierCPU, Capacity: 50, Traffic: 100},
		{Name: "hbm", Tier: TierGPU, Capacity: 50, Traffic: 100},
	}
	items := make([]Item, 100)
	for i := range items {
		items[i] = Item{Hot: 1.0 / float64(i+3), Bytes: 1} // distinct, accumulating sums
	}
	a, err := PlaceItems(items, bins, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	validateItems(t, a, items)
	for i := range items {
		want := int32(1) // the 50 hottest items fill hbm
		if i >= 50 {
			want = 0
		}
		if a.Of[i] != want {
			t.Fatalf("item %d in bin %s, want %s", i, a.Bins[a.Of[i]].Name, a.Bins[want].Name)
		}
	}
	if a.Used[0] != 50 || a.Used[1] != 50 {
		t.Errorf("bins not both full: %v", a.Used)
	}
}
