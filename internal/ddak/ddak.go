// Package ddak implements the data-distribution-aware knapsack algorithm
// of paper §3.3: given per-vertex hotness (from pre-sampling) and per-bin
// traffic targets (from the max-flow solution), it places vertex embeddings
// across the storage hierarchy — GPU HBM caches, per-socket CPU memory,
// and NVMe SSDs — so that realized I/O traffic matches the theoretically
// optimal distribution. A hash-placement baseline is included for the
// Fig 14/15/17 comparisons.
package ddak

import (
	"fmt"
	"math"

	"moment/internal/obs"
)

// Tier ranks the storage hierarchy; lower is faster (paper: GPU > CPU > SSD).
type Tier int

const (
	// TierGPU is a per-GPU HBM cache bin.
	TierGPU Tier = iota
	// TierCPU is a per-socket CPU-memory cache bin.
	TierCPU
	// TierSSD is one NVMe SSD.
	TierSSD
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierGPU:
		return "gpu"
	case TierCPU:
		return "cpu"
	case TierSSD:
		return "ssd"
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// Bin is one placement target with a byte capacity and the traffic budget
// (bytes/epoch) the max-flow plan expects it to serve.
type Bin struct {
	Name     string
	Tier     Tier
	Capacity float64 // bytes available for embeddings
	Traffic  float64 // expected served bytes per epoch (Bin_traffic)
}

// CheckItems, when non-nil, audits every PlaceItems result before it is
// returned. It is installed by internal/verify when self-verification is
// enabled; declared here rather than imported so ddak does not depend on
// the verification subsystem.
var CheckItems func(a *ItemAssignment, items []Item) error

// prioEq compares filling priorities with a relative epsilon. Priorities are
// products of accumulated float ratios, so two bins that are equal in exact
// arithmetic almost never compare == once any access or fill has built up;
// the epsilon keeps such a near-tie with the earlier bin instead of handing
// it to whichever bin's float happens to round lower.
func prioEq(a, b float64) bool {
	if a == b { // covers 0==0 and Inf==Inf
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// pickBin selects the eligible bin with minimum filling priority. A
// near-tie (relative 1e-9) keeps the earlier bin. Callers restrict the
// eligible bins to one tier and walk the tiers GPU > CPU > SSD themselves.
// Returns -1 when no bin is eligible.
func pickBin(n int, eligible func(int) bool, priority func(int) float64) int {
	best := -1
	bestP := math.Inf(1)
	for i := 0; i < n; i++ {
		if !eligible(i) {
			continue
		}
		if p := priority(i); best == -1 || p < bestP && !prioEq(p, bestP) {
			best, bestP = i, p
		}
	}
	return best
}

// Item is a placement unit with its own size: a single vertex for scaled
// datasets, or a rank bucket of vertices for paper-scale simulations (the
// pooling of §3.3 taken one step further so terabyte datasets fit in a
// laptop-scale planner).
type Item struct {
	Hot   float64 // expected per-epoch access mass
	Bytes float64 // embedding bytes this item occupies
}

// ItemAssignment is a complete embedding layout.
type ItemAssignment struct {
	Bins []Bin
	// Of maps each item (by index into the placed item slice) to a bin
	// index.
	Of []int32
	// Used is the bytes stored per bin.
	Used []float64
	// Access is the cumulative access mass per bin (Bin_access, Eq. 2).
	Access []float64
	// Pools is the number of pooled placement decisions taken (cost model).
	Pools int
}

// ExplainAssignment records the per-bin score breakdown of an assignment on
// an explain trail: for each bin, its filled GiB and the access mass it
// absorbs. Steps carry SeqSummary so the breakdown renders with the run
// summary, after per-candidate search steps. No-op on a nil trail.
func ExplainAssignment(ex *obs.Explain, a *ItemAssignment) {
	if ex == nil || a == nil {
		return
	}
	for i, b := range a.Bins {
		ex.Add(obs.ExplainStep{Seq: obs.SeqSummary, Stage: "ddak", Subject: b.Name,
			Reason: "used-gib", Value: a.Used[i] / (1 << 30)})
		ex.Add(obs.ExplainStep{Seq: obs.SeqSummary, Stage: "ddak", Subject: b.Name,
			Reason: "access-frac", Value: a.Access[i]})
	}
}

// PlaceItems runs DDAK over variable-size items: hot-first (by access
// density), pooled poolN items per decision, minimum filling priority
// within the highest eligible tier of the GPU > CPU > SSD hierarchy.
// trafficScale converts item access mass into the byte units of
// Bin.Traffic (pass the epoch's total fetch bytes): a bin whose realized
// traffic (access·trafficScale) has reached its max-flow budget stops
// receiving items — the "traffic limits" enforcement of §3.3 — until no
// uncapped bin remains, at which point capacity alone governs.
// trafficScale <= 0 disables traffic caps.
func PlaceItems(items []Item, bins []Bin, poolN int, trafficScale float64) (*ItemAssignment, error) {
	return PlaceItemsObserved(items, bins, poolN, trafficScale, nil)
}

// PlaceItemsObserved is PlaceItems with instrumentation: a "ddak" span,
// pool-step and priority-inversion counters, and per-bin fill-ratio gauges.
// A priority inversion is a pool decision that lands on a slower tier while
// a faster-tier bin still had room — i.e. the max-flow traffic cap, not
// capacity, forced the spill. Inversion detection is only computed when an
// observer is attached, so the unobserved path pays nothing.
func PlaceItemsObserved(items []Item, bins []Bin, poolN int, trafficScale float64, o *obs.Observer) (*ItemAssignment, error) {
	if err := checkItems(items, bins); err != nil {
		return nil, err
	}
	return placeOrdered(items, densityOrder(items), bins, poolN, trafficScale, o)
}

// placeOrdered is PlaceItemsObserved on checked items whose density order
// the caller already holds.
func placeOrdered(items []Item, order []int32, bins []Bin, poolN int, trafficScale float64, o *obs.Observer) (*ItemAssignment, error) {
	if poolN <= 0 {
		poolN = 100
	}
	a := &ItemAssignment{
		Bins:   append([]Bin(nil), bins...),
		Of:     make([]int32, len(items)),
		Used:   make([]float64, len(bins)),
		Access: make([]float64, len(bins)),
	}
	free := make([]float64, len(bins))
	for i, b := range bins {
		free[i] = b.Capacity
	}
	priority := func(i int) float64 {
		b := a.Bins[i]
		fill := 0.0
		if b.Capacity > 0 {
			fill = a.Used[i] / b.Capacity
		}
		if b.Traffic <= 0 {
			return math.Inf(1)
		}
		return (a.Access[i] / b.Traffic) * fill
	}
	capped := func(i int) bool {
		if trafficScale <= 0 {
			return false
		}
		return a.Access[i]*trafficScale >= a.Bins[i].Traffic
	}
	pickTier := func(need float64, honorCaps bool) int {
		for _, tier := range []Tier{TierGPU, TierCPU, TierSSD} {
			best := pickBin(len(a.Bins),
				func(i int) bool {
					return a.Bins[i].Tier == tier && free[i] >= need &&
						!(honorCaps && capped(i))
				},
				priority)
			if best >= 0 {
				return best
			}
		}
		return -1
	}
	sp := o.Begin("ddak")
	sp.SetInt("items", len(items))
	sp.SetInt("bins", len(bins))
	defer sp.End()
	inversions := 0
	cursor := 0
	for cursor < len(order) {
		need := items[order[cursor]].Bytes
		bin := pickTier(need, true)
		if bin < 0 {
			bin = pickTier(need, false)
		}
		if bin < 0 {
			return nil, fmt.Errorf("ddak: no bin can hold item %d (%.0f bytes)",
				order[cursor], need)
		}
		if o != nil {
			// Any faster-tier bin with room must have been traffic-capped,
			// or pickTier would have chosen it.
			for i := range a.Bins {
				if a.Bins[i].Tier < a.Bins[bin].Tier && free[i] >= need {
					inversions++
					break
				}
			}
		}
		placed := 0
		for placed < poolN && cursor < len(order) {
			it := items[order[cursor]]
			if free[bin] < it.Bytes {
				break
			}
			a.Of[order[cursor]] = int32(bin)
			a.Used[bin] += it.Bytes
			a.Access[bin] += it.Hot
			free[bin] -= it.Bytes
			cursor++
			placed++
		}
		a.Pools++
	}
	if o != nil {
		o.Counter("ddak_pool_steps_total").Add(float64(a.Pools))
		o.Counter("ddak_priority_inversions_total").Add(float64(inversions))
		for i, b := range a.Bins {
			fill := 0.0
			if b.Capacity > 0 {
				fill = a.Used[i] / b.Capacity
			}
			o.Gauge("ddak_bin_fill_ratio", obs.L("bin", b.Name)).Set(fill)
		}
		sp.SetInt("pools", a.Pools)
		sp.SetInt("inversions", inversions)
	}
	if CheckItems != nil {
		if err := CheckItems(a, items); err != nil {
			return nil, fmt.Errorf("ddak: self-check failed: %w", err)
		}
	}
	return a, nil
}

// HashPlaceItems spreads items across bins proportionally to capacity,
// ignoring hotness (the Fig 14/15 baseline at paper scale).
func HashPlaceItems(items []Item, bins []Bin) (*ItemAssignment, error) {
	if err := checkItems(items, bins); err != nil {
		return nil, err
	}
	a := &ItemAssignment{
		Bins:   append([]Bin(nil), bins...),
		Of:     make([]int32, len(items)),
		Used:   make([]float64, len(bins)),
		Access: make([]float64, len(bins)),
	}
	free := make([]float64, len(bins))
	var total float64
	for i, b := range bins {
		free[i] = b.Capacity
		total += b.Capacity
	}
	credits := make([]float64, len(bins))
	for v, it := range items {
		best := -1
		for i, b := range bins {
			if free[i] < it.Bytes {
				continue
			}
			credits[i] += b.Capacity / total
			if best == -1 || credits[i] > credits[best] {
				best = i
			}
		}
		if best == -1 {
			return nil, fmt.Errorf("ddak: hash item placement out of capacity at item %d", v)
		}
		credits[best] -= 1
		a.Of[v] = int32(best)
		a.Used[best] += it.Bytes
		a.Access[best] += it.Hot
		free[best] -= it.Bytes
	}
	a.Pools = len(items)
	return a, nil
}

func checkItems(items []Item, bins []Bin) error {
	if len(items) == 0 {
		return fmt.Errorf("ddak: no items")
	}
	if len(bins) == 0 {
		return fmt.Errorf("ddak: no bins")
	}
	var need, have float64
	for i, it := range items {
		if it.Hot < 0 || math.IsNaN(it.Hot) || it.Bytes <= 0 {
			return fmt.Errorf("ddak: bad item %d: %+v", i, it)
		}
		need += it.Bytes
	}
	for i, b := range bins {
		if b.Capacity < 0 || b.Traffic < 0 {
			return fmt.Errorf("ddak: bin %d (%s) has negative capacity or traffic", i, b.Name)
		}
		have += b.Capacity
	}
	if have < need {
		return fmt.Errorf("ddak: total capacity %.0f < item bytes %.0f", have, need)
	}
	return nil
}

// ServedBytesItems computes, per bin, the bytes it serves during an epoch
// that fetches totalBytes of embeddings: totalBytes scaled by the bin's
// share of the access mass (masses need not sum to 1; they are normalized
// here).
func (a *ItemAssignment) ServedBytesItems(totalBytes float64) []float64 {
	var mass float64
	for _, m := range a.Access {
		mass += m
	}
	out := make([]float64, len(a.Bins))
	if mass == 0 {
		return out
	}
	for i, m := range a.Access {
		out[i] = m / mass * totalBytes
	}
	return out
}

// DegradeBins returns a copy of bins with the named bins failed: their
// capacity and traffic budget drop to zero, and each failed bin's budget is
// redistributed across surviving bins of the same tier in proportion to
// their own budgets (evenly when no survivor has one). It errors when a
// named bin does not exist, or when a tier loses every bin while still
// owing traffic — the caller cannot degrade gracefully past that point.
func DegradeBins(bins []Bin, dead map[string]bool) ([]Bin, error) {
	out := append([]Bin(nil), bins...)
	known := map[string]bool{}
	deadTraffic := map[Tier]float64{}
	for i := range out {
		if dead[out[i].Name] {
			known[out[i].Name] = true
			deadTraffic[out[i].Tier] += out[i].Traffic
			out[i].Capacity = 0
			out[i].Traffic = 0
		}
	}
	for name := range dead {
		if !known[name] {
			return nil, fmt.Errorf("ddak: cannot degrade unknown bin %q", name)
		}
	}
	for tier, dt := range deadTraffic {
		if dt == 0 {
			continue
		}
		var surv []int
		sum := 0.0
		for i := range out {
			if out[i].Tier == tier && !dead[out[i].Name] {
				surv = append(surv, i)
				sum += out[i].Traffic
			}
		}
		if len(surv) == 0 {
			return nil, fmt.Errorf("ddak: tier %s lost every bin with %.0f traffic bytes outstanding", tier, dt)
		}
		for _, i := range surv {
			if sum > 0 {
				out[i].Traffic += dt * out[i].Traffic / sum
			} else {
				out[i].Traffic += dt / float64(len(surv))
			}
		}
	}
	return out, nil
}

// HitRateItems sums normalized access mass over bins of a tier.
func (a *ItemAssignment) HitRateItems(tier Tier) float64 {
	var mass, tierMass float64
	for i, b := range a.Bins {
		mass += a.Access[i]
		if b.Tier == tier {
			tierMass += a.Access[i]
		}
	}
	if mass == 0 {
		return 0
	}
	return tierMass / mass
}
