package ddak

// The delta solver as it stood before the repair kept residents in
// eviction order: every eviction check rescans each resident of each bin
// it probes, every eviction re-sorts the whole bin, and the full-solve
// fallback sorts the items again. It is kept here, with the full solve
// and the tier-aware oraclePickBin it used, as the oracle the production
// solver must match bit for bit whenever the density comparison is a
// strict weak order.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"moment/internal/obs"
)

func oracleTierLess(a, b Tier) bool { return a < b }

// oraclePickBin selects the eligible bin with minimum filling priority, breaking
// near-ties (relative 1e-9) by tier (GPU > CPU > SSD) and then by bin order.
// Returns -1 when no bin is eligible.
func oraclePickBin(n int, eligible func(int) bool, priority func(int) float64, tier func(int) Tier) int {
	best := -1
	bestP := math.Inf(1)
	for i := 0; i < n; i++ {
		if !eligible(i) {
			continue
		}
		p := priority(i)
		switch {
		case best == -1, p < bestP && !prioEq(p, bestP):
			best, bestP = i, p
		case prioEq(p, bestP) && oracleTierLess(tier(i), tier(best)):
			// Near-tie: prefer the faster tier. Bin order needs no case —
			// ascending iteration already keeps the earliest index.
			best, bestP = i, p
		}
	}
	return best
}

// oracleDensityOrder returns item indices sorted hot-first by access density
// (mass per byte), the same ordering PlaceItems uses. Stable, so items
// with equal density keep index order — identical inputs produce
// identical orders.
func oracleDensityOrder(items []Item) []int32 {
	order := make([]int32, len(items))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := items[order[i]], items[order[j]]
		return a.Hot*b.Bytes > b.Hot*a.Bytes
	})
	return order
}

// oraclePlaceItems is PlaceItems with instrumentation: a "ddak" span,
// pool-step and priority-inversion counters, and per-bin fill-ratio gauges.
// A priority inversion is a pool decision that lands on a slower tier while
// a faster-tier bin still had room — i.e. the max-flow traffic cap, not
// capacity, forced the spill. Inversion detection is only computed when an
// observer is attached, so the unobserved path pays nothing.
func oraclePlaceItems(items []Item, bins []Bin, poolN int, trafficScale float64, o *obs.Observer) (*ItemAssignment, error) {
	if err := checkItems(items, bins); err != nil {
		return nil, err
	}
	if poolN <= 0 {
		poolN = 100
	}
	order := make([]int32, len(items))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(i, j int) bool {
		// Hot-first by access density (mass per byte): plain hotness
		// order when item sizes are uniform.
		a, b := items[order[i]], items[order[j]]
		return a.Hot*b.Bytes > b.Hot*a.Bytes
	})
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
			best := oraclePickBin(len(a.Bins),
				func(i int) bool {
					return a.Bins[i].Tier == tier && free[i] >= need &&
						!(honorCaps && capped(i))
				},
				priority,
				func(i int) Tier { return a.Bins[i].Tier })
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

// placeItemsDeltaOracle incrementally re-solves a DDAK layout after the item
// hotness profile drifted. Rather than re-running the pooled greedy fill
// (whose pool boundaries cascade under small input perturbations, moving
// far more data than the drift warrants), it preserves the previous
// solve's rank→bin structure: the item at hotness rank r in the new
// profile goes to the bin that held rank r in the old profile. Only
// vertices whose hotness rank crossed a bin boundary move; everything
// else stays put by construction. Items that no longer fit their rank's
// bin (sizes shifted across ranks, or bins shrank) are repaired with the
// same tiered minimum-priority fill PlaceItems uses, honoring traffic
// caps first. When the resulting migration exceeds opt.MaxMoveFrac of
// total bytes the delta is abandoned for a full PlaceItems re-solve
// (DeltaResult.FellBack).
//
// prevItems must be the exact item slice prev was solved from; items must
// be index-compatible with it (same length, same Bytes per index — only
// Hot may drift). bins must match prev.Bins tier-for-tier; capacities and
// traffic budgets may differ.
func placeItemsDeltaOracle(prevItems []Item, prev *ItemAssignment, items []Item, bins []Bin, poolN int, trafficScale float64, opt DeltaOptions) (*DeltaResult, error) {
	if prev == nil {
		return nil, fmt.Errorf("ddak: delta re-solve needs a previous assignment")
	}
	if err := checkItems(items, bins); err != nil {
		return nil, err
	}
	if len(prevItems) != len(items) {
		return nil, fmt.Errorf("ddak: delta item count changed: %d -> %d", len(prevItems), len(items))
	}
	if len(prev.Of) != len(prevItems) {
		return nil, fmt.Errorf("ddak: previous assignment covers %d items, not %d", len(prev.Of), len(prevItems))
	}
	if len(bins) != len(prev.Bins) {
		return nil, fmt.Errorf("ddak: delta bin count changed: %d -> %d", len(prev.Bins), len(bins))
	}
	for i := range bins {
		if bins[i].Tier != prev.Bins[i].Tier {
			return nil, fmt.Errorf("ddak: bin %d tier changed %s -> %s", i, prev.Bins[i].Tier, bins[i].Tier)
		}
	}
	var totalBytes float64
	for i := range items {
		if items[i].Bytes != prevItems[i].Bytes {
			return nil, fmt.Errorf("ddak: item %d bytes changed %.0f -> %.0f (delta handles hotness drift only)",
				i, prevItems[i].Bytes, items[i].Bytes)
		}
		totalBytes += items[i].Bytes
	}
	maxFrac := opt.MaxMoveFrac
	if maxFrac <= 0 {
		maxFrac = 0.5
	}
	o := opt.Observer
	sp := o.Begin("ddak_delta")
	sp.SetInt("items", len(items))
	defer sp.End()

	oldOrder := oracleDensityOrder(prevItems)
	newOrder := oracleDensityOrder(items)

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
	for i := range a.Of {
		a.Of[i] = -1
	}
	residents := make([][]int32, len(bins))
	place := func(v int32, bin int) {
		it := items[v]
		a.Of[v] = int32(bin)
		a.Used[bin] += it.Bytes
		a.Access[bin] += it.Hot
		free[bin] -= it.Bytes
		residents[bin] = append(residents[bin], v)
	}
	// denser reports whether item x has strictly higher access density
	// than item y (cross-multiplied, no division).
	denser := func(x, y int32) bool {
		return items[x].Hot*items[y].Bytes > items[y].Hot*items[x].Bytes
	}

	// Tentative pass: new rank r inherits old rank r's bin. Deferred
	// items stay in rank order, so the repair pass below is hot-first.
	var deferred []int32
	for r, v := range newOrder {
		bin := prev.Of[oldOrder[r]]
		if int(bin) < len(bins) && bin >= 0 && free[bin] >= items[v].Bytes {
			place(v, int(bin))
		} else {
			deferred = append(deferred, v)
		}
	}

	// Repair pass: same tiered minimum-priority fill as PlaceItems,
	// traffic caps honored until no uncapped bin can take the item. A
	// deferred item that finds no room in a tier may evict strictly
	// colder (lower-density) residents to make space before spilling to
	// the next tier — without this, a hot item whose byte size outgrew
	// its rank's bin would strand on SSD behind the colder items the
	// tentative pass already seated, and the layout quality would not
	// track a full re-solve. Evictees rejoin the queue; density strictly
	// decreases along any eviction chain, so the repair terminates.
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
	// evictable returns the bytes bin i could free for item v by evicting
	// strictly colder residents.
	evictable := func(i int, v int32) float64 {
		sum := 0.0
		for _, w := range residents[i] {
			if denser(v, w) {
				sum += items[w].Bytes
			}
		}
		return sum
	}
	evict := func(bin int, v int32, need float64) []int32 {
		// Coldest first, so the evicted set is minimal in mass.
		sort.SliceStable(residents[bin], func(i, j int) bool {
			return denser(residents[bin][j], residents[bin][i])
		})
		var out []int32
		kept := residents[bin][:0]
		for _, w := range residents[bin] {
			if free[bin] < need && denser(v, w) {
				a.Of[w] = -1
				a.Used[bin] -= items[w].Bytes
				a.Access[bin] -= items[w].Hot
				free[bin] += items[w].Bytes
				out = append(out, w)
				continue
			}
			kept = append(kept, w)
		}
		residents[bin] = kept
		return out
	}
	fallBack := false
	for qi := 0; qi < len(deferred); qi++ {
		if len(deferred) > 8*len(items) {
			// Eviction churn: the repair is thrashing, a full re-solve
			// is cheaper and strictly better. (Chains shorten by density
			// each step so this is a belt-and-braces bound, not an
			// expected path.)
			fallBack = true
			break
		}
		v := deferred[qi]
		need := items[v].Bytes
		bin := -1
		for _, tier := range []Tier{TierGPU, TierCPU, TierSSD} {
			inTier := func(i int) bool { return a.Bins[i].Tier == tier }
			tierOf := func(i int) Tier { return a.Bins[i].Tier }
			// Free space first, honoring traffic caps.
			bin = oraclePickBin(len(a.Bins),
				func(i int) bool { return inTier(i) && free[i] >= need && !capped(i) },
				priority, tierOf)
			if bin >= 0 {
				break
			}
			// Then eviction of strictly colder residents.
			bin = oraclePickBin(len(a.Bins),
				func(i int) bool { return inTier(i) && free[i]+evictable(i, v) >= need },
				priority, tierOf)
			if bin >= 0 {
				for _, w := range evict(bin, v, need) {
					// Re-queue the evictee in density position so the
					// remaining repair stays hot-first.
					at := len(deferred)
					for k := qi + 1; k < len(deferred); k++ {
						if denser(w, deferred[k]) {
							at = k
							break
						}
					}
					deferred = append(deferred, 0)
					copy(deferred[at+1:], deferred[at:])
					deferred[at] = w
				}
				break
			}
		}
		if bin < 0 {
			// Caps blocked everything: capacity alone governs now, still
			// preferring the fastest tier with room (as PlaceItems does).
			for _, tier := range []Tier{TierGPU, TierCPU, TierSSD} {
				bin = oraclePickBin(len(a.Bins),
					func(i int) bool { return a.Bins[i].Tier == tier && free[i] >= need },
					priority,
					func(i int) Tier { return a.Bins[i].Tier })
				if bin >= 0 {
					break
				}
			}
		}
		if bin < 0 {
			return nil, fmt.Errorf("ddak: delta repair: no bin can hold item %d (%.0f bytes)", v, need)
		}
		place(v, bin)
		a.Pools++
	}

	// Promotion pass: when the new top ranks shrank in bytes, the
	// tentative map leaves fast bins underfilled — and no deferred item
	// exists to claim the space. A full re-solve would fill every cache
	// bin to its capacity (or traffic cap) with the densest items, so
	// the delta must too or its hit rate detaches from the oracle's.
	// One density-ordered walk per cache tier: each item currently on a
	// strictly slower tier takes target-tier free space if it fits and
	// the bin is uncapped. GPU first, then CPU (which by then also owns
	// the space GPU promotions vacated). Skipped when nothing changed:
	// the full solve's pooling leaves fittable riders on slow tiers, and
	// "promoting" those on an undrifted input would break the delta's
	// no-drift-is-a-no-op contract.
	sameBins := true
	for i := range bins {
		if bins[i] != prev.Bins[i] {
			sameBins = false
			break
		}
	}
	preMoved, _ := diffMoves(prev, a, items)
	if !fallBack && (preMoved > 0 || !sameBins) {
		unplace := func(v int32) {
			bin := a.Of[v]
			a.Of[v] = -1
			a.Used[bin] -= items[v].Bytes
			a.Access[bin] -= items[v].Hot
			free[bin] += items[v].Bytes
			for k, w := range residents[bin] {
				if w == v {
					residents[bin] = append(residents[bin][:k], residents[bin][k+1:]...)
					break
				}
			}
		}
		for _, target := range []Tier{TierGPU, TierCPU} {
			for _, v := range newOrder {
				cur := a.Of[v]
				if cur < 0 || a.Bins[cur].Tier <= target {
					continue
				}
				need := items[v].Bytes
				bin := oraclePickBin(len(a.Bins),
					func(i int) bool {
						return a.Bins[i].Tier == target && free[i] >= need && !capped(i)
					},
					priority,
					func(i int) Tier { return a.Bins[i].Tier })
				if bin < 0 {
					continue
				}
				unplace(v)
				place(v, bin)
				a.Pools++
			}
		}
	}

	moved, movedBytes := 0, 0.0
	if !fallBack {
		moved, movedBytes = diffMoves(prev, a, items)
	}
	if fallBack || movedBytes > maxFrac*totalBytes {
		// The structural delta would move too much — a full re-solve is
		// at least as good a layout for the same (or larger) bill, and
		// the caller budgeted for it.
		full, err := oraclePlaceItems(items, bins, poolN, trafficScale, o)
		if err != nil {
			return nil, err
		}
		fm, fb := diffMoves(prev, full, items)
		if o != nil {
			o.Counter("ddak_delta_fallbacks_total").Add(1)
			o.Counter("ddak_delta_moved_items_total").Add(float64(fm))
		}
		sp.SetInt("moved", fm)
		return &DeltaResult{Assignment: full, MovedItems: fm, MovedBytes: fb, FellBack: true}, nil
	}
	if CheckItems != nil {
		if err := CheckItems(a, items); err != nil {
			return nil, fmt.Errorf("ddak: delta self-check failed: %w", err)
		}
	}
	if o != nil {
		o.Counter("ddak_delta_solves_total").Add(1)
		o.Counter("ddak_delta_moved_items_total").Add(float64(moved))
	}
	sp.SetInt("moved", moved)
	return &DeltaResult{Assignment: a, MovedItems: moved, MovedBytes: movedBytes}, nil
}

// deltaInstance is one incremental re-solve problem: the previous items
// and bins, their drifted successors, and the delta's knobs.
type deltaInstance struct {
	prevItems, items []Item
	prevBins, bins   []Bin
	pool             int
	scale            float64
	opt              DeltaOptions
}

// randomDeltaInstance draws a problem of 20–3,000 items over 1–4 GPU, 1–2
// CPU and 1–6 SSD bins. Hotness comes in three modes: Zipf-like floats;
// exact ties, k/16 against whole byte sizes, so that every density product
// is exact and classes are large; and Zipf-like floats with a quarter of
// the items at zero hotness. Drift is none, random swaps, a rotation or a
// rescaled prefix, and a third of the instances also shrink the first bin.
func randomDeltaInstance(r *rand.Rand) deltaInstance {
	n := 20 + r.Intn(2981)
	mode := r.Intn(3)
	items := make([]Item, n)
	var total float64
	for i := range items {
		var hot float64
		switch mode {
		case 1:
			hot = float64(r.Intn(33)) / 16
		default:
			hot = 1 / math.Pow(float64(i+1), 0.5+r.Float64())
			if mode == 2 && r.Intn(4) == 0 {
				hot = 0
			}
		}
		items[i] = Item{Hot: hot, Bytes: float64(1 + r.Intn(8))}
		total += items[i].Bytes
	}
	r.Shuffle(n, func(i, j int) { items[i], items[j] = items[j], items[i] })

	var bins []Bin
	addTier := func(tier Tier, count int, capacity float64) {
		for k := 0; k < count; k++ {
			bins = append(bins, Bin{Name: fmt.Sprintf("%s%d", tier, k), Tier: tier,
				Capacity: capacity / float64(count), Traffic: 10 + r.Float64()*990})
		}
	}
	addTier(TierGPU, 1+r.Intn(4), total*(0.02+0.1*r.Float64()))
	addTier(TierCPU, 1+r.Intn(2), total*(0.1+0.2*r.Float64()))
	addTier(TierSSD, 1+r.Intn(6), total*1.5)
	inst := deltaInstance{prevItems: items, prevBins: bins, pool: 1 + r.Intn(100)}
	if r.Intn(2) == 1 {
		inst.scale = float64(1 + r.Intn(255))
	}
	inst.opt.MaxMoveFrac = []float64{0, 0.1, 0.5, 0.9, 1.1}[r.Intn(5)]
	inst.bins = append([]Bin(nil), bins...)
	if r.Intn(3) == 0 {
		inst.bins[0].Capacity *= 0.3 + 0.6*r.Float64()
	}

	drifted := append([]Item(nil), items...)
	mag := 1 + r.Intn(n)
	switch r.Intn(4) {
	case 0: // no drift
	case 1: // random swaps
		for k := 0; k < mag; k++ {
			i, j := r.Intn(n), r.Intn(n)
			drifted[i].Hot, drifted[j].Hot = drifted[j].Hot, drifted[i].Hot
		}
	case 2: // rotate hotness by mag
		for i := range drifted {
			drifted[i].Hot = items[(i+mag)%n].Hot
		}
	case 3: // rescale a prefix; tie mode stays on a dyadic grid
		for i := 0; i < mag; i++ {
			if mode == 1 {
				drifted[i].Hot *= float64(r.Intn(5)) / 4
			} else {
				drifted[i].Hot *= r.Float64()
			}
		}
	}
	inst.items = drifted
	return inst
}

// assignmentDiff describes the first field in which a and b differ, floats
// compared bit for bit, or returns "".
func assignmentDiff(a, b *ItemAssignment) string {
	switch {
	case !slices.Equal(a.Bins, b.Bins):
		return fmt.Sprintf("bins %v vs %v", a.Bins, b.Bins)
	case a.Pools != b.Pools:
		return fmt.Sprintf("pools %d vs %d", a.Pools, b.Pools)
	}
	for v := range a.Of {
		if a.Of[v] != b.Of[v] {
			return fmt.Sprintf("item %d in bin %d vs %d", v, a.Of[v], b.Of[v])
		}
	}
	for i := range a.Used {
		if math.Float64bits(a.Used[i]) != math.Float64bits(b.Used[i]) ||
			math.Float64bits(a.Access[i]) != math.Float64bits(b.Access[i]) {
			return fmt.Sprintf("bin %d used/access %v/%v vs %v/%v", i, a.Used[i], a.Access[i], b.Used[i], b.Access[i])
		}
	}
	return ""
}

// matchOracle solves inst from prev with PlaceItemsDelta and with the
// oracle, and the drifted items with PlaceItems and the oracle's full
// solve, and reports the first difference. fellBack tells whether the
// delta fell back.
func matchOracle(inst deltaInstance, prev *ItemAssignment) (fellBack bool, diff string) {
	got, err := PlaceItemsDelta(inst.prevItems, prev, inst.items, inst.bins, inst.pool, inst.scale, inst.opt)
	want, werr := placeItemsDeltaOracle(inst.prevItems, prev, inst.items, inst.bins, inst.pool, inst.scale, inst.opt)
	if (err == nil) != (werr == nil) {
		return false, fmt.Sprintf("delta error %v, oracle error %v", err, werr)
	}
	if err != nil {
		return false, ""
	}
	if d := assignmentDiff(got.Assignment, want.Assignment); d != "" {
		return got.FellBack, "delta: " + d
	}
	if got.MovedItems != want.MovedItems || math.Float64bits(got.MovedBytes) != math.Float64bits(want.MovedBytes) ||
		got.FellBack != want.FellBack {
		return got.FellBack, fmt.Sprintf("delta moved %d items (%v bytes, fell back %v), oracle %d (%v, %v)",
			got.MovedItems, got.MovedBytes, got.FellBack, want.MovedItems, want.MovedBytes, want.FellBack)
	}
	full, err := PlaceItems(inst.items, inst.bins, inst.pool, inst.scale)
	wantFull, werr := oraclePlaceItems(inst.items, inst.bins, inst.pool, inst.scale, nil)
	if (err == nil) != (werr == nil) {
		return got.FellBack, fmt.Sprintf("full solve error %v, oracle error %v", err, werr)
	}
	if err == nil {
		if d := assignmentDiff(full, wantFull); d != "" {
			return got.FellBack, "full solve: " + d
		}
	}
	return got.FellBack, ""
}

// TestDeltaMatchesOracle: on 1,000 seeded instances whose density products
// are exact (a strict weak order), PlaceItemsDelta and PlaceItems equal the
// oracle bit for bit: layout, bytes and access mass per bin, pool count,
// migration bill and fallback.
func TestDeltaMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	compared, fellBack := 0, 0
	for compared < 1000 {
		inst := randomDeltaInstance(r)
		prev, err := PlaceItems(inst.prevItems, inst.prevBins, inst.pool, inst.scale)
		wantPrev, werr := oraclePlaceItems(inst.prevItems, inst.prevBins, inst.pool, inst.scale, nil)
		if (err == nil) != (werr == nil) {
			t.Fatalf("instance %d: full solve error %v, oracle error %v", compared, err, werr)
		}
		if err != nil {
			continue
		}
		if d := assignmentDiff(prev, wantPrev); d != "" {
			t.Fatalf("instance %d: previous full solve: %s", compared, d)
		}
		fb, d := matchOracle(inst, prev)
		if d != "" {
			t.Fatalf("instance %d (%d items, %d bins): %s", compared, len(inst.items), len(inst.bins), d)
		}
		compared++
		if fb {
			fellBack++
		}
	}
	t.Logf("%d instances, %d fell back to a full solve", compared, fellBack)
}
