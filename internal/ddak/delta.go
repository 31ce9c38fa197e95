package ddak

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"moment/internal/obs"
)

// DeltaOptions tune PlaceItemsDelta.
type DeltaOptions struct {
	// MaxMoveFrac is the migration budget as a fraction of total item
	// bytes: when the incremental solve would move more than this, it
	// abandons the delta and falls back to a full PlaceItems re-solve
	// (the delta's structure-preserving repair is only worth its bias
	// while the move set is small). <= 0 means the default 0.5.
	MaxMoveFrac float64
	// Observer receives delta counters and the "ddak_delta" span.
	Observer *obs.Observer
}

// DeltaResult is an incremental re-solve: the new layout plus the
// migration bill relative to the previous assignment.
type DeltaResult struct {
	Assignment *ItemAssignment
	// MovedItems / MovedBytes count items whose bin changed vs prev.
	MovedItems int
	MovedBytes float64
	// FellBack reports that the delta exceeded MaxMoveFrac and the
	// result came from a full PlaceItems instead.
	FellBack bool
}

// densityOrder returns item indices sorted hot-first by access density
// (mass per byte, cross-multiplied so no division). Stable, so items with
// equal density keep index order — identical inputs produce identical
// orders. It is the only density sort: PlaceItems and both sides of
// PlaceItemsDelta use it, and a delta that falls back hands its order to
// the full solve.
func densityOrder(items []Item) []int32 {
	order := make([]int32, len(items))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(x, y int32) int {
		a, b := items[x], items[y]
		switch {
		case a.Hot*b.Bytes > b.Hot*a.Bytes:
			return -1
		case b.Hot*a.Bytes > a.Hot*b.Bytes:
			return 1
		}
		return 0
	})
	return order
}

// densityClasses numbers the density classes along order, a densityOrder
// of items: the class goes up by one wherever an item is strictly less
// dense than its predecessor. When the cross-multiplied comparison is a
// strict weak order, class[x] < class[y] exactly when x is strictly denser
// than y. Where rounding makes it intransitive (rational ties such as
// 0.05/1, 0.1/2 and 0.15/3), the classes follow the sorted order.
func densityClasses(items []Item, order []int32) []int32 {
	class := make([]int32, len(items))
	for r := 1; r < len(order); r++ {
		x, y := order[r-1], order[r]
		class[y] = class[x]
		if items[x].Hot*items[y].Bytes > items[y].Hot*items[x].Bytes {
			class[y]++
		}
	}
	return class
}

// evictionOrder lists the items of[v] seats in each bin so that the back
// of a list is the next to evict: classes hottest first and, within a
// class, later items of order first. The back is then the coldest class's
// earliest item, the one a stable coldest-first sort of the bin puts
// first.
func evictionOrder(of, order, class []int32, nBins int) [][]int32 {
	count := make([]int, nBins)
	for _, b := range of {
		if b >= 0 {
			count[b]++
		}
	}
	backing := make([]int32, len(of))
	lists := make([][]int32, nBins)
	off := 0
	for b, c := range count {
		lists[b] = backing[off : off : off+c]
		off += c
	}
	for _, v := range order {
		if b := of[v]; b >= 0 {
			lists[b] = append(lists[b], v)
		}
	}
	for _, l := range lists {
		for lo := 0; lo < len(l); {
			hi := lo + 1
			for hi < len(l) && class[l[hi]] == class[l[lo]] {
				hi++
			}
			slices.Reverse(l[lo:hi])
			lo = hi
		}
	}
	return lists
}

// PlaceItemsDelta incrementally re-solves a DDAK layout after the item
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
func PlaceItemsDelta(prevItems []Item, prev *ItemAssignment, items []Item, bins []Bin, poolN int, trafficScale float64, opt DeltaOptions) (*DeltaResult, error) {
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

	oldOrder := densityOrder(prevItems)
	newOrder := densityOrder(items)
	class := densityClasses(items, newOrder)

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
	place := func(v int32, bin int) {
		it := items[v]
		a.Of[v] = int32(bin)
		a.Used[bin] += it.Bytes
		a.Access[bin] += it.Hot
		free[bin] -= it.Bytes
	}
	unplace := func(v int32) {
		bin := a.Of[v]
		a.Of[v] = -1
		a.Used[bin] -= items[v].Bytes
		a.Access[bin] -= items[v].Hot
		free[bin] += items[v].Bytes
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
	// track a full re-solve. Evictees rejoin the queue in class order,
	// so the queue stays hot-first and every item is processed no denser
	// than the one before it. An eviction needs a strictly denser
	// evictor, so an item the repair seats is never evicted: only the
	// tentative pass's items can be, each at most once, and the queue
	// never holds more than len(items) entries.
	residents := evictionOrder(a.Of, newOrder, class, len(bins))
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
	// canEvict reports whether bin i can hold v once residents strictly
	// colder than v make way. It walks back from the coldest resident and
	// stops as soon as the freed bytes suffice or the next resident is not
	// strictly colder, so a check costs the evictions it would make, not
	// the bin's size.
	canEvict := func(i int, v int32, need float64) bool {
		if free[i] >= need {
			return true
		}
		res := residents[i]
		sum := 0.0
		for k := len(res) - 1; k >= 0 && class[res[k]] > class[v]; k-- {
			sum += items[res[k]].Bytes
			if free[i]+sum >= need {
				return true
			}
		}
		return false
	}
	for qi := 0; qi < len(deferred); qi++ {
		v := deferred[qi]
		need := items[v].Bytes
		bin := -1
		for _, tier := range []Tier{TierGPU, TierCPU, TierSSD} {
			inTier := func(i int) bool { return a.Bins[i].Tier == tier }
			// Free space first, honoring traffic caps.
			bin = pickBin(len(a.Bins),
				func(i int) bool { return inTier(i) && free[i] >= need && !capped(i) },
				priority)
			if bin >= 0 {
				break
			}
			// Then eviction of strictly colder residents, coldest first.
			bin = pickBin(len(a.Bins),
				func(i int) bool { return inTier(i) && canEvict(i, v, need) },
				priority)
			if bin >= 0 {
				res := residents[bin]
				for free[bin] < need && len(res) > 0 && class[res[len(res)-1]] > class[v] {
					w := res[len(res)-1]
					res = res[:len(res)-1]
					unplace(w)
					// Re-queue the evictee after every queued item at
					// least as dense, so the remaining repair stays
					// hot-first. The queue past qi is sorted by class.
					rest := deferred[qi+1:]
					at := qi + 1 + sort.Search(len(rest), func(k int) bool { return class[rest[k]] > class[w] })
					deferred = slices.Insert(deferred, at, w)
				}
				residents[bin] = res
				break
			}
		}
		if bin < 0 {
			// Caps blocked everything: capacity alone governs now, still
			// preferring the fastest tier with room (as PlaceItems does).
			for _, tier := range []Tier{TierGPU, TierCPU, TierSSD} {
				bin = pickBin(len(a.Bins),
					func(i int) bool { return a.Bins[i].Tier == tier && free[i] >= need },
					priority)
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
	if preMoved, _ := diffMoves(prev, a, items); preMoved > 0 || !sameBins {
		for _, target := range []Tier{TierGPU, TierCPU} {
			for _, v := range newOrder {
				if a.Bins[a.Of[v]].Tier <= target {
					continue
				}
				need := items[v].Bytes
				bin := pickBin(len(a.Bins),
					func(i int) bool {
						return a.Bins[i].Tier == target && free[i] >= need && !capped(i)
					},
					priority)
				if bin < 0 {
					continue
				}
				unplace(v)
				place(v, bin)
				a.Pools++
			}
		}
	}

	moved, movedBytes := diffMoves(prev, a, items)
	if movedBytes > maxFrac*totalBytes {
		// The structural delta would move too much — a full re-solve is
		// at least as good a layout for the same (or larger) bill, and
		// the caller budgeted for it.
		full, err := placeOrdered(items, newOrder, bins, poolN, trafficScale, o)
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

// diffMoves counts items whose bin differs between prev and next.
func diffMoves(prev, next *ItemAssignment, items []Item) (int, float64) {
	moved := 0
	bytes := 0.0
	for i := range next.Of {
		if next.Of[i] != prev.Of[i] {
			moved++
			bytes += items[i].Bytes
		}
	}
	return moved, bytes
}
