// Package adaptive implements the future-work extension the paper commits
// to in §5 ("Limitations"): lightweight online profiling and adaptive
// placement for dynamic workloads. Offline pre-sampling assumes a static
// access distribution; under drift (online inference, streaming updates)
// the planned layout's cache hit rate decays. This package provides
//
//   - Monitor: exponentially-decayed access counters — the "lightweight
//     online profiling" — cheap enough to update on every mini-batch;
//   - drift detection via total-variation distance between the layout's
//     planning-time distribution and the live estimate;
//   - Replanner: re-runs DDAK when drift exceeds a threshold and reports
//     the migration bill (which items moved, how many bytes cross the
//     fabric to re-shuffle them).
package adaptive

import (
	"fmt"
	"math"

	"moment/internal/ddak"
	"moment/internal/obs"
)

// Monitor keeps exponentially-decayed per-item access counts.
type Monitor struct {
	counts []float64
	factor float64 // per-tick decay multiplier
	total  float64
}

// NewMonitor tracks n items with the given half-life (in ticks; a tick is
// typically one mini-batch).
func NewMonitor(n int, halfLifeTicks float64) (*Monitor, error) {
	if n <= 0 {
		return nil, fmt.Errorf("adaptive: non-positive item count")
	}
	if halfLifeTicks <= 0 {
		return nil, fmt.Errorf("adaptive: non-positive half life")
	}
	return &Monitor{
		counts: make([]float64, n),
		factor: math.Exp(-math.Ln2 / halfLifeTicks),
	}, nil
}

// Observe credits one access of the given weight to an item.
func (m *Monitor) Observe(item int32, weight float64) error {
	if item < 0 || int(item) >= len(m.counts) {
		return fmt.Errorf("adaptive: item %d out of range [0,%d)", item, len(m.counts))
	}
	if weight < 0 || math.IsNaN(weight) {
		return fmt.Errorf("adaptive: bad weight %v", weight)
	}
	m.counts[item] += weight
	m.total += weight
	return nil
}

// ObserveWeights credits every item its per-index weight in one call (an
// epoch's expected access masses, or a histogram of a batch). The slice
// must cover every item.
func (m *Monitor) ObserveWeights(weights []float64) error {
	if len(weights) != len(m.counts) {
		return fmt.Errorf("adaptive: %d weights for %d items", len(weights), len(m.counts))
	}
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return fmt.Errorf("adaptive: bad weight %v", w)
		}
	}
	for i, w := range weights {
		m.counts[i] += w
		m.total += w
	}
	return nil
}

// ObserveBatch credits one access per listed item (one mini-batch's
// fetches) and then advances the decay clock by one tick.
func (m *Monitor) ObserveBatch(items []int32) error {
	for _, it := range items {
		if err := m.Observe(it, 1); err != nil {
			return err
		}
	}
	m.Tick()
	return nil
}

// Tick applies one decay step.
func (m *Monitor) Tick() {
	for i := range m.counts {
		m.counts[i] *= m.factor
	}
	m.total *= m.factor
}

// Hotness returns the normalized access distribution estimate (sums to 1;
// all-zero if nothing was observed).
func (m *Monitor) Hotness() []float64 {
	return m.HotnessInto(nil)
}

// HotnessInto is Hotness writing into dst (grown if needed) so steady
// callers do not allocate. Returns the filled slice.
func (m *Monitor) HotnessInto(dst []float64) []float64 {
	if cap(dst) < len(m.counts) {
		dst = make([]float64, len(m.counts))
	}
	dst = dst[:len(m.counts)]
	if m.total <= 0 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	for i, c := range m.counts {
		dst[i] = c / m.total
	}
	return dst
}

// TV computes the total-variation distance ½·Σ|a−b| between two
// distributions of equal length (0 = identical, 1 = disjoint).
func TV(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("adaptive: distribution lengths %d != %d", len(a), len(b))
	}
	d := 0.0
	for i := range a {
		d += math.Abs(a[i] - b[i])
	}
	return d / 2, nil
}

// Migration reports one adaptive re-placement.
type Migration struct {
	// Drift is the TV distance that triggered (or failed to trigger) it.
	Drift float64
	// Triggered reports whether a re-placement happened.
	Triggered bool
	// MovedItems is the number of items whose bin changed.
	MovedItems int
	// MovedBytes is the embedding volume that must cross the fabric.
	MovedBytes float64
	// Incremental reports the layout came from ddak.PlaceItemsDelta
	// (only boundary-crossers moved) rather than a full re-solve.
	Incremental bool
	// FellBack reports an attempted incremental re-solve that exceeded
	// DeltaBudget and completed as a full PlaceItems instead.
	FellBack bool
	// Skipped reports a replan whose migration bill exceeded its
	// projected payback (PaybackEpochs), so the old layout was kept.
	Skipped bool
	// ProjectedSavedBytes is the payback estimate the billing compared
	// MovedBytes against: (new hit − current hit) · TrafficScale ·
	// PaybackEpochs. Zero when payback billing is disabled.
	ProjectedSavedBytes float64
	// Assignment is the layout in force after the call.
	Assignment *ddak.ItemAssignment
}

// Replanner owns a DDAK layout and refreshes it when the observed access
// distribution drifts beyond Threshold.
type Replanner struct {
	Bins         []ddak.Bin
	PoolN        int
	TrafficScale float64
	// Threshold is the TV drift that triggers re-placement (e.g. 0.1).
	Threshold float64
	// DeltaBudget, when positive, routes drift replans through
	// ddak.PlaceItemsDelta: only items whose hotness rank crossed a bin
	// boundary move, and the delta falls back to a full re-solve when it
	// would migrate more than this fraction of total item bytes. Zero
	// keeps the full-re-solve behavior.
	DeltaBudget float64
	// PaybackEpochs, when positive, bills every drift replan against its
	// projected savings the way Rebin bills fault migrations: moving
	// MovedBytes is only worth it if the layout's fast-tier improvement
	// times TrafficScale (bytes saved per epoch) repays it within this
	// many epochs. Replans that don't pay for themselves are skipped
	// (Migration.Skipped).
	PaybackEpochs float64
	// Observer receives adaptive_* counters and EvDrift flight events.
	Observer *obs.Observer

	itemBytes []float64
	current   *ddak.ItemAssignment
	curItems  []ddak.Item // items that produced current (delta's prev)
	planned   []float64   // hotness snapshot at last re-placement
	replans   int
}

// NewReplanner plans the initial layout from the offline hotness estimate.
func NewReplanner(hot, itemBytes []float64, bins []ddak.Bin, poolN int, trafficScale, threshold float64) (*Replanner, error) {
	if len(hot) != len(itemBytes) {
		return nil, fmt.Errorf("adaptive: hotness/bytes length mismatch %d vs %d", len(hot), len(itemBytes))
	}
	if threshold <= 0 || threshold >= 1 {
		return nil, fmt.Errorf("adaptive: threshold %v out of (0,1)", threshold)
	}
	r := &Replanner{
		Bins:         bins,
		PoolN:        poolN,
		TrafficScale: trafficScale,
		Threshold:    threshold,
		itemBytes:    append([]float64(nil), itemBytes...),
	}
	a, err := r.place(hot)
	if err != nil {
		return nil, err
	}
	r.current = a
	r.curItems = r.buildItems(hot)
	r.planned = append([]float64(nil), hot...)
	return r, nil
}

// buildItems materializes the ddak item slice for a hotness vector.
func (r *Replanner) buildItems(hot []float64) []ddak.Item {
	items := make([]ddak.Item, len(hot))
	for i := range items {
		items[i] = ddak.Item{Hot: hot[i], Bytes: r.itemBytes[i]}
	}
	return items
}

// place runs a full DDAK solve of hot over the current bins.
func (r *Replanner) place(hot []float64) (*ddak.ItemAssignment, error) {
	return ddak.PlaceItems(r.buildItems(hot), r.Bins, r.PoolN, r.TrafficScale)
}

// Current returns the layout in force.
func (r *Replanner) Current() *ddak.ItemAssignment { return r.current }

// Replans counts completed re-placements.
func (r *Replanner) Replans() int { return r.replans }

// Maybe checks the live hotness estimate against the planning-time
// snapshot and re-places when drift exceeds the threshold.
func (r *Replanner) Maybe(live []float64) (*Migration, error) {
	drift, err := TV(r.planned, live)
	if err != nil {
		return nil, err
	}
	if drift < r.Threshold {
		return &Migration{Drift: drift, Assignment: r.current}, nil
	}
	return r.Replan(live)
}

// Replan forces a re-placement onto the live distribution regardless of
// drift. With DeltaBudget set it runs the incremental DDAK re-solve
// (only rank-boundary crossers move, full-solve fallback over budget);
// with PaybackEpochs set the migration is billed against its projected
// per-epoch savings and skipped when it cannot pay for itself within
// the window — the same billing discipline Rebin applies to fault
// migrations, applied to traffic drift.
func (r *Replanner) Replan(live []float64) (*Migration, error) {
	drift, err := TV(r.planned, live)
	if err != nil {
		return nil, err
	}
	mig := &Migration{Drift: drift, Assignment: r.current}
	items := r.buildItems(live)
	var next *ddak.ItemAssignment
	if r.DeltaBudget > 0 {
		res, err := ddak.PlaceItemsDelta(r.curItems, r.current, items, r.Bins, r.PoolN, r.TrafficScale,
			ddak.DeltaOptions{MaxMoveFrac: r.DeltaBudget, Observer: r.Observer})
		if err != nil {
			return nil, err
		}
		next = res.Assignment
		mig.Incremental = !res.FellBack
		mig.FellBack = res.FellBack
		mig.MovedItems = res.MovedItems
		mig.MovedBytes = res.MovedBytes
	} else {
		next, err = r.place(live)
		if err != nil {
			return nil, err
		}
		for i := range next.Of {
			if next.Of[i] != r.current.Of[i] {
				mig.MovedItems++
				mig.MovedBytes += r.itemBytes[i]
			}
		}
	}
	if r.PaybackEpochs > 0 && r.TrafficScale > 0 && mig.MovedItems > 0 {
		curHit, err := HitRate(r.current, live)
		if err != nil {
			return nil, err
		}
		nextHit, err := HitRate(next, live)
		if err != nil {
			return nil, err
		}
		// Every point of fast-tier hit rate is TrafficScale bytes per
		// epoch that no longer come off SSD; the migration must repay
		// its one-time bill within PaybackEpochs of those savings.
		mig.ProjectedSavedBytes = (nextHit - curHit) * r.TrafficScale * r.PaybackEpochs
		if mig.MovedBytes > mig.ProjectedSavedBytes {
			mig.Skipped = true
			mig.MovedItems = 0
			mig.MovedBytes = 0
			mig.Incremental = false
			mig.FellBack = false
			mig.Assignment = r.current
			if o := r.Observer; o != nil {
				o.Counter("adaptive_replans_skipped_total").Add(1)
			}
			return mig, nil
		}
	}
	mig.Triggered = true
	mig.Assignment = next
	r.current = next
	r.curItems = items
	r.planned = append(r.planned[:0], live...)
	r.replans++
	if o := r.Observer; o != nil {
		mode := "full"
		if mig.Incremental {
			mode = "delta"
		}
		o.Counter("adaptive_drift_replans_total", obs.L("mode", mode)).Add(1)
		if o.FlightEnabled() {
			o.Event(obs.Event{Kind: obs.EvDrift, Name: "replan", Reason: mode,
				V1: drift, V2: mig.MovedBytes})
		}
	}
	return mig, nil
}

// Rebin forces a re-placement into a new bin set regardless of drift — the
// graceful-degradation path: when hardware fails mid-epoch, the surviving
// bins' capacities and traffic budgets change even though the access
// distribution did not. The bin list must be index-compatible with the old
// one (as ddak.DegradeBins produces) so the migration bill is meaningful.
func (r *Replanner) Rebin(bins []ddak.Bin) (*Migration, error) {
	old := r.current
	r.Bins = bins
	next, err := r.place(r.planned)
	if err != nil {
		return nil, err
	}
	mig := &Migration{Triggered: true, Assignment: next}
	for i := range next.Of {
		if next.Of[i] != old.Of[i] {
			mig.MovedItems++
			mig.MovedBytes += r.itemBytes[i]
		}
	}
	r.current = next
	r.replans++
	return mig, nil
}

// HitRate evaluates a layout's fast-tier (GPU+CPU) hit fraction under an
// access distribution — the quality metric drift erodes and re-placement
// restores.
func HitRate(a *ddak.ItemAssignment, hot []float64) (float64, error) {
	if len(hot) != len(a.Of) {
		return 0, fmt.Errorf("adaptive: hotness length %d != assignment %d", len(hot), len(a.Of))
	}
	total, fast := 0.0, 0.0
	for i, bin := range a.Of {
		total += hot[i]
		if a.Bins[bin].Tier != ddak.TierSSD {
			fast += hot[i]
		}
	}
	if total == 0 {
		return 0, nil
	}
	return fast / total, nil
}
