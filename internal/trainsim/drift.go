package trainsim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"moment/internal/adaptive"
	"moment/internal/ddak"
	"moment/internal/obs"
)

// This file implements the drift side of the long-horizon driver
// (horizon.go): the access distribution shifts on a seeded schedule (the
// dynamic-workload scenario the paper defers in §5). Each drift event
// perturbs the live hotness and the closed adaptive loop — Monitor EWMA →
// DriftDetector → incremental DDAK re-solve with migration billing —
// chases it. An oracle mode replans from scratch at every drift event with
// perfect knowledge of the new distribution, giving the differential the
// drift tests assert against: the adaptive loop must land within a few
// percent of the oracle's epoch time while migrating a fraction of its
// bytes.

// DriftKind selects how a drift event perturbs the hotness distribution.
type DriftKind int

const (
	// DriftNone leaves the distribution untouched (control scenario).
	DriftNone DriftKind = iota
	// DriftRotate shifts hotness by ⌈mag·n⌉ ranks each event — a gradual
	// moving hot set (new content going viral, old content cooling).
	DriftRotate
	// DriftFlip exchanges the hotness of the top ⌈mag·n/2⌉ ranks with the
	// bottom ranks — a sudden regime change.
	DriftFlip
	// DriftOscillate alternates a DriftRotate forward and back, returning
	// to the base distribution every second event — the thrash scenario a
	// detector cooldown and payback billing must survive.
	DriftOscillate
	// DriftShuffle applies ⌈mag·n⌉ seeded random hotness swaps per event.
	DriftShuffle
)

var driftKindNames = map[DriftKind]string{
	DriftNone:      "none",
	DriftRotate:    "rotate",
	DriftFlip:      "flip",
	DriftOscillate: "oscillate",
	DriftShuffle:   "shuffle",
}

// String names the kind as the spec grammar spells it.
func (k DriftKind) String() string {
	if s, ok := driftKindNames[k]; ok {
		return s
	}
	return "unknown"
}

// DriftSchedule describes a deterministic hotness-drift process.
type DriftSchedule struct {
	// Every is the event period in epochs (0 disables drift).
	Every int
	// Kind selects the perturbation applied at each event.
	Kind DriftKind
	// Mag in (0,1] scales the perturbation (fraction of ranks involved).
	Mag float64
	// Seed drives DriftShuffle's random swaps.
	Seed int64
}

// Empty reports a schedule that never fires.
func (s DriftSchedule) Empty() bool {
	return s.Every <= 0 || s.Kind == DriftNone
}

// Validate rejects schedules SimulateEpochs cannot run. A NaN magnitude is
// rejected even on a schedule that never fires, so that every valid
// schedule survives a FormatDriftSpec/ParseDriftSpec round trip.
func (s DriftSchedule) Validate() error {
	if s.Every < 0 {
		return fmt.Errorf("trainsim: negative drift period %d", s.Every)
	}
	if _, ok := driftKindNames[s.Kind]; !ok {
		return fmt.Errorf("trainsim: unknown drift kind %d", int(s.Kind))
	}
	if math.IsNaN(s.Mag) || (!s.Empty() && !(s.Mag > 0 && s.Mag <= 1)) {
		return fmt.Errorf("trainsim: drift magnitude %v out of (0,1]", s.Mag)
	}
	return nil
}

// ParseDriftSpec decodes the command-line drift grammar, semicolon-
// separated key=value clauses mirroring the faults spec:
//
//	every=100;kind=shuffle;mag=0.2;seed=7
//
// kind is one of none|rotate|flip|oscillate|shuffle. mag defaults to 0.2
// and seed to 0. FormatDriftSpec is the inverse.
func ParseDriftSpec(spec string) (DriftSchedule, error) {
	s := DriftSchedule{Mag: 0.2}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return DriftSchedule{}, fmt.Errorf("trainsim: drift clause %q is not key=value", clause)
		}
		var err error
		switch key {
		case "every":
			s.Every, err = strconv.Atoi(val)
		case "kind":
			found := false
			for k, name := range driftKindNames {
				if name == val {
					s.Kind = k
					found = true
					break
				}
			}
			if !found {
				err = fmt.Errorf("unknown kind %q", val)
			}
		case "mag":
			s.Mag, err = strconv.ParseFloat(val, 64)
		case "seed":
			s.Seed, err = strconv.ParseInt(val, 10, 64)
		default:
			err = fmt.Errorf("unknown key %q", key)
		}
		if err != nil {
			return DriftSchedule{}, fmt.Errorf("trainsim: drift clause %q: %v", clause, err)
		}
	}
	if err := s.Validate(); err != nil {
		return DriftSchedule{}, err
	}
	return s, nil
}

// FormatDriftSpec renders a schedule in the ParseDriftSpec grammar.
func FormatDriftSpec(s DriftSchedule) string {
	return fmt.Sprintf("every=%d;kind=%s;mag=%g;seed=%d", s.Every, s.Kind, s.Mag, s.Seed)
}

// applyDrift perturbs hot in place for event number ev (0-based).
func applyDrift(hot []float64, s DriftSchedule, rng *rand.Rand, ev int) {
	n := len(hot)
	if n < 2 {
		return
	}
	k := int(s.Mag*float64(n) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > n-1 {
		k = n - 1
	}
	switch s.Kind {
	case DriftRotate:
		rotateHot(hot, k)
	case DriftFlip:
		half := k / 2
		if half < 1 {
			half = 1
		}
		for i := 0; i < half && i < n-1-i; i++ {
			hot[i], hot[n-1-i] = hot[n-1-i], hot[i]
		}
	case DriftOscillate:
		if ev%2 == 0 {
			rotateHot(hot, k)
		} else {
			rotateHot(hot, n-k) // inverse rotation: back to base
		}
	case DriftShuffle:
		for i := 0; i < k; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			hot[a], hot[b] = hot[b], hot[a]
		}
	}
}

// rotateHot shifts hot left by k in place.
func rotateHot(hot []float64, k int) {
	n := len(hot)
	k %= n
	if k == 0 {
		return
	}
	tmp := make([]float64, k)
	copy(tmp, hot[:k])
	copy(hot, hot[k:])
	copy(hot[n-k:], tmp)
}

// oracleBins re-derives the bin traffic budgets for a drifted distribution
// — the from-scratch planning pipeline restated over the fixed topology:
// the provisional greedy tier fill (which access mass the GPU, CPU, and
// SSD tiers each capture) is recomputed density-first over the live
// hotness, and every bin's Traffic budget is rescaled by its tier's mass
// ratio. The topology-driven fair shares within a tier are unchanged by
// drift, so rescaling reproduces what planning from scratch would budget.
func oracleBins(es *epochSetup, live []float64) []ddak.Bin {
	order := make([]int, len(live))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		return live[ia]*es.placeItems[ib].Bytes > live[ib]*es.placeItems[ia].Bytes
	})
	var gpuCap, cpuCap float64
	for _, b := range es.bins {
		switch b.Tier {
		case ddak.TierGPU:
			gpuCap += b.Capacity
		case ddak.TierCPU:
			cpuCap += b.Capacity
		}
	}
	var gpuMass, cpuMass float64
	remG, remC := gpuCap, cpuCap
	for _, i := range order {
		by := es.placeItems[i].Bytes
		switch {
		case remG >= by:
			remG -= by
			gpuMass += live[i]
		case remC >= by:
			remC -= by
			cpuMass += live[i]
		}
	}
	ssdMass := 1 - gpuMass - cpuMass
	if ssdMass < 0 {
		ssdMass = 0
	}
	bins := append([]ddak.Bin(nil), es.bins...)
	for bi := range bins {
		var newM, oldM float64
		switch bins[bi].Tier {
		case ddak.TierGPU:
			newM, oldM = gpuMass, es.pl.gpuMass
		case ddak.TierCPU:
			newM, oldM = cpuMass, es.pl.cpuMass
		default:
			newM, oldM = ssdMass, es.pl.ssdMass
		}
		if oldM > 1e-12 {
			bins[bi].Traffic *= newM / oldM
		}
	}
	return bins
}

// driftLoop is a horizon run's drift state: the live hotness, the layout in
// force, and either the closed adaptive loop or the from-scratch oracle.
type driftLoop struct {
	opt       SweepOptions
	es        *epochSetup
	o         *obs.Observer
	rng       *rand.Rand
	live      []float64 // the access distribution in force
	itemBytes []float64
	assign    *ddak.ItemAssignment // the layout in force
	buf       []float64            // served bytes per bin, see served

	// Adaptive-loop state (nil in oracle mode).
	mon  *adaptive.Monitor
	det  *adaptive.DriftDetector
	repl *adaptive.Replanner
	ref  []float64 // distribution the current layout was planned for
	est  []float64

	// Oracle state (nil on the adaptive path).
	oracleItems []ddak.Item
}

// newDriftLoop fills opt's defaults and seeds the loop from the planned
// layout.
func newDriftLoop(es *epochSetup, opt SweepOptions, o *obs.Observer) (*driftLoop, error) {
	if opt.DeltaBudget == 0 {
		opt.DeltaBudget = 0.5
	}
	if opt.PaybackEpochs == 0 && !opt.Schedule.Empty() {
		opt.PaybackEpochs = float64(opt.Schedule.Every) / 2
	}
	if opt.PaybackEpochs < 0 {
		opt.PaybackEpochs = 0
	}
	if opt.HalfLifeEpochs <= 0 {
		opt.HalfLifeEpochs = 2
	}
	if opt.TVTrip <= 0 {
		opt.TVTrip = 0.05
	}
	if opt.TripAfter <= 0 {
		opt.TripAfter = 1
	}
	if opt.Cooldown == 0 {
		opt.Cooldown = 3
	}
	if opt.MigrationBW <= 0 {
		opt.MigrationBW = 8e9
	}
	n := len(es.placeItems)
	d := &driftLoop{
		opt:       opt,
		es:        es,
		o:         o,
		rng:       rand.New(rand.NewSource(opt.Schedule.Seed)),
		live:      make([]float64, n),
		itemBytes: make([]float64, n),
		assign:    es.assign,
		buf:       make([]float64, len(es.bins)),
	}
	for i, it := range es.placeItems {
		d.itemBytes[i] = it.Bytes
		d.live[i] = it.Hot
	}
	if opt.Oracle {
		d.oracleItems = append([]ddak.Item(nil), es.placeItems...)
		return d, nil
	}
	var err error
	if d.mon, err = adaptive.NewMonitor(n, opt.HalfLifeEpochs); err != nil {
		return nil, err
	}
	d.det = &adaptive.DriftDetector{
		TVTrip:    opt.TVTrip,
		TripAfter: opt.TripAfter,
		Cooldown:  opt.Cooldown,
		Observer:  o,
	}
	// Threshold is bypassed (the detector decides; replans go through
	// Replan directly), so any valid value works.
	d.repl, err = adaptive.NewReplanner(d.live, d.itemBytes, es.bins, es.cfg.PoolN, es.pl.fetchEpoch, 0.5)
	if err != nil {
		return nil, err
	}
	if opt.DeltaBudget > 0 {
		d.repl.DeltaBudget = opt.DeltaBudget
	}
	d.repl.PaybackEpochs = opt.PaybackEpochs
	d.repl.Observer = o
	d.assign = d.repl.Current()
	d.ref = append([]float64(nil), d.live...)
	d.est = make([]float64, 0, n)
	return d, nil
}

// step enters epoch e: it applies the drift event that falls due, if any,
// and lets the oracle or the adaptive loop decide the layout. changed
// reports that the live hotness or the layout moved; stall is the
// migration time billed before the epoch's I/O.
func (d *driftLoop) step(e int, res *SweepResult) (stall float64, changed bool, err error) {
	s := d.opt.Schedule
	if !s.Empty() && e > 0 && e%s.Every == 0 {
		applyDrift(d.live, s, d.rng, res.DriftEvents)
		res.DriftEvents++
		changed = true
		if d.o.FlightEnabled() {
			d.o.Event(obs.Event{Kind: obs.EvDrift, Name: "shift",
				Reason: s.Kind.String(), V1: float64(e)})
		}
	}

	if d.opt.Oracle {
		if !changed {
			return 0, false, nil
		}
		// Perfect knowledge: full re-solve onto the true new distribution
		// the moment it changes.
		for i := range d.oracleItems {
			d.oracleItems[i].Hot = d.live[i]
		}
		next, err := ddak.PlaceItemsObserved(d.oracleItems, oracleBins(d.es, d.live), d.es.cfg.PoolN, d.es.pl.fetchEpoch, d.o)
		if err != nil {
			return 0, false, fmt.Errorf("trainsim: oracle re-plan at epoch %d: %w", e, err)
		}
		moved := 0.0
		for i := range next.Of {
			if next.Of[i] != d.assign.Of[i] {
				moved += d.itemBytes[i]
			}
		}
		d.assign = next
		res.Replans++
		res.FullSolves++
		res.MovedBytes += moved
		return moved / d.opt.MigrationBW, true, nil
	}

	// The closed loop: observe the epoch's traffic, let the EWMA estimate
	// converge, check for drift, re-solve incrementally.
	if err := d.mon.ObserveWeights(d.live); err != nil {
		return 0, false, err
	}
	d.mon.Tick()
	d.est = d.mon.HotnessInto(d.est)
	sig, err := d.det.Check(d.ref, d.est)
	if err != nil {
		return 0, false, err
	}
	if !sig.Tripped {
		return 0, changed, nil
	}
	res.Trips++
	mig, err := d.repl.Replan(d.est)
	if err != nil {
		return 0, false, fmt.Errorf("trainsim: adaptive re-plan at epoch %d: %w", e, err)
	}
	if mig.Skipped {
		// The migration cannot pay for itself: accept the drifted
		// distribution as the new reference so the detector re-arms for
		// further drift instead of re-tripping on the same shift every
		// cooldown.
		res.Skipped++
		d.ref = append(d.ref[:0], d.est...)
	}
	if mig.Triggered {
		d.assign = mig.Assignment
		d.ref = append(d.ref[:0], d.est...)
		res.Replans++
		if mig.Incremental {
			res.DeltaSolves++
		} else {
			res.FullSolves++
		}
		res.MovedBytes += mig.MovedBytes
		stall = mig.MovedBytes / d.opt.MigrationBW
		changed = true
	}
	d.det.Reset()
	return stall, changed, nil
}

// served returns the per-bin served bytes of the layout in force under the
// live hotness, in a buffer the loop owns. Each item's hotness is already
// its share of the fetched bytes, so it scales by fetchEpoch alone — the
// normalization ServedBytesItems applies.
func (d *driftLoop) served() []float64 {
	for b := range d.buf {
		d.buf[b] = 0
	}
	for i, b := range d.assign.Of {
		d.buf[b] += d.live[i] * d.es.pl.fetchEpoch
	}
	return d.buf
}
