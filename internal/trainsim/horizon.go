package trainsim

import (
	"fmt"
	"strconv"

	"moment/internal/adaptive"
	"moment/internal/ddak"
	"moment/internal/faults"
	"moment/internal/obs"
	"moment/internal/simnet"
	"moment/internal/units"
)

// This file implements the long-horizon driver: thousands of back-to-back
// training epochs against one absolute fault schedule (cfg.Faults, event
// times in seconds from the start of epoch 0) and one hotness-drift
// schedule (SweepOptions.Schedule, in epochs). The planning pipeline
// (stats, max-flow prediction, DDAK) runs once. Each epoch then applies
// the drift and fault transitions that fall due and prices its I/O on the
// fabric, unless one memo can prove the epoch identical to an earlier one:
// same fault state when its I/O starts, same served bytes per bin, and no
// fault boundary inside it. Faults and drift compose; a run with only one
// of them is the special case where the other side is empty.

// SweepOptions tunes a long-horizon run. With an empty Schedule and Oracle
// off the run only replays cfg.Faults; otherwise the hotness drifts and the
// layout chases it, which needs PolicyDDAK with CachePartitioned GPU caches
// (the regime where the layout is entirely placement-driven).
type SweepOptions struct {
	// Epochs is the horizon length (default 1).
	Epochs int
	// Schedule is the hotness-drift process to chase (empty: no drift).
	Schedule DriftSchedule
	// Oracle replaces the adaptive loop with a from-scratch full re-plan
	// at every drift event, fed the true post-event distribution — the
	// upper bound on layout quality and on migration traffic.
	Oracle bool
	// DeltaBudget is the incremental re-solve's MaxMoveFrac (default 0.5;
	// negative forces full re-solves on the adaptive path too).
	DeltaBudget float64
	// PaybackEpochs bills adaptive migrations against their projected
	// per-epoch savings (see adaptive.Replanner): a move is only taken if
	// the fast-tier bytes it saves repay its bill within the window. The
	// default is half the drift period — a migration should pay for
	// itself before the distribution likely shifts again. Negative
	// disables billing (every triggered replan commits).
	PaybackEpochs float64
	// HalfLifeEpochs is the monitor's EWMA half-life (default 2).
	HalfLifeEpochs float64
	// TVTrip and TripAfter configure the detector (defaults 0.05 and 1);
	// Cooldown suppresses re-trips for that many epochs after a replan
	// (default 3, enough for the EWMA to converge onto a new regime).
	TVTrip    float64
	TripAfter int
	Cooldown  int
	// MigrationBW is the fabric bandwidth migrations are billed at, in
	// bytes/second (default 8e9); the stall lands on the replan epoch,
	// before its I/O.
	MigrationBW float64
}

// DriftOptions is SweepOptions under the name drift callers use.
type DriftOptions = SweepOptions

// SweepResult aggregates a long-horizon run.
type SweepResult struct {
	// Epochs is the number of epochs simulated; Oracle echoes the mode.
	Epochs int
	Oracle bool
	// Total is the wall-clock of the whole run, including recovery and
	// migration stalls.
	Total units.Duration
	// EpochTimes holds each epoch's duration in seconds (stalls included).
	EpochTimes []float64
	// MeanEpoch is Total/Epochs in seconds.
	MeanEpoch float64
	// Resims counts epochs priced by a fabric simulation; CacheHits counts
	// epochs served by the memo (Resims + CacheHits = Epochs).
	Resims    int
	CacheHits int
	// DeadSSDs lists devices lost over the horizon, in failure order.
	DeadSSDs []int
	// DriftEvents counts schedule firings; Trips counts detector trips
	// (zero in oracle mode — the oracle needs no detector).
	DriftEvents int
	Trips       int
	// Replans counts committed re-placements; Delta/Full split them by
	// solver, and Skipped counts payback-rejected migrations.
	Replans     int
	DeltaSolves int
	FullSolves  int
	Skipped     int
	// MovedBytes is the total migration bill; StallSeconds its time cost.
	MovedBytes   float64
	StallSeconds float64
	// FinalHitFast is the fast-tier (GPU+CPU) hit rate of the final layout
	// under the final live distribution.
	FinalHitFast float64
}

// DriftReport is SweepResult under the name drift callers use.
type DriftReport = SweepResult

// SimulateEpochs simulates opt.Epochs back-to-back training epochs under
// cfg.Faults and opt.Schedule. Planning runs once; each epoch is then
// either priced on the fabric or served from the memo. SSD fail-stops
// persist: once a device dies, every later epoch re-routes its bytes to
// the survivors.
func SimulateEpochs(cfg Config, opt SweepOptions) (*SweepResult, error) {
	return simulateEpochs(cfg, opt, true)
}

// SimulateDriftEpochs is SimulateEpochs under the name drift callers use.
func SimulateDriftEpochs(cfg Config, opt DriftOptions) (*DriftReport, error) {
	return SimulateEpochs(cfg, opt)
}

// simulateEpochs is the epoch loop. memo=false prices every epoch on the
// fabric: the reference the memoized run must reproduce.
func simulateEpochs(cfg Config, opt SweepOptions, memo bool) (*SweepResult, error) {
	if err := opt.Schedule.Validate(); err != nil {
		return nil, err
	}
	drifting := !opt.Schedule.Empty() || opt.Oracle
	if drifting && cfg.Policy != PolicyDDAK {
		return nil, fmt.Errorf("trainsim: drift simulation requires PolicyDDAK")
	}
	if drifting && cfg.Cache != CachePartitioned {
		return nil, fmt.Errorf("trainsim: drift simulation requires CachePartitioned")
	}
	if opt.Epochs <= 0 {
		opt.Epochs = 1
	}

	o := obs.Active(cfg.Observer)
	sp := o.Begin("trainsim.horizon")
	if cfg.Machine != nil {
		sp.SetStr("machine", cfg.Machine.Name)
	}
	sp.SetInt("epochs", opt.Epochs)
	if drifting {
		sp.SetStr("schedule", FormatDriftSpec(opt.Schedule))
	}
	defer sp.End()

	// One planning pass serves every epoch.
	wp, err := planWorkload(cfg, o.In(sp))
	if err != nil {
		return nil, err
	}
	es, oom, err := wp.placeAndSpecs(cfg.Placement, o, sp)
	if err != nil {
		return nil, err
	}
	if oom != nil {
		return nil, fmt.Errorf("trainsim: horizon configuration cannot run: %s", oom.OOM)
	}
	cfg = es.cfg
	m := cfg.Machine
	nGPU := m.NumGPUs

	var (
		inj       *faults.Injector
		linkNames []string // fabric link order, for the memo key
	)
	if !cfg.Faults.Empty() {
		if inj, err = faults.NewInjector(cfg.Faults); err != nil {
			return nil, err
		}
		if err := inj.CheckTargets(m.NumSSDs, nGPU); err != nil {
			return nil, err
		}
		probe, err := NewFabric(m, cfg.Placement)
		if err != nil {
			return nil, err
		}
		linkNames = make([]string, probe.Net.NumLinks())
		for i := range linkNames {
			linkNames[i] = probe.Net.LinkName(simnet.LinkID(i))
		}
	}
	var dl *driftLoop
	if drifting {
		if dl, err = newDriftLoop(es, opt, o); err != nil {
			return nil, err
		}
	}

	res := &SweepResult{
		Epochs:     opt.Epochs,
		Oracle:     opt.Oracle,
		EpochTimes: make([]float64, 0, opt.Epochs),
	}
	pol := cfg.Retry.Defaults()
	// memoTab maps a key to the epoch time it priced (stall excluded).
	// Only boundary-free epochs generalize: a duration that straddled a
	// factor change depends on when in the epoch the change landed.
	memoTab := map[string]float64{}
	var key []byte

	// served is the per-bin traffic of the layout in force under the live
	// hotness; base is its healthy flow list and specs that list re-routed
	// around the dead SSDs over the degraded bins. A nil list is rebuilt
	// before the next fabric run.
	served, base, specs := es.served, es.specs, es.specs
	bins := es.bins
	dead := map[int]bool{}
	t := 0.0
	for e := 0; e < opt.Epochs; e++ {
		// Drift events and re-placements; a migration stalls the epoch
		// before its I/O starts.
		stall := 0.0
		if dl != nil {
			var changed bool
			if stall, changed, err = dl.step(e, res); err != nil {
				return nil, err
			}
			if changed {
				served = dl.served()
				base, specs = nil, nil
			}
		}
		tIO := t + stall

		// Carry fail-stops forward: a device dead when the I/O starts
		// stays dead, and the bins degrade once per death. Checking at
		// tIO rather than t keeps a kill during a migration stall from
		// leaving flows on the dead device.
		if inj != nil {
			died := false
			for j := 0; j < m.NumSSDs; j++ {
				if !dead[j] && inj.SSDFailed(j, tIO) {
					dead[j] = true
					res.DeadSSDs = append(res.DeadSSDs, j)
					died = true
				}
			}
			if died {
				deadNames := map[string]bool{}
				for j := range dead {
					deadNames[fmt.Sprintf("ssd%d", j)] = true
				}
				if bins, err = ddak.DegradeBins(es.bins, deadNames); err != nil {
					return nil, fmt.Errorf("trainsim: horizon cannot degrade past epoch %d: %w", e, err)
				}
				specs = nil
			}
		}

		ep, hit := 0.0, false
		if memo {
			key = memoKey(key[:0], inj, linkNames, nGPU, m.NumSSDs, dead, served, tIO)
			ep, hit = memoTab[string(key)]
			hit = hit && quietFor(inj, tIO, ep)
		}
		if hit {
			res.CacheHits++
		} else {
			if base == nil {
				base = buildFlowSpecs(cfg, es.pl, served, es.gpuBin, es.dramBin, es.ssdBin0)
			}
			if specs == nil {
				if specs, err = respecDead(base, cfg, bins, es.ssdBin0, dead, es.pl.ssdsPerGPU); err != nil {
					return nil, err
				}
			}
			if ep, err = priceEpoch(es, specs, inj, pol, dead, tIO); err != nil {
				return nil, fmt.Errorf("trainsim: horizon epoch %d (t=%.3f): %w", e, t, err)
			}
			res.Resims++
			if memo && quietFor(inj, tIO, ep) {
				memoTab[string(key)] = ep
			}
		}
		dur := ep + stall
		res.EpochTimes = append(res.EpochTimes, dur)
		res.StallSeconds += stall
		t += dur
	}
	res.Total = units.Seconds(t)
	res.MeanEpoch = t / float64(opt.Epochs)
	if dl == nil {
		res.FinalHitFast = es.assign.HitRateItems(ddak.TierGPU) + es.assign.HitRateItems(ddak.TierCPU)
	} else if hit, err := adaptive.HitRate(dl.assign, dl.live); err == nil {
		res.FinalHitFast = hit
	}

	sp.SetFloat("total_seconds", t)
	sp.SetInt("resims", res.Resims)
	sp.SetInt("cache_hits", res.CacheHits)
	sp.SetInt("drift_events", res.DriftEvents)
	sp.SetInt("replans", res.Replans)
	o.Counter("sim_delta_epochs_total").Add(float64(opt.Epochs))
	o.Counter("sim_delta_cache_hits_total").Add(float64(res.CacheHits))
	o.Counter("sim_delta_resims_total").Add(float64(res.Resims))
	if dl != nil {
		o.Counter("trainsim_drift_epochs_total").Add(float64(opt.Epochs))
		o.Counter("trainsim_drift_events_total").Add(float64(res.DriftEvents))
		o.Counter("trainsim_drift_replans_total").Add(float64(res.Replans))
		o.Gauge("trainsim_drift_moved_bytes").Set(res.MovedBytes)
		o.Gauge("trainsim_drift_mean_epoch_seconds").Set(res.MeanEpoch)
	}
	return res, nil
}

// priceEpoch simulates one epoch whose I/O starts at absolute time tIO and
// returns its pipelined duration. Without a fault schedule that is one
// plain fabric run; with one, the degraded timeline plus straggler compute.
func priceEpoch(es *epochSetup, specs []flowSpec, inj *faults.Injector, pol faults.RetryPolicy, dead map[int]bool, tIO float64) (float64, error) {
	cfg := es.cfg
	if inj == nil {
		fab, err := NewFabric(cfg.Machine, cfg.Placement)
		if err != nil {
			return 0, err
		}
		if err := addFlows(fab, specs); err != nil {
			return 0, err
		}
		run, err := fab.Net.Run()
		if err != nil {
			return 0, err
		}
		return es.epochOf(run.Makespan, es.computeTime), nil
	}
	end, _, err := simulateDegradedIO(degradeInput{
		cfg:        cfg,
		specs:      specs,
		inj:        inj,
		pol:        pol,
		bins:       es.bins,
		ssdBin0:    es.ssdBin0,
		items:      es.placeItems,
		fetchEpoch: es.pl.fetchEpoch,
		ssdsPerGPU: es.pl.ssdsPerGPU,
		t0:         tIO,
		dead:       dead,
	})
	if err != nil {
		return 0, err
	}
	comp := stragglerCompute(es.computeTime, cfg.Machine.NumGPUs, inj.WithBase(tIO))
	return es.epochOf(end-tIO, comp), nil
}

// memoKey appends an epoch's memo key to b: the fault state when its I/O
// starts at tIO — every link factor in fabric order, every GPU factor, the
// dead-device set — and its served bytes per bin to 6 significant digits.
// Two quiet epochs with equal keys are the same simulation. It allocates
// nothing once b has grown to the key's length.
func memoKey(b []byte, inj *faults.Injector, linkNames []string, nGPU, nSSD int, dead map[int]bool, served []float64, tIO float64) []byte {
	if inj != nil {
		for _, name := range linkNames {
			b = strconv.AppendFloat(b, inj.LinkFactor(name, tIO), 'g', -1, 64)
			b = append(b, ';')
		}
		for g := 0; g < nGPU; g++ {
			b = strconv.AppendFloat(b, inj.GPUFactor(g, tIO), 'g', -1, 64)
			b = append(b, ';')
		}
		for j := 0; j < nSSD; j++ {
			if dead[j] {
				b = append(b, 'x')
			} else {
				b = append(b, '-')
			}
		}
	}
	for _, v := range served {
		b = append(b, ';')
		b = strconv.AppendFloat(b, v, 'g', 6, 64)
	}
	return b
}

// respecDead rebuilds the healthy flow list for a fleet where some SSDs
// already fail-stopped: every dead device's bytes re-route to survivors,
// whole-epoch, weighted by the degraded bins' traffic budgets.
func respecDead(specs []flowSpec, cfg Config, bins []ddak.Bin, ssdBin0 int, dead map[int]bool, ssdsPerGPU int) ([]flowSpec, error) {
	if len(dead) == 0 {
		return specs, nil
	}
	next := make([]flowSpec, 0, len(specs))
	stranded := map[int]float64{}
	for _, sp := range specs {
		if sp.ssd >= 0 && dead[sp.ssd] {
			stranded[sp.gpu] += sp.bytes
			continue
		}
		next = append(next, sp)
	}
	return rerouteStranded(next, stranded, cfg, bins, ssdBin0, dead, ssdsPerGPU)
}

// quietFor reports whether no fault factor changes inside [t, t+dur).
func quietFor(inj *faults.Injector, t, dur float64) bool {
	if inj == nil {
		return true
	}
	return inj.NextChange(t) >= t+dur-1e-9
}
