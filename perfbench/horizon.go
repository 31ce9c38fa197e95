package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"moment/internal/ddak"
	"moment/internal/faults"
	"moment/internal/gnn"
	"moment/internal/graph"
	"moment/internal/obs"
	"moment/internal/topology"
	"moment/internal/trainsim"
)

const (
	// hzPrefix is the deterministic prefix of the horizon workloads.
	hzPrefix = 8
	hzMaxOps = 100000

	driftEpochs = 150
	driftEvery  = 50
	driftMag    = 0.2

	faultEpochs = 500
)

var driftWorkload = &workload{
	name: "horizon-drift",
	why: fmt.Sprintf("1 caller, closed loop: %d-epoch adaptive SimulateDriftEpochs, shuffle drift every %d epochs, per-op seed from the seed; ddak.PlaceItemsDelta dominates, planning is nearly absent",
		driftEpochs, driftEvery),
	op: fmt.Sprintf("one adaptive trainsim.SimulateDriftEpochs per op (%d epochs, shuffle mag %g every %d epochs, seed from the workload seed and op index), "+
		"machine B layout C, IG/GraphSAGE, partitioned GPU caches, 2000 rank buckets; one caller, closed loop", driftEpochs, driftMag, driftEvery),
	tailPct: 75,
	open:    func(seed int64) (session, error) { return openHorizon(seed, true, 2) },
}

var faultsWorkload = &workload{
	name: "horizon-faults",
	why: fmt.Sprintf("1 caller, closed loop: %d-epoch SimulateEpochs under recurring faults and a mid-horizon SSD kill, per-op schedule from the seed; the only workload on the fault path",
		faultEpochs),
	op: fmt.Sprintf("one trainsim.SimulateEpochs per op (%d epochs; throttles, error bursts and GPU stragglers about every 4 epochs, one SSD fail-stop mid-horizon, "+
		"schedule from the workload seed and op index), machine A layout C, IG/GraphSAGE; one caller, closed loop", faultEpochs),
	tailPct: 85,
	open:    func(seed int64) (session, error) { return openHorizon(seed, false, 4) },
}

// horizon is a session of either long-horizon workload.
type horizon struct {
	drift   bool
	seed    int64
	cfg     trainsim.Config
	epoch   *trainsim.Result // the healthy single epoch of cfg
	predErr float64
	// totals holds each prefix operation's simulated horizon, s.
	totals []float64
	have   []bool
	// setupFails are the warm-up operations that failed.
	setupFails []string

	// Traced-run accumulators.
	epochs, resims, memoHits          int
	trips, replans, deltas, fulls     int
	movedBytes                        float64
	events, dead                      int
	rateReuses, rateSolves, ioRetries float64
}

// openHorizon sets a horizon workload up, running warmups operations so
// that one set-up is about half a second of CPU work or more.
func openHorizon(seed int64, drift bool, warmups int) (session, error) {
	ds, err := graph.DatasetByName("IG")
	if err != nil {
		return nil, err
	}
	h := &horizon{drift: drift, seed: seed, totals: make([]float64, hzPrefix), have: make([]bool, hzPrefix)}
	m := topology.MachineA()
	if drift {
		m = topology.MachineB()
	}
	p, err := topology.ClassicPlacement(m, topology.LayoutC)
	if err != nil {
		return nil, err
	}
	h.cfg = trainsim.Config{Machine: m, Placement: p, Workload: trainsim.Workload{Dataset: ds, Model: gnn.KindSAGE}}
	if drift {
		h.cfg.Cache = trainsim.CachePartitioned
		h.cfg.VirtualVertices = 2000
	}
	if h.epoch, err = trainsim.SimulateEpoch(h.cfg); err != nil {
		return nil, err
	}
	if h.epoch.OOM != "" || !(h.epoch.IOTime.Sec() > 0) {
		return nil, fmt.Errorf("horizon configuration cannot run: %s", h.epoch.OOM)
	}
	h.predErr = math.Abs(h.epoch.PredictedIO.Sec()-h.epoch.IOTime.Sec()) / h.epoch.IOTime.Sec()
	for k := 0; k < warmups; k++ {
		if _, _, err := h.horizon(h.warmupSeed(k), nil, -1); err != nil {
			h.setupFails = append(h.setupFails, fmt.Sprintf("warm-up op %d: %v", k, err))
		}
	}
	return h, nil
}

// opSeed is operation i's own seed, derived from the workload seed.
func (h *horizon) opSeed(i int) int64 { return mix(h.seed, uint64(i)) }

// warmupSeed seeds the set-up's warm-up operations, apart from every
// timed operation's seed.
func (h *horizon) warmupSeed(k int) int64 { return mix(^h.seed, uint64(k)) }

// mix derives an independent seed from seed and an index (splitmix64).
func mix(seed int64, i uint64) int64 {
	z := uint64(seed) + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// faultSchedule is the fault schedule of an operation seeded with s:
// throttles, error bursts and GPU stragglers recur every 2–6 epochs (4 on
// average) over the whole horizon, and one SSD fail-stops mid-horizon.
func faultSchedule(s int64, m *topology.Machine, ep float64) *faults.Schedule {
	rng := rand.New(rand.NewSource(s))
	dur := func() float64 { return (0.3 + rng.Float64()) * ep }
	var ev []faults.Event
	for t := 2 * ep; t < faultEpochs*ep; t += (2 + 4*rng.Float64()) * ep {
		switch rng.Intn(3) {
		case 0:
			ev = append(ev, faults.ThrottleSSD(rng.Intn(m.NumSSDs), t, 0.3+0.5*rng.Float64(), dur()))
		case 1:
			ev = append(ev, faults.Burst(rng.Intn(m.NumSSDs), t, 0.1+0.4*rng.Float64(), dur()))
		default:
			ev = append(ev, faults.Straggle(rng.Intn(m.NumGPUs), t, 0.4+0.5*rng.Float64(), dur()))
		}
	}
	ev = append(ev, faults.Kill(rng.Intn(m.NumSSDs), (faultEpochs/2+0.37)*ep))
	return &faults.Schedule{Seed: s, Events: ev}
}

// hzOut is what the checks read from either horizon simulator's report.
type hzOut struct {
	epochs, resims, hits int
	epochTimes           []float64
	total                float64
}

// horizon runs one operation with seed s: the timed horizon call (traced
// as operation op when tr is non-nil) and the checks on its report.
func (h *horizon) horizon(s int64, tr *tracer, op int) (hzOut, time.Duration, error) {
	cfg := h.cfg
	var o *obs.Observer
	if tr != nil && !h.drift {
		// The fault path's counters are read through an observer passed in
		// the traced run only.
		o = obs.New()
		cfg.Observer = o
	}
	var out hzOut
	var lat time.Duration
	var err error
	if h.drift {
		opt := trainsim.DriftOptions{Epochs: driftEpochs, Schedule: trainsim.DriftSchedule{
			Every: driftEvery, Kind: trainsim.DriftShuffle, Mag: driftMag, Seed: s}}
		var rep *trainsim.DriftReport
		lat, err = timed(tr, "trainsim.SimulateDriftEpochs", op, func() (err error) {
			rep, err = trainsim.SimulateDriftEpochs(cfg, opt)
			return err
		})
		if err != nil {
			return out, lat, err
		}
		out = hzOut{rep.Epochs, rep.Resims, rep.CacheHits, rep.EpochTimes, rep.Total.Sec()}
		if tr != nil {
			h.trips += rep.Trips
			h.replans += rep.Replans
			h.deltas += rep.DeltaSolves
			h.fulls += rep.FullSolves
			h.movedBytes += rep.MovedBytes
		}
	} else {
		cfg.Faults = faultSchedule(s, cfg.Machine, h.epoch.EpochTime.Sec())
		var rep *trainsim.SweepResult
		lat, err = timed(tr, "trainsim.SimulateEpochs", op, func() (err error) {
			rep, err = trainsim.SimulateEpochs(cfg, trainsim.SweepOptions{Epochs: faultEpochs})
			return err
		})
		if err != nil {
			return out, lat, err
		}
		out = hzOut{rep.Epochs, rep.Resims, rep.CacheHits, rep.EpochTimes, rep.Total.Sec()}
		if tr != nil {
			h.events += len(cfg.Faults.Events)
			h.dead += len(rep.DeadSSDs)
			h.rateReuses += o.Counter("sim_delta_rate_reuses_total").Value()
			h.rateSolves += o.Counter("sim_delta_rate_solves_total").Value()
			h.ioRetries += o.Counter("simio_retries_total").Value()
		}
	}
	if tr != nil {
		h.epochs += out.epochs
		h.resims += out.resims
		h.memoHits += out.hits
	}
	return out, lat, checkHorizon(out)
}

// timed runs f and returns its latency. Under a tracer, f runs in a span
// named name inside operation op's span.
func timed(tr *tracer, name string, op int, f func() error) (time.Duration, error) {
	t0 := time.Now()
	if tr == nil {
		err := f()
		return time.Since(t0), err
	}
	id := tr.begin(opSpan, op, -1)
	err := tr.call(name, op, id, f)
	tr.end(id)
	return time.Since(t0), err
}

// checkHorizon holds a report to its accounting identities.
func checkHorizon(o hzOut) error {
	switch {
	case o.resims+o.hits != o.epochs:
		return fmt.Errorf("resims %d + memo hits %d != epochs %d", o.resims, o.hits, o.epochs)
	case len(o.epochTimes) != o.epochs:
		return fmt.Errorf("%d epoch times for %d epochs", len(o.epochTimes), o.epochs)
	}
	sum := 0.0
	for _, t := range o.epochTimes {
		sum += t
	}
	if math.Abs(sum-o.total) > 1e-9*math.Max(1, o.total) {
		return fmt.Errorf("total %v s != sum of epoch times %v s", o.total, sum)
	}
	return nil
}

func (h *horizon) run(d time.Duration, tr *tracer) (*phase, error) {
	h.epochs, h.resims, h.memoHits = 0, 0, 0
	h.trips, h.replans, h.deltas, h.fulls, h.movedBytes = 0, 0, 0, 0, 0
	h.events, h.dead, h.rateReuses, h.rateSolves, h.ioRetries = 0, 0, 0, 0, 0
	return closedLoop(d, hzPrefix, hzMaxOps, func(i int) (time.Duration, error) {
		out, lat, err := h.horizon(h.opSeed(i), tr, i)
		if err != nil {
			return lat, err
		}
		if err := h.record(i, out.total); err != nil {
			return lat, err
		}
		switch {
		case tr == nil:
			return lat, nil
		case h.drift:
			err = h.replayDelta(i, tr)
		default:
			err = h.replayStats(i, tr)
		}
		// Collect the replay's garbage before the next operation, so that
		// it is not billed to that operation's spans.
		runtime.GC()
		return lat, err
	}), nil
}

func (h *horizon) record(i int, total float64) error {
	if i >= hzPrefix {
		return nil
	}
	if !h.have[i] {
		h.totals[i], h.have[i] = total, true
		return nil
	}
	if total != h.totals[i] {
		return fmt.Errorf("total %v s differs from the earlier run's %v s", total, h.totals[i])
	}
	return nil
}

// replayDelta re-runs, outside the operation's span, one incremental DDAK
// re-solve of the horizon's initial layout under one shuffle step seeded
// like the operation.
func (h *horizon) replayDelta(i int, tr *tracer) error {
	st, a := h.epoch.Stats, h.epoch.BinAssign
	if st == nil || a == nil || len(a.Of) != len(st.VirtualHot) {
		return fmt.Errorf("drift epoch has no full-item layout to replay")
	}
	n := len(st.VirtualHot)
	prev := make([]ddak.Item, n)
	for k := range prev {
		prev[k] = ddak.Item{Hot: st.VirtualHot[k], Bytes: st.VirtualBytes[k]}
	}
	next := append([]ddak.Item(nil), prev...)
	rng := rand.New(rand.NewSource(h.opSeed(i)))
	for k := 0; k < int(driftMag*float64(n)+0.5); k++ {
		x, y := rng.Intn(n), rng.Intn(n)
		next[x].Hot, next[y].Hot = next[y].Hot, next[x].Hot
	}
	return tr.call("ddak.PlaceItemsDelta", i, -1, func() error {
		// MaxMoveFrac 0.5 is SimulateDriftEpochs' default DeltaBudget.
		_, err := ddak.PlaceItemsDelta(prev, a, next, a.Bins, ddakPoolN, st.FetchBytesEpoch, ddak.DeltaOptions{MaxMoveFrac: 0.5})
		return err
	})
}

// replayStats re-runs, outside the operation's span, the workload stats
// SimulateEpochs derives twice (for the nominal epoch and for its
// planning pass).
func (h *horizon) replayStats(i int, tr *tracer) error {
	w := h.cfg.Workload.Defaults()
	w.NumGPUs = h.cfg.Machine.NumGPUs
	for k := 0; k < 2; k++ {
		err := tr.call("trainsim.ComputeStats", i, -1, func() error {
			_, err := trainsim.ComputeStats(w, h.cfg.VirtualVertices)
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (h *horizon) deterministic() (simEpoch, predErr float64) {
	var per []float64
	for i, t := range h.totals {
		if h.have[i] {
			per = append(per, t/float64(h.epochsPerOp()))
		}
	}
	return mean(per), h.predErr
}

func (h *horizon) epochsPerOp() int {
	if h.drift {
		return driftEpochs
	}
	return faultEpochs
}

// verify re-runs one seeded operation of the prefix: the same seed must
// reproduce the same total.
func (h *horizon) verify() []string {
	i := rand.New(rand.NewSource(h.seed)).Intn(hzPrefix)
	if !h.have[i] {
		return []string{fmt.Sprintf("reproduce: op %d never ran", i)}
	}
	out, _, err := h.horizon(h.opSeed(i), nil, -1)
	if err != nil {
		return []string{fmt.Sprintf("reproduce op %d: %v", i, err)}
	}
	if out.total != h.totals[i] {
		return []string{fmt.Sprintf("reproduce op %d: total %v s, first run %v s", i, out.total, h.totals[i])}
	}
	return nil
}

func (h *horizon) layers(ph *phase, spans []span, out map[string]float64) error {
	n := float64(ph.ops())
	self := selfTimes(spans)
	out["trainsim.horizon_ms"] = ms(self["trainsim.SimulateDriftEpochs"]+self["trainsim.SimulateEpochs"]) / n
	out["trainsim.resim_frac"] = ratio(float64(h.resims), float64(h.epochs))
	out["trainsim.memo_hit_frac"] = ratio(float64(h.memoHits), float64(h.epochs))
	if h.drift {
		out["adaptive.trips"] = float64(h.trips) / n
		out["adaptive.commit_frac"] = ratio(float64(h.replans), float64(h.trips))
		out["ddak.delta_solves"] = float64(h.deltas) / n
		out["ddak.full_solves"] = float64(h.fulls) / n
		out["ddak.moved_gib"] = h.movedBytes / (1 << 30) / n
		out["ddak.delta_ms"] = ms(self["ddak.PlaceItemsDelta"]) / n
		return nil
	}
	out["trainsim.stats_ms"] = ms(self["trainsim.ComputeStats"]) / n
	out["faults.events"] = float64(h.events) / n
	out["faults.dead_ssds"] = float64(h.dead) / n
	out["simnet.rate_reuse_frac"] = ratio(h.rateReuses, h.rateReuses+h.rateSolves)
	out["simio.retries"] = h.ioRetries / n
	return nil
}

func (h *horizon) setupChecks() []string { return h.setupFails }

func (h *horizon) close() error { return nil }
