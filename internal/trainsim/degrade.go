package trainsim

import (
	"fmt"
	"math"

	"moment/internal/adaptive"
	"moment/internal/ddak"
	"moment/internal/faults"
	"moment/internal/simnet"
	"moment/internal/units"
)

// This file implements graceful degradation under injected faults. The
// healthy epoch is a single fabric-simulator run; with a fault schedule
// attached, throttles, link downtrains, and error bursts are absorbed by
// the simulator's time-varying link rates, while SSD fail-stops need
// placement-level recovery: the run is split at each failure, the dead
// device's remaining traffic is re-routed to the survivors in proportion
// to a degraded DDAK re-solve (via adaptive.Replanner.Rebin), and the
// timeline is charged a recovery stall — the retry policy's timeout plus
// the full backoff ladder — before the continuation segment starts.

// FaultReport summarizes how an epoch degraded under an injected schedule.
type FaultReport struct {
	// Injected counts schedule events whose start time fell inside the
	// (degraded) epoch.
	Injected int
	// DeadSSDs lists devices that fail-stopped during the epoch, in
	// failure order.
	DeadSSDs []int
	// Replans counts degraded placement re-solves (one per dead device).
	Replans int
	// Timeouts counts fail-stop drains charged to the timeline.
	Timeouts int
	// MovedBytes is the migration bill of the degraded re-solves: bytes
	// whose bin changed.
	MovedBytes float64
	// RetriedBytes estimates bytes re-fetched due to transient error
	// bursts (goodput model: served x p/(1-p), averaged over the epoch).
	RetriedBytes float64
	// StallSeconds is the total recovery stall inserted into the timeline.
	StallSeconds float64
	// NominalEpoch is the epoch time the same configuration achieves on
	// perfect hardware; Inflation = EpochTime / NominalEpoch.
	NominalEpoch units.Duration
	Inflation    float64
}

// flowSpec is one logical epoch transfer: a source endpoint, a destination
// GPU, and the bytes to move. Keeping flows in logical form (rather than
// resolved link paths) lets the degradation loop rebuild them on a fresh
// fabric for each timeline segment.
type flowSpec struct {
	name  string
	ssd   int    // source SSD index, or -1
	rc    string // source socket for DRAM flows, "" otherwise
	hbm   int    // source GPU cache for peer flows, or -1
	gpu   int    // destination GPU
	bytes float64
}

// buildFlowSpecs converts a placement's per-bin served bytes into the
// logical flow list SimulateEpoch feeds the fabric simulator.
func buildFlowSpecs(cfg Config, pl *plan, served []float64, gpuBin []int, dramBin map[string]int, ssdBin0 int) []flowSpec {
	m := cfg.Machine
	nGPU := m.NumGPUs
	perGPUFetch := pl.fetchEpoch / float64(nGPU)
	var specs []flowSpec
	for g := 0; g < nGPU; g++ {
		// GPU-cache flows.
		if cfg.Cache == CachePartitioned {
			for i, bi := range gpuBin {
				specs = append(specs, flowSpec{
					name: fmt.Sprintf("hbm%d>g%d", i, g),
					ssd:  -1, hbm: i, gpu: g,
					bytes: served[bi] / float64(nGPU),
				})
			}
		} else if pl.nvlHit[g] > 0 {
			specs = append(specs, flowSpec{
				name: fmt.Sprintf("nvl>g%d", g),
				ssd:  -1, hbm: pl.partner[g], gpu: g,
				bytes: pl.nvlHit[g] * perGPUFetch,
			})
		}
		// CPU-memory flows.
		for _, rc := range m.RootComplexes() {
			specs = append(specs, flowSpec{
				name: fmt.Sprintf("dram:%s>g%d", rc, g),
				ssd:  -1, hbm: -1, rc: rc, gpu: g,
				bytes: served[dramBin[rc]] / float64(nGPU),
			})
		}
		// SSD flows.
		for j := 0; j < m.NumSSDs; j++ {
			var bytes float64
			if cfg.Mode == PartitionedSSD {
				if j/pl.ssdsPerGPU != g {
					continue
				}
				ssdTier := 0.0
				for k := ssdBin0; k < len(served); k++ {
					ssdTier += served[k]
				}
				bytes = ssdTier / float64(nGPU) / float64(pl.ssdsPerGPU)
			} else {
				bytes = served[ssdBin0+j] / float64(nGPU)
			}
			specs = append(specs, flowSpec{
				name: fmt.Sprintf("ssd%d>g%d", j, g),
				ssd:  j, hbm: -1, gpu: g,
				bytes: bytes,
			})
		}
	}
	return specs
}

// addFlows resolves each spec's path on the fabric and registers it. Flow
// IDs are assigned sequentially, so flow i in the result corresponds to
// specs[i].
func addFlows(fab *Fabric, specs []flowSpec) error {
	for _, s := range specs {
		var (
			path []simnet.LinkID
			err  error
		)
		switch {
		case s.ssd >= 0:
			path, err = fab.PathSSDToGPU(s.ssd, s.gpu)
		case s.rc != "":
			path, err = fab.PathDRAMToGPU(s.rc, s.gpu)
		default:
			path, err = fab.PathHBMToGPU(s.hbm, s.gpu)
		}
		if err != nil {
			return err
		}
		if _, err := fab.Net.AddFlow(s.name, path, s.bytes, 0); err != nil {
			return err
		}
	}
	return nil
}

type degradeInput struct {
	cfg        Config
	specs      []flowSpec
	inj        *faults.Injector
	pol        faults.RetryPolicy
	bins       []ddak.Bin
	ssdBin0    int
	items      []ddak.Item
	fetchEpoch float64
	ssdsPerGPU int
	// t0 starts the timeline at an absolute schedule time instead of 0, and
	// dead seeds devices that already fail-stopped before t0 (their traffic
	// must have been re-routed out of specs by the caller). Both are zero
	// for a single-epoch run; the long-horizon loop uses them to evaluate a
	// later epoch against the same absolute fault schedule.
	t0   float64
	dead map[int]bool
}

// simulateDegradedIO runs the epoch's fabric traffic under the fault
// schedule and returns the degraded I/O time. Non-fail-stop faults ride on
// the simulator's time-varying link rates; each SSD fail-stop splits the
// timeline: the segment runs up to the failure, the dead device's
// remaining bytes re-route to surviving SSDs weighted by a degraded
// placement re-solve, a recovery stall is charged, and the continuation
// resumes on a fresh fabric with the injector's clock re-based.
func simulateDegradedIO(in degradeInput) (float64, *FaultReport, error) {
	m := in.cfg.Machine
	rep := &FaultReport{}
	dead := map[int]bool{}
	for j := range in.dead {
		dead[j] = true
	}
	var repl *adaptive.Replanner
	bins := in.bins
	cur := append([]flowSpec(nil), in.specs...)
	t := in.t0
	for {
		// Next unhandled SSD fail-stop, in absolute time.
		tf, fs := math.Inf(1), -1
		for j := 0; j < m.NumSSDs; j++ {
			if dead[j] {
				continue
			}
			if ft := in.inj.SSDFailTime(j); ft >= t && ft < tf {
				tf, fs = ft, j
			}
		}

		fab, err := NewFabric(m, in.cfg.Placement)
		if err != nil {
			return 0, nil, err
		}
		if err := addFlows(fab, cur); err != nil {
			return 0, nil, err
		}
		fab.Net.SetFaults(in.inj.WithBase(t))

		if math.IsInf(tf, 1) {
			res, err := fab.Net.Run()
			if err != nil {
				return 0, nil, err
			}
			return t + res.Makespan, rep, nil
		}
		res, err := fab.Net.RunUntil(tf - t)
		if err != nil {
			return 0, nil, err
		}
		remainTotal := 0.0
		for _, r := range res.FlowRemain {
			remainTotal += r
		}
		if remainTotal <= 1e-6 {
			// The epoch drained before the failure hit.
			return t + res.Makespan, rep, nil
		}

		// SSD fs fail-stops at absolute time tf with work outstanding.
		dead[fs] = true
		rep.DeadSSDs = append(rep.DeadSSDs, fs)
		rep.Timeouts++
		stall := in.pol.Timeout + in.pol.BackoffTotal()
		rep.StallSeconds += stall

		// Degraded placement re-solve: the dead bin's budget moves to the
		// surviving SSDs, and the replanner migrates its items.
		deadNames := map[string]bool{}
		for j := range dead {
			deadNames[fmt.Sprintf("ssd%d", j)] = true
		}
		bins, err = ddak.DegradeBins(in.bins, deadNames)
		if err != nil {
			return 0, nil, fmt.Errorf("trainsim: cannot degrade past ssd%d failure: %w", fs, err)
		}
		if in.cfg.Policy != PolicyHash {
			if repl == nil {
				repl, err = newReplannerFromItems(in.items, in.bins, in.cfg.PoolN, in.fetchEpoch)
				if err != nil {
					return 0, nil, err
				}
			}
			mig, err := repl.Rebin(bins)
			if err != nil {
				return 0, nil, fmt.Errorf("trainsim: degraded re-solve after ssd%d failure: %w", fs, err)
			}
			rep.Replans++
			rep.MovedBytes += mig.MovedBytes
		}

		// Rebuild the flow list from frozen per-flow progress, re-routing
		// the dead device's bytes onto survivors.
		next := make([]flowSpec, 0, len(cur))
		strandedPerGPU := map[int]float64{}
		for i, sp := range cur {
			rem := res.FlowRemain[i]
			if rem <= 1e-9 {
				continue
			}
			if sp.ssd == fs {
				strandedPerGPU[sp.gpu] += rem
				continue
			}
			sp.bytes = rem
			next = append(next, sp)
		}
		next, err = rerouteStranded(next, strandedPerGPU, in.cfg, bins, in.ssdBin0, dead, in.ssdsPerGPU)
		if err != nil {
			return 0, nil, err
		}
		t = tf + stall
		cur = next
		if len(cur) == 0 {
			return t, rep, nil
		}
	}
}

// rerouteStranded spreads each GPU's stranded bytes over surviving SSD
// flows, weighted by the degraded bins' traffic budgets (equal split when
// no survivor has one). Flows that do not exist yet — the survivor served
// nothing to that GPU before the failure — are created.
func rerouteStranded(next []flowSpec, stranded map[int]float64, cfg Config, bins []ddak.Bin, ssdBin0 int, dead map[int]bool, ssdsPerGPU int) ([]flowSpec, error) {
	m := cfg.Machine
	for gpu, bytes := range stranded {
		var surv []int
		wsum := 0.0
		for j := 0; j < m.NumSSDs; j++ {
			if dead[j] {
				continue
			}
			if cfg.Mode == PartitionedSSD && j/ssdsPerGPU != gpu {
				continue
			}
			surv = append(surv, j)
			wsum += bins[ssdBin0+j].Traffic
		}
		if len(surv) == 0 {
			return nil, fmt.Errorf("trainsim: gpu %d has no surviving SSD to re-route %.0f bytes", gpu, bytes)
		}
		for _, j := range surv {
			share := bytes / float64(len(surv))
			if wsum > 0 {
				share = bytes * bins[ssdBin0+j].Traffic / wsum
			}
			if share == 0 {
				continue
			}
			found := false
			for i := range next {
				if next[i].ssd == j && next[i].gpu == gpu {
					next[i].bytes += share
					found = true
					break
				}
			}
			if !found {
				next = append(next, flowSpec{
					name: fmt.Sprintf("ssd%d>g%d:rr", j, gpu),
					ssd:  j, hbm: -1, gpu: gpu,
					bytes: share,
				})
			}
		}
	}
	return next, nil
}

// newReplannerFromItems seeds an adaptive replanner with the epoch's item
// profile so degradation re-solves account their migration bill against
// the layout actually in force.
func newReplannerFromItems(items []ddak.Item, bins []ddak.Bin, poolN int, fetchEpoch float64) (*adaptive.Replanner, error) {
	hot := make([]float64, len(items))
	sizes := make([]float64, len(items))
	for i, it := range items {
		hot[i] = it.Hot
		sizes[i] = it.Bytes
	}
	// The threshold is irrelevant on the Rebin path; any valid value works.
	return adaptive.NewReplanner(hot, sizes, bins, poolN, fetchEpoch, 0.5)
}

// stragglerCompute stretches the per-GPU compute stage under GPU slowdown
// events: each GPU finishes its work integral at its (piecewise-constant)
// speed factor, and the stage lasts until the slowest GPU is done.
func stragglerCompute(computeTime float64, nGPU int, inj *faults.Injector) float64 {
	worst := computeTime
	for g := 0; g < nGPU; g++ {
		done, t := 0.0, 0.0
		for done < computeTime-1e-12 {
			f := inj.GPUFactor(g, t)
			nb := inj.NextChange(t)
			if math.IsInf(nb, 1) || done+f*(nb-t) >= computeTime {
				t += (computeTime - done) / f
				break
			}
			done += f * (nb - t)
			t = nb
		}
		if t > worst {
			worst = t
		}
	}
	return worst
}

// retriedBytesEstimate approximates the transient-error retry traffic:
// each SSD's served bytes times p̄/(1-p̄), with p̄ its time-averaged error
// probability over the I/O window.
func retriedBytesEstimate(inj *faults.Injector, ssdServed []float64, ioTime float64) float64 {
	if ioTime <= 0 {
		return 0
	}
	total := 0.0
	for j, served := range ssdServed {
		integ, t := 0.0, 0.0
		for t < ioTime {
			nb := math.Min(inj.NextChange(t), ioTime)
			integ += inj.ErrorProb(j, t) * (nb - t)
			t = nb
		}
		p := integ / ioTime
		if p > 0 && p < 1 {
			total += served * p / (1 - p)
		}
	}
	return total
}
