// Package core is Moment's automatic module (paper §3.1, Fig 8): given a
// machine's communication topology, a GNN workload, and a dataset, it
// (1) profiles hardware bandwidths, (2) formulates the augmented
// communication graph and searches hardware placements by their minimum
// max-flow horizon with isomorphic symmetry reduction, (3) runs the
// data-distribution-aware knapsack to lay out embeddings across the
// GPU/CPU/SSD hierarchy, and (4) reports the predicted and simulated
// training performance of the chosen configuration. This is the offline
// step the paper runs once per model/hardware pair (~14s on UK) and
// amortizes over all subsequent epochs.
package core

import (
	"fmt"
	"strings"
	"time"

	"moment/internal/ddak"
	"moment/internal/faults"
	"moment/internal/obs"
	"moment/internal/placement"
	"moment/internal/profiler"
	"moment/internal/topology"
	"moment/internal/trainsim"
	"moment/internal/units"
)

// Input configures a co-optimization run.
type Input struct {
	// Machine is the extracted communication topology (builders for the
	// evaluated machines live in the topology package; arbitrary servers
	// parse from a spec).
	Machine *topology.Machine
	// Workload names the dataset and model to optimize for.
	Workload trainsim.Workload
	// Search tunes the placement search (zero value = defaults).
	Search placement.Options
	// Sim tunes the epoch simulation knobs other than machine/placement.
	Sim trainsim.Config
	// Observer receives spans and metrics for the whole run; it is also
	// propagated into the search and simulation stages (nil falls back to
	// the process default observer).
	Observer *obs.Observer
}

// Plan is the automatic module's output.
type Plan struct {
	// Profile is the measured bandwidth table (step 2 of Fig 8).
	Profile *profiler.Profile
	// Placement is the selected hardware placement.
	Placement *topology.Placement
	// PredictedIO is the max-flow predicted epoch I/O completion time.
	PredictedIO units.Duration
	// PredictedThroughput is total demand over PredictedIO.
	PredictedThroughput units.Bandwidth
	// Enumerated / Evaluated count placement candidates before and after
	// isomorphic reduction.
	Enumerated, Evaluated int
	// Scores lists every evaluated candidate's predicted time, best first,
	// when the search ran with KeepScores (the ranked-placements surface
	// the planning service exposes). Nil otherwise.
	Scores []placement.Scored
	// CacheHits counts candidate evaluations served by Search.Cache.
	CacheHits int
	// DataPlacement is the DDAK embedding layout for the chosen placement.
	DataPlacement *ddak.ItemAssignment
	// Epoch is the simulated end-to-end epoch under the plan.
	Epoch *trainsim.Result
	// PlanningTime is the wall-clock cost of the whole offline pass
	// (§3.3 reports ~14 s on UK; it amortizes to <1% of training).
	PlanningTime time.Duration
}

// CoOptimize runs the automatic module end to end.
func CoOptimize(in Input) (*Plan, error) {
	start := time.Now()
	if in.Machine == nil {
		return nil, fmt.Errorf("core: nil machine")
	}
	if err := in.Machine.Validate(); err != nil {
		return nil, err
	}
	o := obs.Active(in.Observer)
	sp := o.Begin("co-optimize")
	sp.SetStr("machine", in.Machine.Name)
	sp.SetStr("dataset", in.Workload.Dataset.Name)
	defer sp.End()
	scoped := o.In(sp)

	// Cancellation threads in through the search options (Search.Ctx); the
	// search and its solves honor it internally, and the seams between
	// stages check it so an abandoned caller never starts the next stage.
	ctxErr := func() error {
		if in.Search.Ctx == nil {
			return nil
		}
		return in.Search.Ctx.Err()
	}

	// Step 1-2: profiling.
	prof, err := profiler.Measure(in.Machine, profiler.Options{Observer: scoped})
	if err != nil {
		return nil, err
	}
	if err := ctxErr(); err != nil {
		return nil, err
	}

	// Step 3: demand formulation + placement search. The workload plan
	// (stats, cache organization, demand) depends only on tier capacities
	// and the workload, not on slot positions, so one plan serves every
	// candidate and the winner's simulation.
	simCfg := in.Sim
	simCfg.Machine = in.Machine
	simCfg.Workload = in.Workload
	if simCfg.Observer == nil {
		simCfg.Observer = scoped
	}
	demSp := sp.Child("demand")
	wp, err := trainsim.PlanWorkload(simCfg)
	demSp.End()
	if err != nil {
		return nil, err
	}
	dem, _, err := wp.Demand()
	if err != nil {
		return nil, err
	}
	searchOpt := in.Search
	if searchOpt.Observer == nil {
		searchOpt.Observer = scoped
	}
	// Fault-aware runs score against a fault-degraded picture of the
	// machine; their memoized scores must never be served to (or taken
	// from) a healthy run sharing the same cache, so the schedule's
	// canonical spec string becomes part of the cache key.
	if searchOpt.FaultsKey == "" && !in.Sim.Faults.Empty() {
		searchOpt.FaultsKey = faults.Format(in.Sim.Faults)
	}
	res, err := placement.Search(in.Machine, dem, searchOpt)
	if err != nil {
		return nil, err
	}

	if err := ctxErr(); err != nil {
		return nil, err
	}

	// Step 4: DDAK data placement + epoch simulation under the winner.
	epoch, err := wp.SimulateEpoch(res.Best)
	if err != nil {
		return nil, err
	}
	if epoch.OOM != "" {
		return nil, fmt.Errorf("core: chosen plan cannot run: %s", epoch.OOM)
	}

	if ex := in.Search.Explain; ex != nil {
		ddak.ExplainAssignment(ex, epoch.BinAssign)
		ex.Add(obs.ExplainStep{Seq: obs.SeqSummary, Stage: "plan",
			Reason: "predicted-io-sec", Value: res.Time.Sec()})
		ex.Add(obs.ExplainStep{Seq: obs.SeqSummary, Stage: "plan",
			Reason: "epoch-sec", Value: epoch.EpochTime.Sec()})
	}

	plan := &Plan{
		Profile:             prof,
		Placement:           res.Best,
		PredictedIO:         res.Time,
		PredictedThroughput: res.Throughput,
		Enumerated:          res.Enumerated,
		Evaluated:           res.Evaluated,
		Scores:              res.Scores,
		CacheHits:           res.CacheHits,
		DataPlacement:       epoch.BinAssign,
		Epoch:               epoch,
		PlanningTime:        time.Since(start),
	}
	sp.SetFloat("planning_seconds", plan.PlanningTime.Seconds())
	sp.SetInt("candidates_evaluated", plan.Evaluated)
	o.Gauge("core_planning_seconds").Set(plan.PlanningTime.Seconds())
	return plan, nil
}

// Report renders a human-readable summary of the plan, in the spirit of
// the artifact's automatic_module.py output.
func (p *Plan) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== Moment automatic module ===\n")
	b.WriteString(p.Profile.String())
	fmt.Fprintf(&b, "placement search: %d candidates, %d after symmetry reduction\n",
		p.Enumerated, p.Evaluated)
	fmt.Fprintf(&b, "selected placement: %s\n", p.Placement)
	fmt.Fprintf(&b, "predicted epoch IO: %v (throughput %v)\n", p.PredictedIO, p.PredictedThroughput)
	if p.Epoch != nil {
		fmt.Fprintf(&b, "simulated epoch: %v (io %v, compute %v, sample %v)\n",
			p.Epoch.EpochTime, p.Epoch.IOTime, p.Epoch.ComputeTime, p.Epoch.SampleTime)
		fmt.Fprintf(&b, "cache hit rates: gpu %.1f%%, cpu %.1f%%\n",
			p.Epoch.HitGPU*100, p.Epoch.HitCPU*100)
	}
	if p.DataPlacement != nil {
		fmt.Fprintf(&b, "data placement bins:\n")
		for i, bin := range p.DataPlacement.Bins {
			fmt.Fprintf(&b, "  %-10s used %8.1f GiB  access %.4f\n",
				bin.Name, p.DataPlacement.Used[i]/(1<<30), p.DataPlacement.Access[i])
		}
	}
	fmt.Fprintf(&b, "planning time: %v\n", p.PlanningTime.Round(time.Millisecond))
	return b.String()
}
