package experiments

import (
	"fmt"
	"math"
	"time"

	"moment/internal/faults"
	"moment/internal/flownet"
	"moment/internal/gnn"
	"moment/internal/placement"
	"moment/internal/scorecache"
	"moment/internal/topology"
	"moment/internal/trainsim"
)

// This file benchmarks the two long-horizon harness paths rather than the
// simulated system itself: planning a whole fleet of nodes (the placement
// sweep) and simulating thousands of training epochs against one fault
// schedule (the long-horizon sweep). Each produces one BenchRecord whose
// epoch_sec is a deterministic simulated quantity, so the -compare gate
// can hold it steady across PRs. The fleet row also carries the measured
// wall-clock of its naive baseline and of the cached harness as
// informational fields.

// FleetSweepRecord plans a fleet of nodes twice — every node searched cold
// with no cache (the baseline), then the whole fleet through one shared
// score cache — and records both wall-clocks. The fleet alternates machines A and B, so from the third
// node on every search is a repeat configuration and the shared cache
// serves it wholesale; the two passes must agree on every node's best
// placement time, which is also the check that the harness speedup does
// not change planner output.
func FleetSweepRecord(nodes int) (BenchRecord, error) {
	if nodes < 2 {
		nodes = 2
	}
	machines := []*topology.Machine{topology.MachineA(), topology.MachineB()}
	w := wl("IG", gnn.KindSAGE)
	fleet := make([]*topology.Machine, nodes)
	for i := range fleet {
		fleet[i] = machines[i%len(machines)]
	}

	// Demand derivation (stats, sampling, flow prediction) is identical
	// work in both passes and not what this row measures; derive each
	// machine type's demand once, outside the timed regions.
	demands := map[string]*flownet.Demand{}
	for _, m := range machines {
		dem, err := fleetDemand(m, w)
		if err != nil {
			return BenchRecord{}, err
		}
		demands[m.Name] = dem
	}

	// Baseline: per-node cold search, no memoization anywhere.
	baseTimes := make([]float64, nodes)
	t0 := time.Now()
	for i, m := range fleet {
		res, err := placement.Search(m, demands[m.Name], placement.Options{})
		if err != nil {
			return BenchRecord{}, fmt.Errorf("experiments: fleet baseline node %d: %w", i, err)
		}
		baseTimes[i] = res.Time.Sec()
	}
	baselineMS := float64(time.Since(t0)) / float64(time.Millisecond)

	// Optimized: the same fleet through one shared score cache.
	cache := scorecache.NewScores(1 << 16)
	hits := 0
	mean := 0.0
	t1 := time.Now()
	for i, m := range fleet {
		res, err := placement.Search(m, demands[m.Name], placement.Options{Cache: cache})
		if err != nil {
			return BenchRecord{}, fmt.Errorf("experiments: fleet sweep node %d: %w", i, err)
		}
		hits += res.CacheHits
		mean += res.Time.Sec()
		if math.Abs(res.Time.Sec()-baseTimes[i]) > 1e-12 {
			return BenchRecord{}, fmt.Errorf(
				"experiments: fleet node %d: cached search %v != cold search %v",
				i, res.Time.Sec(), baseTimes[i])
		}
	}
	optimizedMS := float64(time.Since(t1)) / float64(time.Millisecond)
	mean /= float64(nodes)

	return BenchRecord{
		Machine:          "A+B",
		Dataset:          "IG",
		Model:            gnn.KindSAGE.String(),
		Layout:           "sweep",
		Policy:           "scorecache",
		EpochSec:         mean,
		SweepNodes:       nodes,
		SweepCacheHits:   hits,
		SweepBaselineMS:  baselineMS,
		SweepOptimizedMS: optimizedMS,
	}, nil
}

// fleetDemand derives a node's planning demand the same way the trainer
// does, from an arbitrary feasible placement (the demand does not depend on
// which one).
func fleetDemand(m *topology.Machine, w trainsim.Workload) (*flownet.Demand, error) {
	first, err := placement.FirstCandidate(m)
	if err != nil {
		return nil, err
	}
	dem, _, err := trainsim.PlanDemand(trainsim.Config{Machine: m, Placement: first, Workload: w})
	if err != nil {
		return nil, err
	}
	return dem, nil
}

// LongSimRecord simulates a long fault-injected training run through the
// memoized horizon driver. The fault schedule is confined to the first few
// epochs (a throttle, an error burst, a GPU straggler, and a device
// fail-stop), so almost the whole horizon is quiet and served from the
// memo; EpochSec is the deterministic mean simulated epoch.
func LongSimRecord(epochs int) (BenchRecord, error) {
	if epochs < 10 {
		epochs = 10
	}
	m := topology.MachineA()
	p, err := topology.ClassicPlacement(m, topology.LayoutC)
	if err != nil {
		return BenchRecord{}, err
	}
	cfg := trainsim.Config{Machine: m, Placement: p, Workload: wl("IG", gnn.KindSAGE)}
	nominal, err := trainsim.SimulateEpoch(cfg)
	if err != nil {
		return BenchRecord{}, err
	}
	ep := nominal.EpochTime.Sec()
	cfg.Faults = &faults.Schedule{Seed: 11, Events: []faults.Event{
		faults.ThrottleSSD(1, 1.3*ep, 0.5, ep),
		faults.Burst(2, 3.4*ep, 0.3, 0.5*ep),
		faults.Straggle(0, 5.2*ep, 0.6, 0.4*ep),
		faults.Kill(3, 7.5*ep),
	}}
	res, err := trainsim.SimulateEpochs(cfg, trainsim.SweepOptions{Epochs: epochs})
	if err != nil {
		return BenchRecord{}, err
	}
	return BenchRecord{
		Machine:      m.Name,
		Dataset:      "IG",
		Model:        gnn.KindSAGE.String(),
		Layout:       "longsim",
		Policy:       "delta",
		EpochSec:     res.Total.Sec() / float64(epochs),
		SimEpochs:    epochs,
		SimResims:    res.Resims,
		SimCacheHits: res.CacheHits,
	}, nil
}
