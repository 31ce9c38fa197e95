package experiments

import (
	"fmt"
	"math"
	"testing"

	"moment/internal/baselines"
	"moment/internal/cluster"
	"moment/internal/faults"
	"moment/internal/flownet"
	"moment/internal/gnn"
	"moment/internal/placement"
	"moment/internal/scorecache"
	"moment/internal/topology"
	"moment/internal/trainsim"
)

// Four deterministic simulations beyond the paper grid: a fleet placement
// sweep through a shared score cache, a long fault-injected horizon, the
// adaptive drift loop against its from-scratch oracle, and the multi-node
// flow planner against DistDGL. TestBenchRowsExact pins each one's outputs
// to the values it produced when this file was written, which is stricter
// than a 10% regression gate.

// sweepRow is a fleet placement sweep: the fleet-mean best predicted I/O
// time and the score-cache hits the cached pass took.
type sweepRow struct {
	meanBest  float64
	cacheHits int
}

// fleetSweep plans every node of a fleet alternating machines A and B on
// IG twice: cold with no cache, and through one score cache the whole
// fleet shares. From the third node on every search repeats a
// configuration, so the cache serves it wholesale; the two searches must
// agree on every node.
func fleetSweep(nodes int) (sweepRow, error) {
	machines := []*topology.Machine{topology.MachineA(), topology.MachineB()}
	w := wl("IG", gnn.KindSAGE)
	demands := map[string]*flownet.Demand{}
	for _, m := range machines {
		dem, _, err := trainsim.PlanDemand(trainsim.Config{Machine: m, Workload: w})
		if err != nil {
			return sweepRow{}, err
		}
		demands[m.Name] = dem
	}
	cache := scorecache.NewScores(1 << 16)
	var row sweepRow
	for i := 0; i < nodes; i++ {
		m := machines[i%len(machines)]
		cold, err := placement.Search(m, demands[m.Name], placement.Options{})
		if err != nil {
			return sweepRow{}, fmt.Errorf("node %d cold: %w", i, err)
		}
		cached, err := placement.Search(m, demands[m.Name], placement.Options{Cache: cache})
		if err != nil {
			return sweepRow{}, fmt.Errorf("node %d cached: %w", i, err)
		}
		if cached.Time != cold.Time {
			return sweepRow{}, fmt.Errorf("node %d: cached search %v != cold search %v", i, cached.Time, cold.Time)
		}
		row.cacheHits += cached.CacheHits
		row.meanBest += cached.Time.Sec()
	}
	row.meanBest /= float64(nodes)
	return row, nil
}

// longSimRow is a long-horizon run: the mean simulated epoch and the split
// of its epochs into fabric simulations and memo hits.
type longSimRow struct {
	epochSec     float64
	resims, hits int
}

// longSim simulates machine A under layout (c) on IG for the given number
// of epochs, with a fault schedule confined to the first few epochs (a
// throttle, an error burst, a GPU straggler and an SSD fail-stop), so
// almost the whole horizon is quiet and served from the memo.
func longSim(epochs int) (longSimRow, error) {
	m := topology.MachineA()
	p, err := topology.ClassicPlacement(m, topology.LayoutC)
	if err != nil {
		return longSimRow{}, err
	}
	cfg := trainsim.Config{Machine: m, Placement: p, Workload: wl("IG", gnn.KindSAGE)}
	nominal, err := trainsim.SimulateEpoch(cfg)
	if err != nil {
		return longSimRow{}, err
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
		return longSimRow{}, err
	}
	return longSimRow{epochSec: res.Total.Sec() / float64(epochs), resims: res.Resims, hits: res.CacheHits}, nil
}

// driftRow is the adaptive loop against the from-scratch oracle over one
// drifting horizon.
type driftRow struct {
	epochSec, oracleEpochSec float64
	movedGiB, oracleGiB      float64
	events, trips, replans   int
}

// driftRun runs machine B under layout (c) on IG with partitioned caches,
// reshuffling the hotness every 100 epochs. The adaptive loop chases the
// drift through its detector, incremental DDAK and payback billing; the
// oracle re-plans from scratch on the true post-event distribution.
func driftRun(epochs int) (driftRow, error) {
	m := topology.MachineB()
	p, err := topology.ClassicPlacement(m, topology.LayoutC)
	if err != nil {
		return driftRow{}, err
	}
	cfg := trainsim.Config{
		Machine:         m,
		Placement:       p,
		Workload:        wl("IG", gnn.KindSAGE),
		Cache:           trainsim.CachePartitioned,
		VirtualVertices: 2000,
	}
	opt := trainsim.DriftOptions{
		Epochs:   epochs,
		Schedule: trainsim.DriftSchedule{Every: 100, Kind: trainsim.DriftShuffle, Mag: 0.2, Seed: 42},
	}
	ad, err := trainsim.SimulateDriftEpochs(cfg, opt)
	if err != nil {
		return driftRow{}, fmt.Errorf("adaptive: %w", err)
	}
	opt.Oracle = true
	or, err := trainsim.SimulateDriftEpochs(cfg, opt)
	if err != nil {
		return driftRow{}, fmt.Errorf("oracle: %w", err)
	}
	return driftRow{
		epochSec:       ad.MeanEpoch,
		oracleEpochSec: or.MeanEpoch,
		movedGiB:       ad.MovedBytes / (1 << 30),
		oracleGiB:      or.MovedBytes / (1 << 30),
		events:         ad.DriftEvents,
		trips:          ad.Trips,
		replans:        ad.Replans,
	}, nil
}

// clusterRow is the multi-node reference: the flow-planned and analytical
// epochs of one cluster configuration beside the DistDGL baseline's.
type clusterRow struct {
	flowSec, analyticSec, distDGLSec float64
	flowVPS, distDGLVPS              float64
	remoteGiB                        float64
}

// clusterRun plans `nodes` Machine B nodes on PA over 100 Gb/s NICs with a
// quarter of the SSD tier replicated, once by the whole-cluster max-flow
// and once by the analytical composition, and runs the calibrated DistDGL
// baseline on the same dataset.
func clusterRun(nodes int) (clusterRow, error) {
	m := topology.MachineB()
	p, err := topology.MomentPlacementB(m)
	if err != nil {
		return clusterRow{}, err
	}
	w := wl(clusterBenchDataset, gnn.KindSAGE)
	cfg := cluster.Config{
		Node: m, Nodes: nodes, NICBW: clusterBenchNIC,
		Workload: w, Placement: p, Replication: clusterBenchReplication,
	}
	ana, err := cluster.Simulate(cfg)
	if err != nil {
		return clusterRow{}, fmt.Errorf("analytical: %w", err)
	}
	cfg.Flow = true
	flow, err := cluster.Simulate(cfg)
	if err != nil {
		return clusterRow{}, fmt.Errorf("flow: %w", err)
	}
	dgl, err := baselines.DistDGL(m, baselines.DefaultDistDGL(), w)
	if err != nil {
		return clusterRow{}, err
	}
	for name, oom := range map[string]string{"flow": flow.OOM, "analytical": ana.OOM, "DistDGL": dgl.OOM} {
		if oom != "" {
			return clusterRow{}, fmt.Errorf("%s OOM: %s", name, oom)
		}
	}
	return clusterRow{
		flowSec:     flow.EpochTime.Sec(),
		analyticSec: ana.EpochTime.Sec(),
		distDGLSec:  dgl.EpochTime.Sec(),
		flowVPS:     flow.Throughput,
		distDGLVPS:  dgl.Throughput,
		remoteGiB:   flow.RemoteBytes / (1 << 30),
	}, nil
}

// near reports whether got is within 1e-12 relative of want.
func near(got, want float64) bool { return math.Abs(got-want) <= 1e-12*math.Abs(want) }

// TestBenchRowsExact recomputes the four simulations and pins their
// outputs. The fault-only long horizon, the sweep and the cluster hold bit
// for bit. The drift run holds to 1e-12 relative: until the hotness or the
// layout first changes, its epochs are priced from the planned served
// bytes, which sum the same hotness in another order.
func TestBenchRowsExact(t *testing.T) {
	t.Run("sweep", func(t *testing.T) {
		got, err := fleetSweep(8)
		if err != nil {
			t.Fatal(err)
		}
		if want := (sweepRow{meanBest: 12.047973858842415, cacheHits: 501}); got != want {
			t.Errorf("sweep = %+v, want %+v", got, want)
		}
	})
	t.Run("longsim", func(t *testing.T) {
		got, err := longSim(10000)
		if err != nil {
			t.Fatal(err)
		}
		if want := (longSimRow{epochSec: 14.072903498256716, resims: 7, hits: 9993}); got != want {
			t.Errorf("longsim = %+v, want %+v", got, want)
		}
	})
	t.Run("drift", func(t *testing.T) {
		got, err := driftRun(1000)
		if err != nil {
			t.Fatal(err)
		}
		if !near(got.epochSec, 10.801989171753696) || !near(got.oracleEpochSec, 10.861752353604357) ||
			!near(got.movedGiB, 1090.7295722961426) || !near(got.oracleGiB, 6572.422172546387) {
			t.Errorf("drift epoch %v s (oracle %v s), moved %v GiB (oracle %v GiB); "+
				"want 10.801989171753696 (10.861752353604357), 1090.7295722961426 (6572.422172546387)",
				got.epochSec, got.oracleEpochSec, got.movedGiB, got.oracleGiB)
		}
		if got.events != 9 || got.trips != 27 || got.replans != 3 {
			t.Errorf("drift: %d events, %d trips, %d replans; want 9, 27, 3", got.events, got.trips, got.replans)
		}
		checkDriftAcceptance(t, got)
	})
	t.Run("cluster", func(t *testing.T) {
		got, err := clusterRun(4)
		if err != nil {
			t.Fatal(err)
		}
		if got.flowSec != 1.2979854401292796 || got.distDGLSec != 4.265174740162265 {
			t.Errorf("cluster flow epoch %v s, DistDGL %v s; want 1.2979854401292796, 4.265174740162265",
				got.flowSec, got.distDGLSec)
		}
		checkClusterAcceptance(t, got)
	})
}

// checkDriftAcceptance is the adaptive loop's acceptance differential: it
// stays within 5% of the oracle's epoch time and migrates under half the
// oracle's bytes.
func checkDriftAcceptance(t *testing.T, r driftRow) {
	t.Helper()
	if r.epochSec <= 0 || r.oracleEpochSec <= 0 {
		t.Fatalf("non-positive epoch times: adaptive %v oracle %v", r.epochSec, r.oracleEpochSec)
	}
	if ratio := r.epochSec / r.oracleEpochSec; ratio > 1.05 {
		t.Errorf("adaptive epoch %.4fs is %.1f%% over oracle %.4fs (want <= 5%%)",
			r.epochSec, (ratio-1)*100, r.oracleEpochSec)
	}
	if r.oracleGiB <= 0 || r.movedGiB >= 0.5*r.oracleGiB {
		t.Errorf("migration bills: adaptive %.3g GiB vs oracle %.3g GiB (want under half)", r.movedGiB, r.oracleGiB)
	}
}

// checkClusterAcceptance is the multi-node acceptance differential: the
// flow planner beats DistDGL and agrees with the analytical composition on
// the non-blocking core.
func checkClusterAcceptance(t *testing.T, r clusterRow) {
	t.Helper()
	if r.flowSec <= 0 || r.distDGLSec <= 0 {
		t.Fatalf("non-positive epochs: flow %g, distdgl %g", r.flowSec, r.distDGLSec)
	}
	if r.distDGLSec <= r.flowSec || r.flowVPS <= r.distDGLVPS {
		t.Errorf("flow %.3fs (%.0f v/s) does not beat DistDGL %.3fs (%.0f v/s)",
			r.flowSec, r.flowVPS, r.distDGLSec, r.distDGLVPS)
	}
	if rel := math.Abs(r.flowSec-r.analyticSec) / r.analyticSec; rel > 0.02 {
		t.Errorf("flow %.3fs vs analytical %.3fs: rel %.4f > 0.02", r.flowSec, r.analyticSec, rel)
	}
}

// TestDriftRecord checks the acceptance differential on a 200-epoch
// horizon with its single drift event, and that the seeded schedule
// reproduces the run exactly.
func TestDriftRecord(t *testing.T) {
	r, err := driftRun(200)
	if err != nil {
		t.Fatal(err)
	}
	if r.events != 1 {
		t.Errorf("events = %d, want 1", r.events)
	}
	checkDriftAcceptance(t, r)
	again, err := driftRun(200)
	if err != nil {
		t.Fatal(err)
	}
	if again != r {
		t.Errorf("drift run not deterministic:\n%+v\n%+v", r, again)
	}
}
