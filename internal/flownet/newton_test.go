package flownet_test

import (
	"math"
	"testing"

	"moment/internal/flownet"
	"moment/internal/gnn"
	"moment/internal/graph"
	"moment/internal/maxflow"
	"moment/internal/placement"
	"moment/internal/topology"
	"moment/internal/trainsim"
)

// TestSolveOnPlannerCandidates holds the horizon search to its claims on
// the networks the planner actually scores: every deduplicated candidate
// of the catalog machines, under one PlanDemand per machine, solves in at
// most 6 max-flow probes, within 1e-8 relative of a cold bisection run to
// 1e-12. MachineC has no SSDs, so PlanDemand has no single-machine demand
// for it; it gets a DRAM-only one.
func TestSolveOnPlannerCandidates(t *testing.T) {
	ds, err := graph.DatasetByName("IG")
	if err != nil {
		t.Fatal(err)
	}
	w := trainsim.Workload{Dataset: ds, Model: gnn.KindSAGE}
	for _, m := range topology.MachineCatalog() {
		all, err := placement.Enumerate(m)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		var cands []*topology.Placement
		seen := map[string]bool{}
		for _, p := range all {
			key, err := placement.CanonicalKey(m, p)
			if err != nil {
				t.Fatalf("%s: %v", m.Name, err)
			}
			if !seen[key] {
				seen[key] = true
				cands = append(cands, p)
			}
		}
		dem := &flownet.Demand{PerGPU: []float64{64e9}, DRAM: map[string]float64{"rc0": 32e9, "rc1": 32e9}}
		if m.NumSSDs > 0 {
			dem, _, err = trainsim.PlanDemand(trainsim.Config{Machine: m, Workload: w})
			if err != nil {
				t.Fatalf("%s: %v", m.Name, err)
			}
		}
		solved, maxProbes, worst := 0, 0, 0.0
		for _, p := range cands {
			n, err := flownet.Build(m, p, dem)
			if err != nil {
				continue // the planner drops candidates that cannot hold the demand
			}
			got, err := n.SolveTol(1e-4)
			if err != nil {
				t.Fatalf("%s/%s: %v", m.Name, p.Name, err)
			}
			probes, _, _, _ := n.SolveCounters()
			if probes > 6 {
				t.Errorf("%s/%s: %d probes", m.Name, p.Name, probes)
			}
			want := coldBisect(t, n.Bisector(), 1e-12)
			gap := math.Abs(got.Sec()-want) / want
			if gap > 1e-8 {
				t.Errorf("%s/%s: solved %.15g s, cold bisection %.15g s (relative gap %.2g)",
					m.Name, p.Name, got.Sec(), want, gap)
			}
			solved++
			maxProbes = max(maxProbes, probes)
			worst = math.Max(worst, gap)
		}
		if solved == 0 {
			t.Fatalf("%s: no candidate solved", m.Name)
		}
		t.Logf("%s: %d candidates, at most %d probes, worst relative gap %.2g", m.Name, solved, maxProbes, worst)
	}
}

// coldBisect is the reference the search is held to: it doubles a horizon
// from one second until all demand fits, then bisects to relative width
// tol, every Feasible probe solving cold. It returns the bracket's
// feasible end.
func coldBisect(t *testing.T, b *maxflow.TimeBisector, tol float64) float64 {
	t.Helper()
	lo, hi := 0.0, 1.0
	for !b.Feasible(hi) {
		if hi > 1e12 {
			t.Fatal("cold bisection found no feasible horizon")
		}
		lo, hi = hi, 2*hi
	}
	for hi-lo > tol*hi {
		if mid := (lo + hi) / 2; b.Feasible(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}
