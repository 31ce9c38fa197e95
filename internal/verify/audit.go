package verify

import (
	"fmt"
	"math"

	"moment/internal/ddak"
	"moment/internal/flownet"
	"moment/internal/maxflow"
	"moment/internal/placement"
	"moment/internal/topology"
)

// CheckNetwork audits a solved flownet.Network: the flow on the graph must
// carry a valid maximum-flow certificate, route exactly the total GPU
// demand, draw no more from any storage bin than its supply budget, and
// keep every physical link at or under 100% utilization. Installed as
// flownet.Check by Enable.
func CheckNetwork(n *flownet.Network) error {
	d := n.Demand()
	horizon := n.SolvedHorizon()
	if horizon == 0 {
		// Zero-demand solve: nothing routed, nothing to certify.
		if dem := d.TotalDemand(); dem > maxflow.Eps {
			return fmt.Errorf("verify: network reports horizon 0 with demand %.0f", dem)
		}
		return nil
	}
	cert, err := CheckFlow(n.G, n.S, n.T)
	if err != nil {
		return err
	}
	dem := d.TotalDemand()
	if math.Abs(cert.Value-dem) > tol(dem) {
		return fmt.Errorf("verify: solved flow routes %.6g bytes, demand is %.6g", cert.Value, dem)
	}

	bt, err := n.Traffic()
	if err != nil {
		return err
	}
	for i, v := range bt.HBMPeer {
		if d.HBMPeer != nil && v > d.HBMPeer[i]+tol(d.HBMPeer[i]) {
			return fmt.Errorf("verify: hbm%d serves %.6g > budget %.6g", i, v, d.HBMPeer[i])
		}
	}
	for rc, v := range bt.DRAM {
		budget := 0.0
		if d.DRAM != nil {
			budget = d.DRAM[rc]
		}
		if v > budget+tol(budget) {
			return fmt.Errorf("verify: dram:%s serves %.6g > budget %.6g", rc, v, budget)
		}
	}
	ssdServed := 0.0
	for i, v := range bt.SSD {
		ssdServed += v
		if d.SSDPer != nil && v > d.SSDPer[i]+tol(d.SSDPer[i]) {
			return fmt.Errorf("verify: ssd%d serves %.6g > pinned budget %.6g", i, v, d.SSDPer[i])
		}
	}
	if d.SSDPer == nil && ssdServed > d.SSDTotal+tol(d.SSDTotal) {
		return fmt.Errorf("verify: SSD tier serves %.6g > budget %.6g", ssdServed, d.SSDTotal)
	}

	util, err := n.LinkUtilization()
	if err != nil {
		return err
	}
	for name, u := range util {
		if u > 1+1e-6 {
			return fmt.Errorf("verify: link %s at %.4f×capacity", name, u)
		}
	}
	return nil
}

// CheckItemAssignment audits a DDAK item layout: every item placed in a
// real bin, per-bin Used/Access accounting reproducible from the item list,
// and no bin over its byte capacity. Installed as ddak.CheckItems by
// Enable.
func CheckItemAssignment(a *ddak.ItemAssignment, items []ddak.Item) error {
	if len(a.Of) != len(items) {
		return fmt.Errorf("verify: %d items placed, %d given", len(a.Of), len(items))
	}
	used := make([]float64, len(a.Bins))
	access := make([]float64, len(a.Bins))
	for v, b := range a.Of {
		if b < 0 || int(b) >= len(a.Bins) {
			return fmt.Errorf("verify: item %d in bin %d out of range", v, b)
		}
		used[b] += items[v].Bytes
		access[b] += items[v].Hot
	}
	for i, b := range a.Bins {
		if math.Abs(used[i]-a.Used[i]) > tol(used[i]) {
			return fmt.Errorf("verify: bin %s used accounting %.6g, recomputed %.6g",
				b.Name, a.Used[i], used[i])
		}
		if math.Abs(access[i]-a.Access[i]) > tol(access[i]) {
			return fmt.Errorf("verify: bin %s access accounting %.6g, recomputed %.6g",
				b.Name, a.Access[i], access[i])
		}
		if used[i] > b.Capacity+tol(b.Capacity) {
			return fmt.Errorf("verify: bin %s over capacity: %.6g > %.6g", b.Name, used[i], b.Capacity)
		}
	}
	return nil
}

// CheckSearchResult audits a placement.Search result: the winner validates
// against the machine, re-scoring it reproduces the reported time, and the
// reported throughput is consistent with demand/time. Installed as
// placement.Check by Enable.
func CheckSearchResult(m *topology.Machine, d *flownet.Demand, res *placement.Result) error {
	if res.Best == nil {
		return fmt.Errorf("verify: search returned no placement")
	}
	if err := res.Best.Validate(m); err != nil {
		return fmt.Errorf("verify: winning placement invalid: %w", err)
	}
	if _, err := placement.CanonicalKey(m, res.Best); err != nil {
		return fmt.Errorf("verify: winning placement has no canonical key: %w", err)
	}
	n, err := flownet.Build(m, res.Best, d)
	if err != nil {
		return fmt.Errorf("verify: winner does not rebuild: %w", err)
	}
	t2, err := n.Solve()
	if err != nil {
		return fmt.Errorf("verify: winner does not re-solve: %w", err)
	}
	if math.Abs(t2.Sec()-res.Time.Sec()) > 1e-6*res.Time.Sec()+maxflow.Eps {
		return fmt.Errorf("verify: winner re-scores to %.6gs, search reported %.6gs",
			t2.Sec(), res.Time.Sec())
	}
	if res.Time > 0 {
		want := d.TotalDemand() / res.Time.Sec()
		if got := float64(res.Throughput); math.Abs(got-want) > 1e-6*want+maxflow.Eps {
			return fmt.Errorf("verify: throughput %.6g inconsistent with demand/time %.6g", got, want)
		}
	}
	return nil
}

// CheckSearchDeterminism re-runs the placement search at several
// Parallelism settings and verifies that the optimum is identical every
// time — same canonical placement key, same predicted time. Placement
// choice feeds every downstream figure, so a schedule-dependent winner
// would make results irreproducible.
func CheckSearchDeterminism(m *topology.Machine, d *flownet.Demand, opt placement.Options) error {
	var firstKey string
	var firstTime float64
	for i, par := range []int{1, 2, 0} { // 0 = GOMAXPROCS default
		o := opt
		o.Parallelism = par
		res, err := placement.Search(m, d, o)
		if err != nil {
			return fmt.Errorf("verify: search at parallelism %d: %w", par, err)
		}
		key, err := placement.CanonicalKey(m, res.Best)
		if err != nil {
			return err
		}
		if i == 0 {
			firstKey, firstTime = key, res.Time.Sec()
			continue
		}
		if key != firstKey {
			return fmt.Errorf("verify: optimum depends on parallelism: key %q at 1 worker, %q at %d",
				firstKey, key, par)
		}
		if math.Abs(res.Time.Sec()-firstTime) > 1e-9*firstTime {
			return fmt.Errorf("verify: optimum time depends on parallelism: %.9g vs %.9g",
				firstTime, res.Time.Sec())
		}
	}
	return nil
}
