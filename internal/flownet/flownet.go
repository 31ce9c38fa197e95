// Package flownet converts a physical topology plus a hardware placement
// into the augmented single-source single-sink capacity-constrained directed
// graph of paper §3.2, and answers the questions Moment's planner asks of
// it: the minimum epoch I/O completion time (the shortest horizon at which
// one max-flow routes the demand, maxflow.TimeBisector.MinTime),
// per-GPU inlet bandwidth, per-storage-bin traffic (DDAK's Bin_traffic
// input), and per-link utilization (QPI contention analysis, Fig 17).
//
// Node classes follow the paper: storage nodes (SSDs, per-socket DRAM
// feature caches, per-GPU HBM caches serving peers), interconnect nodes
// (root complexes and PCIe switches), computation nodes (GPUs), and the
// virtual source/sink. Physical links are rate edges (bytes/second, scaled
// by the horizon); virtual source/sink arcs are fixed byte budgets. PCIe
// and QPI are full duplex, so each physical link contributes one directed
// edge per direction with independent capacity.
//
// Local HBM cache hits never touch the fabric, so callers subtract them
// from per-GPU demand before building a Demand; only the peer-served share
// of each GPU cache enters the network as a storage node.
package flownet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"moment/internal/maxflow"
	"moment/internal/obs"
	"moment/internal/scorecache"
	"moment/internal/topology"
	"moment/internal/units"
)

// Demand carries the per-epoch byte budgets the network must route.
// All quantities are bytes per epoch (or per whatever window the caller
// scores; only ratios matter for throughput).
type Demand struct {
	// PerGPU is the fabric-delivered byte demand of each GPU (local HBM
	// hits already excluded). len == Machine.NumGPUs.
	PerGPU []float64

	// HBMPeer is the byte budget each GPU cache serves to *other* GPUs.
	// len == Machine.NumGPUs. May be nil (no GPU caching).
	HBMPeer []float64

	// DRAM is the byte budget served by each socket's CPU-memory cache,
	// keyed by root-complex ID. May be nil.
	DRAM map[string]float64

	// SSDTotal is the byte budget served by the SSD tier as a whole; the
	// max-flow solution decides the per-SSD split (which DDAK then
	// realizes in the data layout).
	SSDTotal float64

	// SSDPer optionally pins per-SSD byte budgets (post-DDAK evaluation
	// of a concrete data placement). When non-nil it overrides SSDTotal.
	SSDPer []float64
}

// TotalDemand sums the per-GPU demands.
func (d *Demand) TotalDemand() float64 {
	t := 0.0
	for _, v := range d.PerGPU {
		t += v
	}
	return t
}

// TotalSupply sums all storage budgets.
func (d *Demand) TotalSupply() float64 {
	t := 0.0
	for _, v := range d.HBMPeer {
		t += v
	}
	for _, v := range d.DRAM {
		t += v
	}
	if d.SSDPer != nil {
		for _, v := range d.SSDPer {
			t += v
		}
	} else {
		t += d.SSDTotal
	}
	return t
}

// Fingerprint hashes the demand into a compact cache-key fragment: two
// demands with equal fingerprints route the same byte budgets (up to hash
// collision), so a placement score computed for one is valid for the other.
// Nil-ness of HBMPeer and SSDPer is part of the fingerprint — it changes
// the network structure (GPU cache nodes, SSD pool aggregator), not just
// edge budgets. DRAM keys are visited in sorted order for stability.
func (d *Demand) Fingerprint() uint64 {
	h := scorecache.NewHasher()
	h.Floats(d.PerGPU)
	h.Uint(nilMark(d.HBMPeer == nil))
	h.Floats(d.HBMPeer)
	keys := make([]string, 0, len(d.DRAM))
	for k := range d.DRAM {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h.Uint(uint64(len(keys)))
	for _, k := range keys {
		h.String(k)
		h.Float(d.DRAM[k])
	}
	h.Float(d.SSDTotal)
	h.Uint(nilMark(d.SSDPer == nil))
	h.Floats(d.SSDPer)
	return h.Sum()
}

func nilMark(isNil bool) uint64 {
	if isNil {
		return 1
	}
	return 0
}

// Network is the built flow network with node bookkeeping.
type Network struct {
	G    *maxflow.Graph
	S, T int

	Machine   *topology.Machine
	Placement *topology.Placement

	GPUNode  []int          // computation node per GPU index
	HBMNode  []int          // peer-serving storage node per GPU index (-1 if absent)
	DRAMNode map[string]int // storage node per socket
	SSDNode  []int          // storage node per SSD index
	PoolNode int            // SSD-tier aggregator (-1 when SSDPer pins budgets)
	APNode   map[string]int // interconnect node per attach point

	demand  *Demand
	bis     *maxflow.TimeBisector
	solvedT float64       // horizon of the last Solve; 0 if unsolved
	obsrv   *obs.Observer // nil = no instrumentation

	// Edge bookkeeping for metrics.
	demandEdge []maxflow.EdgeID            // gpu -> t
	supplyHBM  []maxflow.EdgeID            // s -> hbm_i
	supplyDRAM map[string]maxflow.EdgeID   // s -> dram_k
	supplySSD  []maxflow.EdgeID            // s -> ssd_i (or pool -> ssd_i)
	qpiEdges   []maxflow.EdgeID            // both directions
	linkEdges  map[string][]maxflow.EdgeID // named physical links -> edges
	linkRate   map[string]float64          // named physical links -> per-direction rate sum
}

// Build constructs the augmented communication graph for machine m under
// placement p with demand d. The placement must validate against m.
func Build(m *topology.Machine, p *topology.Placement, d *Demand) (*Network, error) {
	return BuildReuse(m, p, d, nil)
}

// BuildReuse is Build with an arena: when scratch is non-nil its graph,
// bisector, maps, and bookkeeping slices are cleared and rebuilt in place
// instead of reallocated, and scratch itself is returned. The planner's
// scoring loop builds thousands of networks that differ only in placement;
// threading one scratch Network per worker through BuildReuse keeps those
// rebuilds out of the allocator (see maxflow.Graph.Clear and
// TimeBisector.Reinit). Passing nil scratch is exactly Build. On error the
// scratch is left in an unusable, partially-reset state and must not be
// Solved, but may be passed to BuildReuse again.
func BuildReuse(m *topology.Machine, p *topology.Placement, d *Demand, scratch *Network) (*Network, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(m); err != nil {
		return nil, err
	}
	if len(d.PerGPU) != m.NumGPUs {
		return nil, fmt.Errorf("flownet: demand for %d GPUs, machine has %d", len(d.PerGPU), m.NumGPUs)
	}
	if d.HBMPeer != nil && len(d.HBMPeer) != m.NumGPUs {
		return nil, fmt.Errorf("flownet: HBMPeer for %d GPUs, machine has %d", len(d.HBMPeer), m.NumGPUs)
	}
	if d.SSDPer != nil && len(d.SSDPer) != m.NumSSDs {
		return nil, fmt.Errorf("flownet: SSDPer for %d SSDs, machine has %d", len(d.SSDPer), m.NumSSDs)
	}
	supply, dem := d.TotalSupply(), d.TotalDemand()
	if supply < dem-1e-6-1e-9*dem {
		return nil, fmt.Errorf("flownet: storage supply %.0f < GPU demand %.0f", supply, dem)
	}

	n := scratch
	if n == nil {
		n = &Network{
			G:          maxflow.New(0),
			DRAMNode:   map[string]int{},
			APNode:     map[string]int{},
			supplyDRAM: map[string]maxflow.EdgeID{},
			linkEdges:  map[string][]maxflow.EdgeID{},
			linkRate:   map[string]float64{},
		}
	} else {
		n.G.Clear()
		clear(n.DRAMNode)
		clear(n.APNode)
		clear(n.supplyDRAM)
		clear(n.linkEdges)
		clear(n.linkRate)
		n.qpiEdges = n.qpiEdges[:0] // observer (n.obsrv) survives reuse
	}
	n.Machine, n.Placement, n.demand = m, p, d
	n.PoolNode = -1
	n.solvedT = 0
	g := n.G
	n.S = g.AddNode("s")
	n.T = g.AddNode("t")
	if n.bis == nil {
		n.bis = maxflow.NewTimeBisector(g, n.S, n.T, dem)
	} else {
		n.bis.Reinit(g, n.S, n.T, dem)
	}
	bis := n.bis

	// Interconnect nodes.
	for _, pt := range m.Points {
		n.APNode[pt.ID] = g.AddNode(pt.ID)
	}
	// Interconnect links: QPI full mesh between root complexes (two
	// sockets in practice), and switch uplinks; one rate edge per
	// direction, tracked for utilization metrics.
	rcs := m.RootComplexes()
	for i := 0; i < len(rcs); i++ {
		for j := i + 1; j < len(rcs); j++ {
			name := fmt.Sprintf("qpi:%s-%s", rcs[i], rcs[j])
			a, b := n.APNode[rcs[i]], n.APNode[rcs[j]]
			e1 := g.AddEdge(a, b, 0)
			e2 := g.AddEdge(b, a, 0)
			bis.AddRateEdge(e1, float64(m.QPIBW))
			bis.AddRateEdge(e2, float64(m.QPIBW))
			n.qpiEdges = append(n.qpiEdges, e1, e2)
			n.trackLink(name, float64(m.QPIBW), e1, e2)
		}
	}
	for _, pt := range m.Points {
		if pt.Kind != topology.Switch {
			continue
		}
		name := fmt.Sprintf("uplink:%s-%s", pt.Parent, pt.ID)
		up, down := n.APNode[pt.Parent], n.APNode[pt.ID]
		e1 := g.AddEdge(up, down, 0)
		e2 := g.AddEdge(down, up, 0)
		bis.AddRateEdge(e1, float64(pt.UplinkBW))
		bis.AddRateEdge(e2, float64(pt.UplinkBW))
		n.trackLink(name, float64(pt.UplinkBW), e1, e2)
	}

	// Computation nodes and their ingress links.
	n.GPUNode = resize(n.GPUNode, m.NumGPUs)
	n.demandEdge = resize(n.demandEdge, m.NumGPUs)
	for i := 0; i < m.NumGPUs; i++ {
		n.GPUNode[i] = g.AddNode(fmt.Sprintf("gpu%d", i))
		ap := n.APNode[p.GPUAt[i]]
		in := g.AddEdge(ap, n.GPUNode[i], 0)
		bis.AddRateEdge(in, float64(m.PCIeX16))
		n.trackLink(fmt.Sprintf("slot:%s-gpu%d", p.GPUAt[i], i), float64(m.PCIeX16), in)
		de := g.AddEdge(n.GPUNode[i], n.T, 0)
		bis.AddFixedEdge(de, d.PerGPU[i])
		n.demandEdge[i] = de
	}

	// HBM peer-serving storage nodes: egress over the GPU's own x16 link
	// (duplex: independent of its ingress), plus NVLink shortcuts.
	n.HBMNode = resize(n.HBMNode, m.NumGPUs)
	n.supplyHBM = resize(n.supplyHBM, m.NumGPUs)
	for i := range n.HBMNode {
		n.HBMNode[i] = -1
		n.supplyHBM[i] = -1
	}
	if d.HBMPeer != nil {
		for i := 0; i < m.NumGPUs; i++ {
			h := g.AddNode(fmt.Sprintf("hbm%d", i))
			n.HBMNode[i] = h
			se := g.AddEdge(n.S, h, 0)
			bis.AddFixedEdge(se, d.HBMPeer[i])
			n.supplyHBM[i] = se
			out := g.AddEdge(h, n.APNode[p.GPUAt[i]], 0)
			bis.AddRateEdge(out, float64(m.PCIeX16))
			n.trackLink(fmt.Sprintf("p2p-egress:gpu%d", i), float64(m.PCIeX16), out)
		}
		for _, nv := range m.NVLinks {
			// NVLink lets each side's cache feed the other directly.
			e1 := g.AddEdge(n.HBMNode[nv.A], n.GPUNode[nv.B], 0)
			e2 := g.AddEdge(n.HBMNode[nv.B], n.GPUNode[nv.A], 0)
			bis.AddRateEdge(e1, float64(m.NVLinkBW))
			bis.AddRateEdge(e2, float64(m.NVLinkBW))
			n.trackLink(fmt.Sprintf("nvlink:gpu%d-gpu%d", nv.A, nv.B), float64(m.NVLinkBW), e1, e2)
		}
	}

	// DRAM storage nodes (per socket).
	for _, rc := range rcs {
		budget := 0.0
		if d.DRAM != nil {
			budget = d.DRAM[rc]
		}
		dn := g.AddNode("dram:" + rc)
		n.DRAMNode[rc] = dn
		se := g.AddEdge(n.S, dn, 0)
		bis.AddFixedEdge(se, budget)
		n.supplyDRAM[rc] = se
		out := g.AddEdge(dn, n.APNode[rc], 0)
		bis.AddRateEdge(out, float64(m.DRAMBW))
		n.trackLink("dram-egress:"+rc, float64(m.DRAMBW), out)
	}
	if d.DRAM != nil {
		for rc := range d.DRAM {
			if _, ok := n.DRAMNode[rc]; !ok {
				return nil, fmt.Errorf("flownet: DRAM budget for unknown socket %q", rc)
			}
		}
	}

	// SSD storage nodes. Each SSD's service rate is min(device BW, bay
	// link); with a free tier budget an aggregator pool lets max-flow
	// choose the per-SSD split.
	n.SSDNode = resize(n.SSDNode, m.NumSSDs)
	n.supplySSD = resize(n.supplySSD, m.NumSSDs)
	ssdRate := math.Min(float64(m.SSDBW), float64(m.PCIeX4))
	if d.SSDPer == nil && m.NumSSDs > 0 {
		n.PoolNode = g.AddNode("ssdpool")
		bis.AddFixedEdge(g.AddEdge(n.S, n.PoolNode, 0), d.SSDTotal)
	}
	for i := 0; i < m.NumSSDs; i++ {
		sn := g.AddNode(fmt.Sprintf("ssd%d", i))
		n.SSDNode[i] = sn
		if d.SSDPer != nil {
			se := g.AddEdge(n.S, sn, 0)
			bis.AddFixedEdge(se, d.SSDPer[i])
			n.supplySSD[i] = se
		} else {
			se := g.AddEdge(n.PoolNode, sn, 0)
			bis.AddRateEdge(se, maxflow.Inf)
			n.supplySSD[i] = se
		}
		out := g.AddEdge(sn, n.APNode[p.SSDAt[i]], 0)
		bis.AddRateEdge(out, ssdRate)
		n.trackLink(fmt.Sprintf("bay:%s-ssd%d", p.SSDAt[i], i), ssdRate, out)
	}
	return n, nil
}

// resize returns s truncated or regrown to length n, reusing the backing
// array when it is large enough — the slice half of the BuildReuse arena.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

func (n *Network) trackLink(name string, rate float64, edges ...maxflow.EdgeID) {
	n.linkEdges[name] = append(n.linkEdges[name], edges...)
	n.linkRate[name] += rate * float64(len(edges))
}

// Check, when non-nil, audits every solved network before Solve returns
// (flow certificate, supply/utilization invariants). It is installed by
// internal/verify when self-verification is enabled; declared here rather
// than imported so flownet does not depend on the verification subsystem.
var Check func(*Network) error

// Solve runs the minimum-horizon search and returns the minimum time to
// deliver all per-GPU demand. The flow for that horizon stays on the graph
// for the metric accessors below.
func (n *Network) Solve() (units.Duration, error) {
	return n.SolveTol(1e-4)
}

// SetObserver attaches an observer so each Solve reports solver work
// (augmenting paths, Newton steps and probes, wall time). Nil detaches.
func (n *Network) SetObserver(o *obs.Observer) { n.obsrv = o }

// SetContext attaches a cancellation context to subsequent Solves: an
// abandoned caller (e.g. a disconnected planning request) stops the
// search at the next probe instead of running it to completion. Nil
// detaches; BuildReuse detaches automatically (via TimeBisector.Reinit), so
// a recycled scratch network never inherits a stale context.
func (n *Network) SetContext(ctx context.Context) { n.bis.Ctx = ctx }

// SolveTol is Solve with an explicit relative tolerance: the answer is a
// feasible horizon at most (1+tol) times the exact minimum.
func (n *Network) SolveTol(tol float64) (units.Duration, error) {
	o := n.obsrv
	var before maxflow.SolveStats
	var warmS int
	var wall time.Time
	if o != nil {
		before = n.G.Stats()
		warmS = n.bis.WarmStarts
		wall = time.Now()
	}
	t, err := n.bis.MinTime(tol)
	if o != nil {
		after := n.G.Stats()
		o.Counter("maxflow_solves_total").Add(float64(after.Solves - before.Solves))
		o.Counter("maxflow_augmenting_paths_total").Add(float64(after.AugmentingPaths - before.AugmentingPaths))
		// WarmStarts is cumulative on the bisector, so report the delta.
		o.Counter("maxflow_warm_starts_total").Add(float64(n.bis.WarmStarts - warmS))
		o.Histogram("maxflow_bisection_iterations").Observe(float64(n.bis.Iterations))
		o.Histogram("maxflow_bisection_probes").Observe(float64(n.bis.Probes))
		o.Histogram("flownet_solve_seconds").Observe(time.Since(wall).Seconds())
	}
	if err != nil {
		if o != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			o.Counter("flownet_infeasible_total").Inc()
		}
		return 0, fmt.Errorf("flownet: %s/%s: %w", n.Machine.Name, n.Placement.Name, err)
	}
	n.solvedT = t
	if Check != nil {
		if err := Check(n); err != nil {
			return 0, fmt.Errorf("flownet: %s/%s: self-check failed: %w",
				n.Machine.Name, n.Placement.Name, err)
		}
	}
	return units.Seconds(t), nil
}

// SolveCounters reports the solver work of the most recent solve: Probes
// (max-flow solves) and Iterations (Newton steps) cover that solve alone
// (the bisector resets them per MinTime), while WarmStarts accumulates
// across the network's lifetime. warmAborts is always 0: every solve
// starts cold and only raises capacities, so no warm continuation is ever
// abandoned. It remains for callers that still read four counters.
func (n *Network) SolveCounters() (probes, iterations, warmStarts, warmAborts int) {
	return n.bis.Probes, n.bis.Iterations, n.bis.WarmStarts, 0
}

// Demand returns the demand the network was built for.
func (n *Network) Demand() *Demand { return n.demand }

// SolvedHorizon returns the horizon (seconds) of the last successful Solve,
// or 0 if the network is unsolved.
func (n *Network) SolvedHorizon() float64 { return n.solvedT }

// Throughput returns aggregate delivered bytes/second at the solved horizon.
func (n *Network) Throughput() (units.Bandwidth, error) {
	if n.solvedT == 0 {
		if _, err := n.Solve(); err != nil {
			return 0, err
		}
	}
	if n.solvedT == 0 {
		return units.Bandwidth(math.Inf(1)), nil
	}
	return units.Bandwidth(n.demand.TotalDemand() / n.solvedT), nil
}

// PerGPUInletBW returns each GPU's average inlet bandwidth at the solved
// horizon (§4.3 reports 15.61 GB/s for Moment vs 10.92 GB/s for layout (c)).
func (n *Network) PerGPUInletBW() ([]units.Bandwidth, error) {
	if n.solvedT == 0 {
		if _, err := n.Solve(); err != nil {
			return nil, err
		}
	}
	out := make([]units.Bandwidth, len(n.demandEdge))
	for i, e := range n.demandEdge {
		if n.solvedT > 0 {
			out[i] = units.Bandwidth(n.G.Flow(e) / n.solvedT)
		}
	}
	return out, nil
}

// QPIBytes returns the total bytes crossing the socket interconnect in the
// solved flow (Fig 17's contention metric).
func (n *Network) QPIBytes() (float64, error) {
	if n.solvedT == 0 {
		if _, err := n.Solve(); err != nil {
			return 0, err
		}
	}
	total := 0.0
	for _, e := range n.qpiEdges {
		total += n.G.Flow(e)
	}
	return total, nil
}

// BinTraffic reports the bytes served by each storage bin in the solved
// flow: per-GPU HBM peer service, per-socket DRAM, per-SSD. These are the
// Bin_traffic inputs of the DDAK priority formula (§3.3 Eq. 2).
type BinTraffic struct {
	HBMPeer []float64
	DRAM    map[string]float64
	SSD     []float64
}

// Traffic extracts per-bin served bytes from the solved flow.
func (n *Network) Traffic() (*BinTraffic, error) {
	if n.solvedT == 0 {
		if _, err := n.Solve(); err != nil {
			return nil, err
		}
	}
	bt := &BinTraffic{
		HBMPeer: make([]float64, len(n.supplyHBM)),
		DRAM:    map[string]float64{},
		SSD:     make([]float64, len(n.supplySSD)),
	}
	for i, e := range n.supplyHBM {
		if e >= 0 {
			bt.HBMPeer[i] = n.G.Flow(e)
		}
	}
	for rc, e := range n.supplyDRAM {
		bt.DRAM[rc] = n.G.Flow(e)
	}
	for i, e := range n.supplySSD {
		bt.SSD[i] = n.G.Flow(e)
	}
	return bt, nil
}

// LinkUtilization returns, per named physical link, the fraction of its
// byte-capacity (rate × horizon, summed over directions) used by the solved
// flow. Values near 1.0 identify the bottlenecks the paper narrates (Bus 9,
// Bus 16, QPI).
func (n *Network) LinkUtilization() (map[string]float64, error) {
	if n.solvedT == 0 {
		if _, err := n.Solve(); err != nil {
			return nil, err
		}
	}
	out := make(map[string]float64, len(n.linkEdges))
	for name, edges := range n.linkEdges {
		used := 0.0
		for _, e := range edges {
			used += n.G.Flow(e)
		}
		capBytes := n.linkRate[name] * n.solvedT
		if math.IsInf(capBytes, 1) || capBytes == 0 {
			out[name] = 0
			continue
		}
		out[name] = used / capBytes
	}
	return out, nil
}
