// Cluster construction: the multi-node extension of the §3.2 communication
// graph. Every node's PCIe tree is instantiated as a full single-machine
// subgraph (same node classes, name-prefixed), and the inter-server network
// joins them as capacity-bounded units — NIC→leaf→spine→leaf→NIC — so one
// minimum-horizon solve prices intra-PCIe and cross-node traffic together
// instead of composing two models.
//
// Cross-node traffic is kept truthful with a portal formulation instead of
// flow lower bounds: each node's per-epoch import bytes are a fixed-budget
// sink (the "import portal") reachable ONLY through that node's NIC
// ingress, and its export bytes are a fixed-budget source that can only
// leave through the NIC egress. Because imports cannot be served by local
// storage, exactly the configured byte volume crosses the network at every
// feasible horizon; the solver is left to choose routes, not volumes.
//
// Two NIC attachments are supported (cluster.Config.NICOnGPUSocket):
//
//   - Detached (the analytical model's documented simplification): the NIC
//     hangs off the socket opposite the GPUs and its traffic never contends
//     with the fabric. Export supply feeds the NIC egress directly, and the
//     per-node subgraph carries the full local-equivalent load (each node's
//     SSDs serve their shard to local GPUs and, symmetrically, the same
//     volume on behalf of remote peers).
//   - On the GPU socket: the NIC becomes a fabric citizen. Export bytes
//     enter at the node's storage devices, traverse bay links and the
//     PCIe/QPI fabric to the NIC's attach point, and cross its x16 slot
//     before reaching the wire — contending with local traffic on every
//     shared link. The node's own SSD budget and GPU demand are reduced by
//     the exported/imported volume so total storage service stays physical.
//     (Ingress-side fabric delivery of imports remains uncharged: pricing
//     it would let local supply impersonate imports. DESIGN.md §15.)
package flownet

import (
	"fmt"
	"math"

	"moment/internal/maxflow"
	"moment/internal/topology"
	"moment/internal/units"
)

// ClusterDemand carries every node's local byte budgets plus the
// cross-node volumes the network must move.
type ClusterDemand struct {
	// Node is each node's intra-machine demand (see Demand).
	Node []*Demand
	// Import is each node's per-epoch bytes arriving from remote peers —
	// a fixed sink fed only through the node's NIC ingress.
	Import []float64
	// Export is each node's per-epoch bytes served to remote peers — a
	// fixed source that can only leave through the node's NIC egress.
	Export []float64
}

// ClusterOptions selects the NIC attachment model.
type ClusterOptions struct {
	// NICOnGPUSocket models NIC↔PCIe contention: the NIC joins the fabric
	// at ClusterSpec.NICAt (default: the socket of GPU 0) and export
	// traffic traverses storage bays, the fabric, and the NIC's x16 slot.
	NICOnGPUSocket bool
}

// ClusterEdge is one constructed edge, for golden tests and debugging.
type ClusterEdge struct {
	From, To string
	Kind     string  // "rate" or "fixed"
	Value    float64 // bytes/second for rate edges, bytes for fixed edges
}

// ClusterNetwork is the built multi-node flow network.
type ClusterNetwork struct {
	G    *maxflow.Graph
	S, T int

	Machine   *topology.Machine
	Placement *topology.Placement
	Spec      topology.ClusterSpec

	bis     *maxflow.TimeBisector
	demand  *ClusterDemand
	solvedT float64

	nicOutEdge [][]maxflow.EdgeID // per node, per NIC: egress into the leaf
	nicInEdge  [][]maxflow.EdgeID // per node, per NIC: ingress from the leaf
	importEdge []maxflow.EdgeID   // per node: import portal -> t
	exportEdge []maxflow.EdgeID   // per node: s -> export source
	leafUp     []maxflow.EdgeID   // per leaf: leaf -> spine
	leafDown   []maxflow.EdgeID   // per leaf: spine -> leaf
	netRate    map[maxflow.EdgeID]float64

	edges []ClusterEdge
}

// addEdge adds a rate or fixed edge with golden bookkeeping.
func (cn *ClusterNetwork) addRate(g *maxflow.Graph, from, to int, rate float64) maxflow.EdgeID {
	e := g.AddEdge(from, to, 0)
	cn.bis.AddRateEdge(e, rate)
	cn.edges = append(cn.edges, ClusterEdge{g.Label(from), g.Label(to), "rate", rate})
	return e
}

func (cn *ClusterNetwork) addFixed(g *maxflow.Graph, from, to int, bytes float64) maxflow.EdgeID {
	e := g.AddEdge(from, to, 0)
	cn.bis.AddFixedEdge(e, bytes)
	cn.edges = append(cn.edges, ClusterEdge{g.Label(from), g.Label(to), "fixed", bytes})
	return e
}

// BuildCluster constructs the multi-node communication graph: spec.Nodes
// copies of machine m under placement p (homogeneous cluster), joined by
// the spec's NIC/leaf/spine hierarchy, routing demand d.
func BuildCluster(m *topology.Machine, p *topology.Placement, spec topology.ClusterSpec, d *ClusterDemand, opts ClusterOptions) (*ClusterNetwork, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(m); err != nil {
		return nil, err
	}
	spec = spec.Defaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(d.Node) != spec.Nodes || len(d.Import) != spec.Nodes || len(d.Export) != spec.Nodes {
		return nil, fmt.Errorf("flownet: cluster demand for %d/%d/%d nodes, spec has %d",
			len(d.Node), len(d.Import), len(d.Export), spec.Nodes)
	}
	totalDemand := 0.0
	imports, exports := 0.0, 0.0
	for j, nd := range d.Node {
		if nd == nil {
			return nil, fmt.Errorf("flownet: nil demand for node %d", j)
		}
		if len(nd.PerGPU) != m.NumGPUs {
			return nil, fmt.Errorf("flownet: node %d demand for %d GPUs, machine has %d", j, len(nd.PerGPU), m.NumGPUs)
		}
		if nd.HBMPeer != nil && len(nd.HBMPeer) != m.NumGPUs {
			return nil, fmt.Errorf("flownet: node %d HBMPeer for %d GPUs, machine has %d", j, len(nd.HBMPeer), m.NumGPUs)
		}
		if nd.SSDPer != nil && len(nd.SSDPer) != m.NumSSDs {
			return nil, fmt.Errorf("flownet: node %d SSDPer for %d SSDs, machine has %d", j, len(nd.SSDPer), m.NumSSDs)
		}
		supply, dem := nd.TotalSupply(), nd.TotalDemand()
		if supply < dem-1e-6-1e-9*dem {
			return nil, fmt.Errorf("flownet: node %d storage supply %.0f < GPU demand %.0f", j, supply, dem)
		}
		if d.Import[j] < 0 || d.Export[j] < 0 {
			return nil, fmt.Errorf("flownet: node %d negative import/export", j)
		}
		totalDemand += dem + d.Import[j]
		imports += d.Import[j]
		exports += d.Export[j]
	}
	if exports < imports-1e-6-1e-9*imports {
		return nil, fmt.Errorf("flownet: cluster exports %.0f < imports %.0f", exports, imports)
	}
	nicAt := spec.NICAt
	if opts.NICOnGPUSocket {
		if nicAt == "" {
			if m.NumGPUs > 0 {
				sock, err := m.Socket(p.GPUAt[0])
				if err != nil {
					return nil, err
				}
				nicAt = sock
			} else {
				nicAt = m.RootComplexes()[0]
			}
		}
		if _, err := m.Point(nicAt); err != nil {
			return nil, fmt.Errorf("flownet: cluster NIC attach point: %w", err)
		}
	}

	cn := &ClusterNetwork{
		G:         maxflow.New(0),
		Machine:   m,
		Placement: p,
		Spec:      spec,
		demand:    d,
		netRate:   map[maxflow.EdgeID]float64{},
	}
	g := cn.G
	cn.S = g.AddNode("s")
	cn.T = g.AddNode("t")
	cn.bis = maxflow.NewTimeBisector(g, cn.S, cn.T, totalDemand)

	// The shared core: leaves split into an up and a down stage so every
	// inter-node byte crosses the spine (see topology.ClusterSpec).
	uplink := float64(spec.LeafUplinkBW)
	if spec.NonBlocking() {
		uplink = maxflow.Inf
	}
	spine := g.AddNode("spine")
	leafUpN := make([]int, spec.Leaves)
	leafDownN := make([]int, spec.Leaves)
	cn.leafUp = make([]maxflow.EdgeID, spec.Leaves)
	cn.leafDown = make([]maxflow.EdgeID, spec.Leaves)
	for l := 0; l < spec.Leaves; l++ {
		leafUpN[l] = g.AddNode(fmt.Sprintf("leaf%d:up", l))
		leafDownN[l] = g.AddNode(fmt.Sprintf("leaf%d:down", l))
		cn.leafUp[l] = cn.addRate(g, leafUpN[l], spine, uplink)
		cn.leafDown[l] = cn.addRate(g, spine, leafDownN[l], uplink)
		cn.netRate[cn.leafUp[l]] = uplink
		cn.netRate[cn.leafDown[l]] = uplink
	}

	cn.nicOutEdge = make([][]maxflow.EdgeID, spec.Nodes)
	cn.nicInEdge = make([][]maxflow.EdgeID, spec.Nodes)
	cn.importEdge = make([]maxflow.EdgeID, spec.Nodes)
	cn.exportEdge = make([]maxflow.EdgeID, spec.Nodes)

	for j := 0; j < spec.Nodes; j++ {
		prefix := fmt.Sprintf("n%d/", j)
		sub, err := cn.addNodeSub(m, p, d.Node[j], prefix)
		if err != nil {
			return nil, err
		}
		leaf := spec.LeafOf(j)

		// Export source and import portal.
		expN := g.AddNode(prefix + "export")
		impN := g.AddNode(prefix + "import")
		cn.exportEdge[j] = cn.addFixed(g, cn.S, expN, d.Export[j])
		cn.importEdge[j] = cn.addFixed(g, impN, cn.T, d.Import[j])

		if opts.NICOnGPUSocket {
			// Export bytes start at the node's storage devices and cross
			// the fabric to the NIC's attach point.
			entries := sub.ssdNodes
			if len(entries) == 0 {
				entries = sub.dramNodes
			}
			for _, dev := range entries {
				cn.addRate(g, expN, dev, maxflow.Inf)
			}
		}
		for k := 0; k < spec.NICsPerNode; k++ {
			outN := g.AddNode(fmt.Sprintf("%snic%d:out", prefix, k))
			inN := g.AddNode(fmt.Sprintf("%snic%d:in", prefix, k))
			if opts.NICOnGPUSocket {
				// The NIC's own x16 slot, shared with nothing but sized
				// like any device link.
				cn.addRate(g, sub.apNode[nicAt], outN, float64(m.PCIeX16))
			} else {
				cn.addRate(g, expN, outN, maxflow.Inf)
			}
			oe := cn.addRate(g, outN, leafUpN[leaf], float64(spec.NICBW))
			ie := cn.addRate(g, leafDownN[leaf], inN, float64(spec.NICBW))
			cn.addRate(g, inN, impN, maxflow.Inf)
			cn.nicOutEdge[j] = append(cn.nicOutEdge[j], oe)
			cn.nicInEdge[j] = append(cn.nicInEdge[j], ie)
			cn.netRate[oe] = float64(spec.NICBW)
			cn.netRate[ie] = float64(spec.NICBW)
		}
	}
	return cn, nil
}

// nodeSub is the bookkeeping of one node's subgraph.
type nodeSub struct {
	apNode    map[string]int
	ssdNodes  []int
	dramNodes []int
}

// addNodeSub instantiates one node's single-machine subgraph under a name
// prefix — the same node classes and links Build constructs, sharing the
// cluster's source, sink, and bisector.
func (cn *ClusterNetwork) addNodeSub(m *topology.Machine, p *topology.Placement, d *Demand, prefix string) (*nodeSub, error) {
	g := cn.G
	sub := &nodeSub{apNode: make(map[string]int, len(m.Points))}

	for _, pt := range m.Points {
		sub.apNode[pt.ID] = g.AddNode(prefix + pt.ID)
	}
	rcs := m.RootComplexes()
	for i := 0; i < len(rcs); i++ {
		for j := i + 1; j < len(rcs); j++ {
			a, b := sub.apNode[rcs[i]], sub.apNode[rcs[j]]
			cn.addRate(g, a, b, float64(m.QPIBW))
			cn.addRate(g, b, a, float64(m.QPIBW))
		}
	}
	for _, pt := range m.Points {
		if pt.Kind != topology.Switch {
			continue
		}
		up, down := sub.apNode[pt.Parent], sub.apNode[pt.ID]
		cn.addRate(g, up, down, float64(pt.UplinkBW))
		cn.addRate(g, down, up, float64(pt.UplinkBW))
	}

	gpuNode := make([]int, m.NumGPUs)
	for i := 0; i < m.NumGPUs; i++ {
		gpuNode[i] = g.AddNode(fmt.Sprintf("%sgpu%d", prefix, i))
		cn.addRate(g, sub.apNode[p.GPUAt[i]], gpuNode[i], float64(m.PCIeX16))
		cn.addFixed(g, gpuNode[i], cn.T, d.PerGPU[i])
	}

	if d.HBMPeer != nil {
		hbmNode := make([]int, m.NumGPUs)
		for i := 0; i < m.NumGPUs; i++ {
			hbmNode[i] = g.AddNode(fmt.Sprintf("%shbm%d", prefix, i))
			cn.addFixed(g, cn.S, hbmNode[i], d.HBMPeer[i])
			cn.addRate(g, hbmNode[i], sub.apNode[p.GPUAt[i]], float64(m.PCIeX16))
		}
		for _, nv := range m.NVLinks {
			cn.addRate(g, hbmNode[nv.A], gpuNode[nv.B], float64(m.NVLinkBW))
			cn.addRate(g, hbmNode[nv.B], gpuNode[nv.A], float64(m.NVLinkBW))
		}
	}

	for _, rc := range rcs {
		budget := 0.0
		if d.DRAM != nil {
			budget = d.DRAM[rc]
		}
		dn := g.AddNode(prefix + "dram:" + rc)
		sub.dramNodes = append(sub.dramNodes, dn)
		cn.addFixed(g, cn.S, dn, budget)
		cn.addRate(g, dn, sub.apNode[rc], float64(m.DRAMBW))
	}
	if d.DRAM != nil {
		for rc := range d.DRAM {
			if _, ok := sub.apNode[rc]; !ok {
				return nil, fmt.Errorf("flownet: DRAM budget for unknown socket %q", rc)
			}
		}
	}

	ssdRate := math.Min(float64(m.SSDBW), float64(m.PCIeX4))
	pool := -1
	if d.SSDPer == nil && m.NumSSDs > 0 {
		pool = g.AddNode(prefix + "ssdpool")
		cn.addFixed(g, cn.S, pool, d.SSDTotal)
	}
	for i := 0; i < m.NumSSDs; i++ {
		sn := g.AddNode(fmt.Sprintf("%sssd%d", prefix, i))
		sub.ssdNodes = append(sub.ssdNodes, sn)
		if d.SSDPer != nil {
			cn.addFixed(g, cn.S, sn, d.SSDPer[i])
		} else {
			cn.addRate(g, pool, sn, maxflow.Inf)
		}
		cn.addRate(g, sn, sub.apNode[p.SSDAt[i]], ssdRate)
	}
	return sub, nil
}

// Solve runs the minimum-horizon search over the whole cluster and returns
// the minimum horizon that routes every local demand and every import.
func (cn *ClusterNetwork) Solve() (units.Duration, error) { return cn.SolveTol(1e-4) }

// SolveTol is Solve with an explicit relative tolerance (see
// Network.SolveTol).
func (cn *ClusterNetwork) SolveTol(tol float64) (units.Duration, error) {
	t, err := cn.bis.MinTime(tol)
	if err != nil {
		return 0, fmt.Errorf("flownet: cluster %s/%s: %w", cn.Machine.Name, cn.Placement.Name, err)
	}
	cn.solvedT = t
	return units.Seconds(t), nil
}

// SolvedHorizon returns the horizon (seconds) of the last successful
// Solve, or 0 if the network is unsolved.
func (cn *ClusterNetwork) SolvedHorizon() float64 { return cn.solvedT }

// NetworkTime returns the network stage's standalone critical path: the
// busiest inter-server link's solved bytes divided by its rate. It is the
// cluster analogue of the analytical model's NIC stage — equal to
// remote bytes / NIC bandwidth on a non-blocking core — and reflects
// spine oversubscription when uplinks bind.
func (cn *ClusterNetwork) NetworkTime() (units.Duration, error) {
	if cn.solvedT == 0 {
		if _, err := cn.Solve(); err != nil {
			return 0, err
		}
	}
	worst := 0.0
	for e, rate := range cn.netRate {
		if math.IsInf(rate, 1) || rate <= 0 {
			continue
		}
		if t := cn.G.Flow(e) / rate; t > worst {
			worst = t
		}
	}
	return units.Seconds(worst), nil
}

// NICBytes returns each node's solved egress and ingress wire bytes.
func (cn *ClusterNetwork) NICBytes() (egress, ingress []float64, err error) {
	if cn.solvedT == 0 {
		if _, err := cn.Solve(); err != nil {
			return nil, nil, err
		}
	}
	egress = make([]float64, cn.Spec.Nodes)
	ingress = make([]float64, cn.Spec.Nodes)
	for j := range egress {
		for _, e := range cn.nicOutEdge[j] {
			egress[j] += cn.G.Flow(e)
		}
		for _, e := range cn.nicInEdge[j] {
			ingress[j] += cn.G.Flow(e)
		}
	}
	return egress, ingress, nil
}

// SpineBytes returns the solved bytes crossing the spine.
func (cn *ClusterNetwork) SpineBytes() (float64, error) {
	if cn.solvedT == 0 {
		if _, err := cn.Solve(); err != nil {
			return 0, err
		}
	}
	total := 0.0
	for _, e := range cn.leafUp {
		total += cn.G.Flow(e)
	}
	return total, nil
}

// EdgeList returns every constructed edge in deterministic construction
// order — the golden-test surface for hierarchical topology construction.
func (cn *ClusterNetwork) EdgeList() []ClusterEdge {
	out := make([]ClusterEdge, len(cn.edges))
	copy(out, cn.edges)
	return out
}
