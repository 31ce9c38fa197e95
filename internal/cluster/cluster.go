// Package cluster implements the multi-node generalization the paper
// sketches in §5 ("Generalization to Multi-node"): NICs join the hardware
// units of the topology graph, network links between NICs become edges,
// and Moment's optimization extends across machines by (1) replicating the
// hot head of the access distribution into every node's caches and SSDs —
// "prioritizing local SSD/memory access" — and (2) partitioning the cold
// remainder across the nodes' SSD fleets, so only the partitioned tail
// crosses the network.
//
// Two planners share one workload model. The analytical mode composes the
// single-machine simulation with a closed-form network stage (remote bytes
// over NIC bandwidth, non-blocking core switch). The flow mode (Config.Flow)
// promotes the whole cluster to the flow network: flownet.BuildCluster
// instantiates every node's PCIe tree and the hierarchical NIC→leaf→spine
// fabric in one graph, so a single max-flow horizon prices intra-PCIe and
// cross-node traffic together — and prices what the analytical mode cannot:
// oversubscribed leaf/spine cores and NIC↔PCIe contention
// (Config.NICOnGPUSocket). On a non-blocking core with a detached NIC the
// two modes agree (the differential tests pin this).
//
// Cross-node volume comes from the replication axis (Config.Replication):
// the hot head of the SSD tier is pinned into every node and billed against
// per-node capacity, while tail accesses cross the network with a
// probability that is either the uniform (Nodes-1)/Nodes or a CAGNET
// partition layout's scored mirror fraction (Config.Partition).
package cluster

import (
	"fmt"
	"math"

	"moment/internal/core"
	"moment/internal/ddak"
	"moment/internal/flownet"
	"moment/internal/graph"
	"moment/internal/partition"
	"moment/internal/topology"
	"moment/internal/trainsim"
	"moment/internal/units"
)

// Config describes a homogeneous cluster running one data-parallel job.
type Config struct {
	// Node is the per-node machine (GPUs, SSDs, topology).
	Node *topology.Machine
	// Nodes is the cluster size.
	Nodes int
	// NICBW is each node's full-duplex network bandwidth.
	NICBW units.Bandwidth
	// Workload is the cluster-wide training job.
	Workload trainsim.Workload

	// Placement fixes each node's hardware placement; nil runs the
	// automatic module once and replicates the winner (nodes are
	// homogeneous).
	Placement *topology.Placement
	// ReplicateHot disables/enables the §5 locality optimization: when
	// false, all non-cached data is partitioned and (Nodes-1)/Nodes of
	// every fetch crosses the network (the naive extension).
	// Default true.
	ReplicateHot *bool
	// Sim forwards per-node simulation knobs.
	Sim trainsim.Config

	// Flow selects the flow-based planner: one max-flow solve over the
	// whole cluster graph instead of the analytical network stage.
	Flow bool
	// Cluster optionally describes the full hierarchical network (NIC
	// count, leaves, spine uplinks, NIC attach point). Nil derives a
	// single non-blocking core switch from Nodes/NICBW. Its Nodes and
	// NICBW must agree with the fields above when set.
	Cluster *topology.ClusterSpec
	// Replication is the cross-node data-placement axis: the fraction
	// r ∈ [0,1] of SSD-tier bytes whose hot head is replicated into every
	// node (billed against per-node SSD capacity via the shard fraction
	// r + (1-r)/Nodes). 0 is plain 1/Nodes partitioning. Requires
	// ReplicateHot (the default).
	Replication float64
	// Partition optionally scores the cold tail's cross-node layout: the
	// CAGNET-style spec's mirror fraction on PartitionGraph replaces the
	// uniform (Nodes-1)/Nodes cross-node probability.
	Partition *partition.Spec
	// PartitionGraph is the graph Partition is scored on (required when
	// Partition is set).
	PartitionGraph *graph.Graph
	// NICOnGPUSocket (flow mode only) attaches each node's NIC to the
	// PCIe fabric at the cluster spec's attach point instead of the
	// contention-free detached model, so export traffic fights local
	// traffic on shared links.
	NICOnGPUSocket bool
}

// Result is one simulated cluster epoch.
type Result struct {
	OOM string

	// Mode names the planner that produced the result: "analytical" or
	// "flow".
	Mode string

	EpochTime units.Duration
	// LocalIO is the per-node intra-machine I/O critical path.
	LocalIO units.Duration
	// NICTime is the per-node network stage. Analytical: remote bytes over
	// NIC bandwidth. Flow: the busiest inter-server link's solved time
	// (reflects leaf/spine oversubscription).
	NICTime units.Duration
	// FlowTime (flow mode only) is the joint horizon of the whole-cluster
	// solve: local fabric and network demand priced together.
	FlowTime units.Duration
	// ComputeTime and SampleTime are per-node per-epoch stage totals.
	ComputeTime units.Duration
	SampleTime  units.Duration

	// RemoteFraction is the share of fetched bytes that crossed the
	// network.
	RemoteFraction float64
	// RemoteBytes is the per-node per-epoch wire volume (each direction).
	RemoteBytes float64
	// PerNodeFetch is the feature bytes each node consumed.
	PerNodeFetch float64
	// Throughput is cluster-wide training vertices per second.
	Throughput float64
	// Replication describes the replication-axis split used (nil when the
	// naive no-replication extension ran).
	Replication *ddak.ReplicationPlan
	// Placement is the per-node hardware placement used.
	Placement *topology.Placement
	// Node is the per-node epoch detail.
	Node *trainsim.Result
}

// Simulate runs one cluster epoch.
func Simulate(cfg Config) (*Result, error) {
	if cfg.Node == nil {
		return nil, fmt.Errorf("cluster: nil node machine")
	}
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: non-positive node count")
	}
	if cfg.NICBW <= 0 && cfg.Nodes > 1 {
		return nil, fmt.Errorf("cluster: multi-node cluster needs NIC bandwidth")
	}
	replicateHot := true
	if cfg.ReplicateHot != nil {
		replicateHot = *cfg.ReplicateHot
	}
	if cfg.Replication < 0 || cfg.Replication > 1 || math.IsNaN(cfg.Replication) {
		return nil, fmt.Errorf("cluster: replication factor %v outside [0,1]", cfg.Replication)
	}
	if cfg.Replication > 0 && !replicateHot {
		return nil, fmt.Errorf("cluster: Replication needs ReplicateHot (the naive extension partitions everything)")
	}
	spec, err := clusterSpec(cfg)
	if err != nil {
		return nil, err
	}

	// Cross-node probability for a partitioned-tail access: uniform, or a
	// scored CAGNET layout's mirror fraction.
	crossFrac := float64(cfg.Nodes-1) / float64(cfg.Nodes)
	if cfg.Partition != nil {
		if cfg.PartitionGraph == nil {
			return nil, fmt.Errorf("cluster: Partition set without PartitionGraph")
		}
		if cfg.Partition.Nodes != cfg.Nodes {
			return nil, fmt.Errorf("cluster: partition spec for %d nodes, cluster has %d",
				cfg.Partition.Nodes, cfg.Nodes)
		}
		crossFrac, err = partition.RemoteFraction(cfg.PartitionGraph, *cfg.Partition)
		if err != nil {
			return nil, err
		}
	}

	w := cfg.Workload.Defaults()
	w.NumGPUs = cfg.Node.NumGPUs

	// Per-node epoch share: training vertices split evenly across nodes.
	totalBatches := int(math.Ceil(float64(w.Dataset.TrainVertices()) / float64(w.BatchSize)))
	w.EpochBatches = (totalBatches + cfg.Nodes - 1) / cfg.Nodes

	// Per-node storage bill along the replication axis: the replicated
	// head in full plus a 1/Nodes shard of the tail.
	shardFrac := 1 / float64(cfg.Nodes)
	if replicateHot {
		shardFrac = cfg.Replication + (1-cfg.Replication)/float64(cfg.Nodes)
	}
	shardBytes := float64(w.Dataset.FeatureStorage.Int64()) * shardFrac
	nodeSSD := float64(cfg.Node.SSDCapacity.Int64()) * float64(cfg.Node.NumSSDs)
	if shardBytes > nodeSSD {
		return &Result{OOM: fmt.Sprintf(
			"ssd capacity: %.1f TiB shard (r=%.2f) exceeds %.1f TiB per node",
			shardBytes/(1<<40), cfg.Replication, nodeSSD/(1<<40))}, nil
	}

	// Hardware placement: search once, replicate (homogeneous nodes).
	placement := cfg.Placement
	if placement == nil {
		plan, err := core.CoOptimize(core.Input{Machine: cfg.Node, Workload: w})
		if err != nil {
			return nil, err
		}
		placement = plan.Placement
	}

	// Intra-node epoch: the node behaves like a single machine consuming
	// its batch share; its SSD tier serves the node's own shard locally
	// and, symmetrically, the same byte volume on behalf of remote peers,
	// so local fabric load matches the single-machine simulation.
	simCfg := cfg.Sim
	simCfg.Machine = cfg.Node
	simCfg.Placement = placement
	simCfg.Workload = w
	simCfg.StorageShardFrac = shardFrac
	node, err := trainsim.SimulateEpoch(simCfg)
	if err != nil {
		return nil, err
	}
	if node.OOM != "" {
		return &Result{OOM: node.OOM}, nil
	}

	// Network volume: the SSD-tier tail of the access distribution,
	// minus the replicated head, times the cross-node probability.
	remoteFrac, replPlan, err := remoteTraffic(node, cfg.Replication, cfg.Nodes, crossFrac, replicateHot)
	if err != nil {
		return nil, err
	}
	remoteBytes := node.FetchEpoch * remoteFrac
	if cfg.Nodes == 1 {
		remoteBytes = 0
	}

	res := &Result{
		Mode:           "analytical",
		LocalIO:        node.IOTime,
		ComputeTime:    node.ComputeTime,
		SampleTime:     node.SampleTime,
		RemoteFraction: remoteFrac,
		RemoteBytes:    remoteBytes,
		PerNodeFetch:   node.FetchEpoch,
		Replication:    replPlan,
		Placement:      placement,
		Node:           node,
	}

	iters := math.Max(1, math.Ceil(float64(w.EpochBatches)/float64(cfg.Node.NumGPUs)))
	var epoch float64
	if cfg.Flow {
		res.Mode = "flow"
		netTime, horizon, err := solveFlow(cfg, spec, placement, simCfg, remoteBytes)
		if err != nil {
			return nil, err
		}
		res.NICTime = units.Seconds(netTime)
		res.FlowTime = units.Seconds(horizon)
		// The network overlaps the local pipeline like any other stage;
		// the joint solve bounds the epoch from below when shared links
		// make local I/O and network traffic non-separable.
		pipe1 := pipeline([]float64{node.IOTime.Sec(), netTime, node.ComputeTime.Sec(), node.SampleTime.Sec()}, iters)
		pipe2 := pipeline([]float64{horizon, node.ComputeTime.Sec(), node.SampleTime.Sec()}, iters)
		epoch = math.Max(pipe1, pipe2)
	} else {
		nicTime := 0.0
		if cfg.Nodes > 1 {
			nicTime = remoteBytes / float64(cfg.NICBW)
		}
		res.NICTime = units.Seconds(nicTime)
		epoch = pipeline([]float64{node.IOTime.Sec(), nicTime, node.ComputeTime.Sec(), node.SampleTime.Sec()}, iters)
	}

	res.EpochTime = units.Seconds(epoch)
	if epoch > 0 {
		res.Throughput = float64(w.Dataset.TrainVertices()) / epoch
	}
	return res, nil
}

// clusterSpec resolves the hierarchical network description, deriving a
// non-blocking single-switch core when none is given.
func clusterSpec(cfg Config) (topology.ClusterSpec, error) {
	if cfg.Cluster == nil {
		return topology.ClusterSpec{Nodes: cfg.Nodes, NICBW: cfg.NICBW}, nil
	}
	spec := cfg.Cluster.Defaults()
	if err := spec.Validate(); err != nil {
		return spec, err
	}
	if spec.Nodes != cfg.Nodes {
		return spec, fmt.Errorf("cluster: spec for %d nodes, config has %d", spec.Nodes, cfg.Nodes)
	}
	if cfg.NICBW > 0 && spec.NICBW != cfg.NICBW {
		return spec, fmt.Errorf("cluster: spec NIC %v disagrees with config NIC %v", spec.NICBW, cfg.NICBW)
	}
	return spec, nil
}

// pipeline is the per-node stage-overlap model shared with trainsim: the
// longest stage hides the others except on the fill/drain iterations.
func pipeline(stages []float64, iters float64) float64 {
	stageMax, stageSum := 0.0, 0.0
	for _, s := range stages {
		stageSum += s
		if s > stageMax {
			stageMax = s
		}
	}
	return stageMax + (stageSum-stageMax)/iters
}

// remoteTraffic derives the fraction of fetched bytes that cross the
// network. With ReplicateHot, the cached head (GPU+CPU hits) never leaves
// the node, and the replication axis pins a further hot head of the SSD
// tier into every node; only the remaining tail rolls crossFrac. Without
// it, cache contents are partitioned too and remote peers' requests for
// them also cross the wire (the legacy naive extension).
func remoteTraffic(node *trainsim.Result, r float64, nodes int, crossFrac float64, replicateHot bool) (float64, *ddak.ReplicationPlan, error) {
	if !replicateHot {
		frac := (1 - node.HitGPU/float64(nodes) - node.HitCPU/float64(nodes)) * float64(nodes-1) / float64(nodes)
		return frac, nil, nil
	}
	plan, err := ddak.PlanReplication(tailItems(node), r, nodes, crossFrac)
	if err != nil {
		return 0, nil, err
	}
	return plan.RemoteMass, &plan, nil
}

// tailItems extracts the SSD-tier remainder of the virtual access
// distribution: the cached mass (GPU + CPU hits) is skipped hot-first with
// a fractional boundary bucket, so the tail's total mass is exactly
// 1 - HitGPU - HitCPU and PlanReplication's r=0 endpoint reproduces the
// analytical remote base.
func tailItems(node *trainsim.Result) []ddak.Item {
	cached := node.HitGPU + node.HitCPU
	if node.Stats == nil {
		return nil
	}
	var items []ddak.Item
	acc := 0.0
	for i, h := range node.Stats.VirtualHot {
		b := node.Stats.VirtualBytes[i]
		switch {
		case acc+h <= cached:
			acc += h
		case acc < cached:
			// Boundary bucket: hotness density is uniform inside a
			// virtual bucket, so split bytes with the mass.
			keep := 1 - (cached-acc)/h
			items = append(items, ddak.Item{Hot: h * keep, Bytes: b * keep})
			acc = cached
		default:
			items = append(items, ddak.Item{Hot: h, Bytes: b})
		}
	}
	return items
}

// solveFlow builds and solves the whole-cluster flow network for the
// symmetric data-parallel epoch: every node re-imports its remote bytes
// through its NIC and serves the same volume to its peers. It returns the
// busiest network link's standalone time and the joint solve horizon.
func solveFlow(cfg Config, spec topology.ClusterSpec, placement *topology.Placement, simCfg trainsim.Config, remoteBytes float64) (netTime, horizon float64, err error) {
	demand, _, err := trainsim.PlanDemand(simCfg)
	if err != nil {
		return 0, 0, err
	}
	if cfg.NICOnGPUSocket && remoteBytes > 0 {
		// The fabric-attached NIC delivers imports through the portal
		// (uncharged on the ingress fabric) and drains exports from the
		// local SSD tier, so the node's own demand drops by the imported
		// volume and its storage budget by the exported one — totals stay
		// physical while every export byte fights local traffic on the
		// shared links it crosses.
		adj := *demand
		adj.PerGPU = append([]float64(nil), demand.PerGPU...)
		perGPU := remoteBytes / float64(len(adj.PerGPU))
		for i := range adj.PerGPU {
			adj.PerGPU[i] = math.Max(0, adj.PerGPU[i]-perGPU)
		}
		if adj.SSDPer != nil {
			adj.SSDPer = append([]float64(nil), demand.SSDPer...)
			left := remoteBytes
			for i := range adj.SSDPer {
				take := math.Min(adj.SSDPer[i], left/float64(len(adj.SSDPer)-i))
				adj.SSDPer[i] -= take
				left -= take
			}
		} else {
			adj.SSDTotal = math.Max(0, demand.SSDTotal-remoteBytes)
		}
		demand = &adj
	}
	cd := &flownet.ClusterDemand{
		Node:   make([]*flownet.Demand, spec.Nodes),
		Import: make([]float64, spec.Nodes),
		Export: make([]float64, spec.Nodes),
	}
	for j := 0; j < spec.Nodes; j++ {
		cd.Node[j] = demand
		cd.Import[j] = remoteBytes
		cd.Export[j] = remoteBytes
	}
	cn, err := flownet.BuildCluster(cfg.Node, placement, spec, cd, flownet.ClusterOptions{NICOnGPUSocket: cfg.NICOnGPUSocket})
	if err != nil {
		return 0, 0, err
	}
	h, err := cn.Solve()
	if err != nil {
		return 0, 0, err
	}
	nt, err := cn.NetworkTime()
	if err != nil {
		return 0, 0, err
	}
	return nt.Sec(), h.Sec(), nil
}

// Sweep simulates the cluster at every size in nodes and returns the
// results in order — the scaling study of the §5 extension.
func Sweep(cfg Config, nodes []int) ([]*Result, error) {
	var out []*Result
	for _, n := range nodes {
		c := cfg
		c.Nodes = n
		if c.Cluster != nil && c.Cluster.Nodes != n {
			// Re-derive the core for each size; a pinned spec only fits
			// its own node count.
			c.Cluster = nil
		}
		r, err := Simulate(c)
		if err != nil {
			return nil, fmt.Errorf("cluster: %d nodes: %w", n, err)
		}
		out = append(out, r)
	}
	return out, nil
}
