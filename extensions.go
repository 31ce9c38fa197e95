package moment

// Facade for the §5 extensions: multi-node generalization (cluster) and
// adaptive placement for dynamic workloads (adaptive).

import (
	"io"

	"moment/internal/adaptive"
	"moment/internal/cluster"
	"moment/internal/ddak"
	"moment/internal/flownet"
	"moment/internal/graph"
	"moment/internal/partition"
	"moment/internal/topology"
	"moment/internal/trainsim"
	"moment/internal/units"
)

// Multi-node generalization (§5 "Generalization to Multi-node").
type (
	// ClusterConfig describes a homogeneous multi-node deployment.
	ClusterConfig = cluster.Config
	// ClusterResult is one simulated cluster epoch.
	ClusterResult = cluster.Result
	// ClusterSpec describes the inter-server fabric: node count, NICs per
	// node, NIC bandwidth, leaf/spine shape and oversubscription.
	ClusterSpec = topology.ClusterSpec
	// ClusterDemand is the per-node flow demand plus import/export volumes.
	ClusterDemand = flownet.ClusterDemand
	// ClusterNetwork is the solved whole-cluster flow network.
	ClusterNetwork = flownet.ClusterNetwork
	// ClusterBuildOptions tunes cluster flow-graph construction (e.g. the
	// NIC-on-GPU-socket knob).
	ClusterBuildOptions = flownet.ClusterOptions
)

// BuildClusterNetwork constructs the hierarchical flow network pricing
// intra-PCIe and cross-node traffic in one max-flow solve: per-node
// replicas of the single-machine fabric joined through NIC → leaf →
// spine units.
func BuildClusterNetwork(m *Machine, p *Placement, spec ClusterSpec, d *ClusterDemand, opts ClusterBuildOptions) (*ClusterNetwork, error) {
	return flownet.BuildCluster(m, p, spec, d, opts)
}

// ParseDeployment reads a machine spec file that also carries a `cluster`
// line, returning the per-node machine and the inter-server fabric.
func ParseDeployment(r io.Reader) (*Machine, *ClusterSpec, error) {
	return topology.ParseClusterFile(r)
}

// Cross-node partition scoring (CAGNET layouts) for the cold tail.
type (
	// PartitionSpec selects a CAGNET layout (1D, 1.5D, 2D) over N nodes.
	PartitionSpec = partition.Spec
	// PartitionLayout is the CAGNET layout family.
	PartitionLayout = partition.Layout
	// PartitionVolume is the scored per-epoch communication volume.
	PartitionVolume = partition.Volume
)

// CAGNET layout families for PartitionSpec.
const (
	Partition1D  = partition.Layout1D
	Partition15D = partition.Layout15D
	Partition2D  = partition.Layout2D
)

// ParsePartitionSpec parses the CLI partition grammar ("1d", "1.5d:2",
// "2d", each optionally suffixed "/hash") against a node count.
func ParsePartitionSpec(text string, nodes int) (PartitionSpec, error) {
	return partition.ParseSpec(text, nodes)
}

// ScorePartition computes the exact per-epoch mirror/reduce communication
// volume of a CAGNET layout over a graph.
func ScorePartition(g *graph.Graph, spec PartitionSpec) (PartitionVolume, error) {
	return partition.Score(g, spec)
}

// PartitionRemoteFraction is the fraction of neighbor-feature reads that
// cross the network under a partition — the cluster planner's crossFrac.
func PartitionRemoteFraction(g *graph.Graph, spec PartitionSpec) (float64, error) {
	return partition.RemoteFraction(g, spec)
}

// ReplicationPlan is the replication-axis split of the cold tail: hot head
// pinned into every node, remainder partitioned.
type ReplicationPlan = ddak.ReplicationPlan

// PlanReplication splits items at replication factor r across nodes with
// the given cross-node read fraction for the partitioned tail.
func PlanReplication(items []PlacedItem, r float64, nodes int, crossFrac float64) (ReplicationPlan, error) {
	return ddak.PlanReplication(items, r, nodes, crossFrac)
}

// SimulateCluster runs one epoch of a data-parallel job across a cluster
// of Moment machines: hot data replicated per node, cold data partitioned,
// NICs modeled as full-duplex links into a non-blocking core.
func SimulateCluster(cfg ClusterConfig) (*ClusterResult, error) { return cluster.Simulate(cfg) }

// ClusterSweep simulates the job at every cluster size in nodes.
func ClusterSweep(cfg ClusterConfig, nodes []int) ([]*ClusterResult, error) {
	return cluster.Sweep(cfg, nodes)
}

// Adaptive placement (§5 "Limitations": online profiling + re-placement).
type (
	// AccessMonitor is the lightweight online profiler (decayed counters).
	AccessMonitor = adaptive.Monitor
	// Replanner re-runs DDAK when the live access distribution drifts.
	Replanner = adaptive.Replanner
	// Migration reports one adaptive re-placement.
	Migration = adaptive.Migration
	// StorageBin is a DDAK placement target (capacity + traffic budget).
	StorageBin = ddak.Bin
	// PlacedItem is one DDAK placement unit (hotness + size).
	PlacedItem = ddak.Item
	// ItemAssignment is a DDAK layout over items and bins.
	ItemAssignment = ddak.ItemAssignment
)

// Storage tiers for StorageBin.
const (
	TierGPU = ddak.TierGPU
	TierCPU = ddak.TierCPU
	TierSSD = ddak.TierSSD
)

// NewAccessMonitor tracks n items with the given half-life in batches.
func NewAccessMonitor(n int, halfLifeBatches float64) (*AccessMonitor, error) {
	return adaptive.NewMonitor(n, halfLifeBatches)
}

// NewReplanner plans an initial DDAK layout and re-places when the
// observed distribution drifts beyond threshold (total-variation).
func NewReplanner(hot, itemBytes []float64, bins []StorageBin, poolN int, trafficScale, threshold float64) (*Replanner, error) {
	return adaptive.NewReplanner(hot, itemBytes, bins, poolN, trafficScale, threshold)
}

// DriftTV is the total-variation distance between two access distributions.
func DriftTV(a, b []float64) (float64, error) { return adaptive.TV(a, b) }

// LayoutHitRate is the fast-tier (GPU+CPU) hit fraction of a layout under
// an access distribution.
func LayoutHitRate(a *ddak.ItemAssignment, hot []float64) (float64, error) {
	return adaptive.HitRate(a, hot)
}

// Drift detection and incremental re-placement (the closed adaptive loop:
// monitor → detector → delta DDAK re-solve, with a from-scratch oracle for
// differential evaluation).
type (
	// DriftDetector trips on sustained distribution drift (total-variation
	// plus top-k rank displacement, with hysteresis and cooldown).
	DriftDetector = adaptive.DriftDetector
	// DriftSignal is one detector reading.
	DriftSignal = adaptive.DriftSignal
	// DeltaOptions bounds an incremental DDAK re-solve.
	DeltaOptions = ddak.DeltaOptions
	// DeltaResult is an incremental re-solve with its migration bill.
	DeltaResult = ddak.DeltaResult
	// DriftSchedule is a seeded workload-drift process for simulation.
	DriftSchedule = trainsim.DriftSchedule
	// DriftKind selects the perturbation a DriftSchedule applies.
	DriftKind = trainsim.DriftKind
	// DriftOptions configures a long-horizon drift simulation.
	DriftOptions = trainsim.DriftOptions
	// DriftReport summarizes one adaptive or oracle drift run.
	DriftReport = trainsim.DriftReport
)

// Drift perturbation kinds for DriftSchedule.
const (
	DriftNone      = trainsim.DriftNone
	DriftRotate    = trainsim.DriftRotate
	DriftFlip      = trainsim.DriftFlip
	DriftOscillate = trainsim.DriftOscillate
	DriftShuffle   = trainsim.DriftShuffle
)

// PlaceItems runs the full DDAK traffic-capped pooled greedy over items
// and bins — the from-scratch solve that seeds an adaptive loop before
// PlaceItemsDelta takes over.
func PlaceItems(items []PlacedItem, bins []StorageBin, poolN int, trafficScale float64) (*ItemAssignment, error) {
	return ddak.PlaceItems(items, bins, poolN, trafficScale)
}

// PlaceItemsDelta re-solves a DDAK layout incrementally from a previous
// assignment: unchanged items keep their bins, evictions are repaired and
// profitable promotions applied under opt.MaxMoveFrac, falling back to a
// full solve when the budget cannot absorb the drift.
func PlaceItemsDelta(prevItems []PlacedItem, prev *ItemAssignment, items []PlacedItem, bins []StorageBin, poolN int, trafficScale float64, opt DeltaOptions) (*DeltaResult, error) {
	return ddak.PlaceItemsDelta(prevItems, prev, items, bins, poolN, trafficScale, opt)
}

// LayoutTiers flattens an item assignment to a per-item storage tier
// (0 = GPU, 1 = CPU, 2 = SSD) — the form Sampler locality biasing and
// tier-aware schedulers consume.
func LayoutTiers(a *ItemAssignment) ([]uint8, error) { return adaptive.TierOf(a) }

// SimulateDrift runs a long-horizon training simulation whose hotness
// distribution drifts on a seeded schedule, chased either by the closed
// adaptive loop or (opt.Oracle) by from-scratch re-planning at every event.
// cfg.Faults, when set, is replayed over the same horizon.
func SimulateDrift(cfg SimConfig, opt DriftOptions) (*DriftReport, error) {
	return trainsim.SimulateEpochs(cfg, opt)
}

// ParseDriftSpec parses the CLI drift grammar
// "every=100;kind=shuffle;mag=0.2;seed=7" into a schedule.
func ParseDriftSpec(s string) (DriftSchedule, error) { return trainsim.ParseDriftSpec(s) }

// FormatDriftSpec renders a schedule back into the CLI grammar.
func FormatDriftSpec(s DriftSchedule) string { return trainsim.FormatDriftSpec(s) }

// Pipeline introspection.
type (
	// Timeline is the exact per-iteration pipeline schedule of an epoch.
	Timeline = trainsim.Timeline
	// StageTimes is a per-iteration stage cost triple.
	StageTimes = trainsim.StageTimes
)

// EpochTimeline derives the exact software-pipeline schedule of a
// simulated epoch, keeping the first `keep` rounds for rendering.
func EpochTimeline(r *EpochResult, keep int) (*Timeline, error) {
	return trainsim.TimelineOf(r, keep)
}

// Bandwidth and byte helpers for cluster and custom-machine configs.
var (
	// Gbps builds a network bandwidth from decimal gigabits per second.
	Gbps = units.Gbps
	// GiBps builds a bandwidth from GiB per second.
	GiBps = units.GiBps
	// GB builds a byte size from GiB.
	GB = units.GB
	// TB builds a byte size from TiB.
	TB = units.TB
)
