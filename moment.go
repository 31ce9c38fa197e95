// Package moment is a reproduction of "Moment: Co-optimizing Physical
// Communication Topology and Data Placement for Multi-GPU Out-of-core GNN
// Training" (SC '25): a co-optimizer that, given a multi-GPU multi-SSD
// server's communication topology and a GNN training workload, selects the
// hardware placement (which PCIe slots hold the GPUs and SSDs) by the
// minimum max-flow horizon over the augmented communication graph, and lays
// out vertex embeddings across the GPU/CPU/SSD hierarchy with a
// data-distribution-aware knapsack (DDAK).
//
// Because no GPUs or NVMe drives are assumed, the hardware layer is a
// calibrated simulation substrate (see DESIGN.md for the substitution
// table): a flow-level fabric simulator measures epoch I/O, an NVMe
// queue-pair model prices storage access, and analytic cost models price
// GNN compute. The GNN math itself (GraphSAGE, GAT, sampling, training) is
// implemented for real and runs on scaled-down synthetic datasets.
//
// Quick start:
//
//	plan, err := moment.Optimize(moment.MachineB(), moment.Workload{
//		Dataset: moment.MustDataset("IG"),
//		Model:   moment.GraphSAGE,
//	})
//	fmt.Println(plan.Report())
package moment

import (
	"io"

	"moment/internal/baselines"
	"moment/internal/core"
	"moment/internal/experiments"
	"moment/internal/faults"
	"moment/internal/gnn"
	"moment/internal/graph"
	"moment/internal/placement"
	"moment/internal/scorecache"
	"moment/internal/topology"
	"moment/internal/trainsim"
	"moment/internal/verify"
)

// Core topology types.
type (
	// Machine is a server's communication topology and device inventory.
	Machine = topology.Machine
	// Placement assigns GPUs and SSDs to attach points.
	Placement = topology.Placement
	// AttachPoint is a root complex or PCIe switch with slots.
	AttachPoint = topology.AttachPoint
	// NVLinkPair bridges two GPUs.
	NVLinkPair = topology.NVLinkPair
	// ClassicLayout names the four §2.3 hardware layouts.
	ClassicLayout = topology.ClassicLayout
)

// Workload and simulation types.
type (
	// Workload is a dataset + model training job.
	Workload = trainsim.Workload
	// Dataset carries paper-scale dataset statistics (Table 2).
	Dataset = graph.Dataset
	// SimConfig parameterizes an epoch simulation.
	SimConfig = trainsim.Config
	// EpochResult is one simulated training epoch.
	EpochResult = trainsim.Result
	// Plan is the automatic module's output.
	Plan = core.Plan
	// SearchOptions tunes the placement search.
	SearchOptions = placement.Options
	// ScoreCache memoizes candidate scores across placement searches (set
	// it as SearchOptions.Cache; safe to share between searches).
	ScoreCache = scorecache.Scores
	// Table is a regenerated paper figure or table.
	Table = experiments.Table
)

// NewScoreCache returns a bounded LRU score cache holding up to max
// entries (max <= 0 disables caching).
func NewScoreCache(max int) *ScoreCache { return scorecache.NewScores(max) }

// Fault-injection types (set SimConfig.Faults to degrade an epoch).
type (
	// FaultSchedule is a deterministic, seedable list of hardware fault
	// events (SSD fail-stops, throttles, link downtrains, GPU stragglers,
	// transient error bursts).
	FaultSchedule = faults.Schedule
	// FaultEvent is one scheduled fault.
	FaultEvent = faults.Event
	// RetryPolicy governs retry/backoff/timeout handling under faults.
	RetryPolicy = faults.RetryPolicy
	// FaultReport summarizes how a faulted epoch degraded.
	FaultReport = trainsim.FaultReport
)

// ParseFaultSpec decodes the command-line fault grammar, e.g.
// "seed=7;kill:ssd2@30;throttle:ssd1@10x0.5+20".
func ParseFaultSpec(spec string) (*FaultSchedule, error) { return faults.Parse(spec) }

// FormatFaultSpec renders a schedule back into the spec grammar.
func FormatFaultSpec(s *FaultSchedule) string { return faults.Format(s) }

// Model kinds (§4.1).
const (
	// GraphSAGE is the mean-aggregator model (hidden 256).
	GraphSAGE = gnn.KindSAGE
	// GAT is the attention model (hidden 64, 8 heads).
	GAT = gnn.KindGAT
	// GCN is the graph convolutional model (§3.1 input example).
	GCN = gnn.KindGCN
)

// Classic layouts (§2.3, Figures 1-2).
const (
	LayoutA = topology.LayoutA
	LayoutB = topology.LayoutB
	LayoutC = topology.LayoutC
	LayoutD = topology.LayoutD
)

// Data placement policies (§3.3).
const (
	// PolicyDDAK is the data-distribution-aware knapsack.
	PolicyDDAK = trainsim.PolicyDDAK
	// PolicyHash is the uniform hash baseline.
	PolicyHash = trainsim.PolicyHash
)

// GPU cache organizations.
const (
	// CacheReplicated: every GPU caches the same hot vertices (default).
	CacheReplicated = trainsim.CacheReplicated
	// CachePartitioned: caches hold distinct vertices, peers served over
	// the fabric.
	CachePartitioned = trainsim.CachePartitioned
	// CachePaired: NVLink pairs partition their combined capacity (Fig 18).
	CachePaired = trainsim.CachePaired
)

// MachineA returns the balanced-PCIe evaluation server (Table 1).
func MachineA() *Machine { return topology.MachineA() }

// MachineB returns the cascaded-PCIe evaluation server (Table 1).
func MachineB() *Machine { return topology.MachineB() }

// MachineC returns one node of the DistDGL cluster (Table 1).
func MachineC() *Machine { return topology.MachineC() }

// ParseMachine reads a machine spec (the offline stand-in for
// lspci/dmidecode extraction; see topology.FormatSpec for the format).
func ParseMachine(r io.Reader) (*Machine, error) { return topology.ParseSpec(r) }

// FormatMachine serializes a machine to the spec format.
func FormatMachine(m *Machine) string { return topology.FormatSpec(m) }

// Datasets returns the Table 2 catalog (PA, IG, UK, CL).
func Datasets() []Dataset { return graph.Catalog() }

// DatasetByName looks up a catalog dataset.
func DatasetByName(name string) (Dataset, error) { return graph.DatasetByName(name) }

// MustDataset looks up a catalog dataset, panicking on unknown names.
func MustDataset(name string) Dataset {
	d, err := graph.DatasetByName(name)
	if err != nil {
		panic(err)
	}
	return d
}

// Optimize runs the automatic module (§3.1 Fig 8): profile → placement
// search with symmetry reduction → max-flow scoring → DDAK data placement
// → simulated epoch under the chosen plan. Options (WithObserver,
// WithSearchOptions, WithSimConfig) customize the run.
func Optimize(m *Machine, w Workload, opts ...Option) (*Plan, error) {
	in := core.Input{Machine: m, Workload: w}
	for _, o := range opts {
		o(&in)
	}
	return core.CoOptimize(in)
}

// OptimizeWith exposes the search knobs.
func OptimizeWith(m *Machine, w Workload, opts SearchOptions) (*Plan, error) {
	return core.CoOptimize(core.Input{Machine: m, Workload: w, Search: opts})
}

// Simulate runs one training epoch under an explicit configuration.
func Simulate(cfg SimConfig) (*EpochResult, error) { return trainsim.SimulateEpoch(cfg) }

// ClassicPlacement builds one of the four §2.3 layouts for machines A/B.
func ClassicPlacement(m *Machine, l ClassicLayout) (*Placement, error) {
	return topology.ClassicPlacement(m, l)
}

// PublishedPlacementB is the Fig 7 layout for machine B.
func PublishedPlacementB(m *Machine) (*Placement, error) {
	return topology.MomentPlacementB(m)
}

// Baseline entry points (§4.1).
var (
	// MGIDS simulates the multi-GPU GIDS baseline.
	MGIDS = baselines.MGIDS
	// MHyperion simulates the multi-GPU Hyperion baseline.
	MHyperion = baselines.MHyperion
	// DistDGL simulates the distributed baseline on cluster C.
	DistDGL = baselines.DistDGL
)

// DefaultDistDGL returns the calibrated cluster configuration.
func DefaultDistDGL() baselines.DistDGLConfig { return baselines.DefaultDistDGL() }

// Experiments regenerates every paper table and figure in order.
func Experiments() ([]*Table, error) { return experiments.All() }

// BenchRecord is one machine-readable benchmark data point.
type BenchRecord = experiments.BenchRecord

// BenchRecords simulates the core benchmark grid (machines A/B × classic
// layouts + the Moment-searched placement) and returns one JSON-ready
// record per configuration.
func BenchRecords() ([]BenchRecord, error) { return experiments.BenchRecords() }

// CompareReport is a per-experiment diff of two benchmark record sets.
type CompareReport = experiments.CompareReport

// CompareBench diffs fresh benchmark records against a committed baseline
// on epoch time. threshold is the relative slowdown treated as a
// regression (<=0 defaults to 10%); CompareReport.Err is the CI gate.
func CompareBench(baseline, newRecs []BenchRecord, threshold float64) *CompareReport {
	return experiments.CompareBench(baseline, newRecs, threshold)
}

// ReadBenchRecords loads a committed BENCH_*.json record set.
func ReadBenchRecords(path string) ([]BenchRecord, error) {
	return experiments.ReadBenchRecords(path)
}

// EnableSelfChecks turns on planner self-verification: every flow solve,
// placement search, and DDAK layout audits its own output (max-flow
// certificates, capacity and accounting invariants) and fails loudly
// instead of returning a silently wrong plan. Costs roughly one extra
// solve per audited call.
func EnableSelfChecks() { verify.Enable() }

// DisableSelfChecks removes the self-verification hooks.
func DisableSelfChecks() { verify.Disable() }

// SelfChecksEnabled reports whether planner self-verification is on.
func SelfChecksEnabled() bool { return verify.Enabled() }
