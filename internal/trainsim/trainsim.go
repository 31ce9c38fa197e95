package trainsim

import (
	"fmt"
	"math"

	"moment/internal/ddak"
	"moment/internal/faults"
	"moment/internal/flownet"
	"moment/internal/gnn"
	"moment/internal/obs"
	"moment/internal/topology"
	"moment/internal/units"
)

// Policy selects the data-placement algorithm.
type Policy int

const (
	// PolicyDDAK is the data-distribution-aware knapsack (§3.3).
	PolicyDDAK Policy = iota
	// PolicyHash is the capacity-proportional hash baseline.
	PolicyHash
)

// String names the policy.
func (p Policy) String() string {
	if p == PolicyHash {
		return "hash"
	}
	return "ddak"
}

// SSDMode selects how GPUs reach SSDs.
type SSDMode int

const (
	// SharedSSD lets every GPU read every SSD (Moment's multi-GPU I/O
	// stack, §3.1).
	SharedSSD SSDMode = iota
	// PartitionedSSD statically assigns SSDs to GPUs and replicates the
	// dataset per group (the M-GIDS extension, §4.1 Baselines).
	PartitionedSSD
)

// CacheMode selects how the GPU HBM feature caches are organized.
type CacheMode int

const (
	// CacheReplicated: every GPU caches the same hottest vertices; all
	// GPU-cache hits are local (Hyperion/GNNLab-style hot caching).
	CacheReplicated CacheMode = iota
	// CachePartitioned: the collective HBM capacity holds distinct
	// vertices; peers are served over the PCIe fabric (or NVLink).
	CachePartitioned
	// CachePaired: NVLink-bridged GPU pairs partition their combined
	// capacity (2x distinct vertices per pair, half served over the
	// bridge); pairs replicate each other. This is how Moment exploits
	// NVLink in Fig 18. GPUs without a bridge behave as CacheReplicated.
	CachePaired
)

// String names the cache mode.
func (c CacheMode) String() string {
	switch c {
	case CachePartitioned:
		return "partitioned"
	case CachePaired:
		return "paired"
	}
	return "replicated"
}

// Config describes one simulated training setup.
type Config struct {
	Machine   *topology.Machine
	Placement *topology.Placement
	Workload  Workload

	Policy Policy
	Mode   SSDMode
	Cache  CacheMode

	// VirtualVertices is the rank-bucket resolution (default 50000).
	VirtualVertices int
	// PoolN is DDAK's pooling factor (default 100, §3.3).
	PoolN int
	// CPUCacheVertexFrac is the fraction of vertices cached in CPU memory
	// (default 0.01 per §4.1).
	CPUCacheVertexFrac float64
	// StorageShardFrac is the fraction of the (non-cached) feature store
	// this machine holds on its SSDs — 1 for a standalone machine, 1/N
	// for a node of an N-way cluster whose cold data is partitioned
	// (§5 multi-node generalization). Cache capacity still holds the full
	// replicated hot head.
	StorageShardFrac float64
	// SampleRate is sampled edges/second/GPU for the sampling stage
	// (default 2e9, GPU-resident sampling).
	SampleRate float64
	// Observer receives spans and metrics for the simulated epoch (nil
	// falls back to the process default observer).
	Observer *obs.Observer

	// Faults is an optional fault schedule to inject into the epoch: SSD
	// fail-stops trigger graceful degradation (the dead device's remaining
	// traffic re-routes to survivors via a degraded placement re-solve),
	// while throttles, link downtrains, error bursts, and GPU stragglers
	// stretch the affected stages in place. Nil or empty simulates perfect
	// hardware.
	Faults *faults.Schedule
	// Retry governs recovery stalls under Faults (zero value = defaults).
	Retry faults.RetryPolicy
}

// Result is one simulated epoch.
type Result struct {
	// OOM is non-empty when the configuration cannot run (e.g. the graph
	// topology and feature cache exceed host memory); all other fields
	// are zero then.
	OOM string

	EpochTime   units.Duration
	IOTime      units.Duration // measured by the fabric simulator
	PredictedIO units.Duration // predicted by max-flow (Fig 13)
	ComputeTime units.Duration // per-GPU model compute over the epoch
	SampleTime  units.Duration

	PerGPUIOBW   []units.Bandwidth // average fabric inlet rate per GPU
	QPIBytes     float64
	FetchEpoch   float64 // feature bytes fetched per epoch (whole job)
	FabricEpoch  float64 // bytes that actually crossed the fabric
	HitGPU       float64 // fraction of fetches served by GPU caches
	HitCPU       float64
	Throughput   float64 // training vertices per second
	Stats        *Stats
	BinAssign    *ddak.ItemAssignment
	PreprocessOK bool
	// Faults reports the injected-fault timeline and the degradation it
	// forced; nil when the epoch ran on perfect hardware.
	Faults *FaultReport
}

// plan carries everything derived before data placement: workload stats,
// cache organization, tier masses, and the flow-network demand. None of it
// depends on where the devices sit.
type plan struct {
	cfg     Config
	stats   *Stats
	items   []ddak.Item
	partner []int

	hitGPU           float64
	gpuDistinctBytes float64
	nvlHit           []float64
	gpuMass, cpuMass float64
	ssdMass          float64

	fetchEpoch    float64
	cpuCacheBytes float64
	gpuCacheBytes float64
	replicas      float64
	ssdsPerGPU    int

	demand *flownet.Demand
}

// WorkloadPlan is the placement-independent half of an epoch simulation:
// the normalized config, the workload stats (ComputeStats), the cache
// organization and tier budgets, and the flow-network demand. A planner
// derives it once, scores placement candidates against its demand, and
// simulates the winner from the same plan.
type WorkloadPlan struct {
	pl  *plan
	oom *Result // non-nil when the configuration cannot run
}

// PlanWorkload derives cfg's workload plan; cfg.Placement is not read. A
// configuration that cannot run (host memory, SSD capacity) still plans:
// Demand reports it as an error and SimulateEpoch as an OOM result.
func PlanWorkload(cfg Config) (*WorkloadPlan, error) {
	return planWorkload(cfg, obs.Active(cfg.Observer))
}

// planWorkload builds the plan inside a "plan" span opened on o.
func planWorkload(cfg Config, o *obs.Observer) (*WorkloadPlan, error) {
	sp := o.Begin("plan")
	pl, oom, err := buildPlan(cfg)
	sp.End()
	if err != nil {
		return nil, err
	}
	return &WorkloadPlan{pl: pl, oom: oom}, nil
}

// Demand returns the flow-network demand SimulateEpoch plans with, so that
// placement search can score candidates against the exact workload the
// runtime will execute, and the workload stats behind it.
func (wp *WorkloadPlan) Demand() (*flownet.Demand, *Stats, error) {
	if wp.oom != nil {
		return nil, nil, fmt.Errorf("trainsim: %s", wp.oom.OOM)
	}
	return wp.pl.demand, wp.pl.stats, nil
}

// PlanDemand is PlanWorkload followed by Demand.
func PlanDemand(cfg Config) (*flownet.Demand, *Stats, error) {
	wp, err := PlanWorkload(cfg)
	if err != nil {
		return nil, nil, err
	}
	return wp.Demand()
}

// buildPlan normalizes the config, checks memory feasibility, derives the
// workload stats and cache organization, and constructs the flow demand.
// A non-nil second return is an OOM pseudo-result. The plan's config
// carries no placement: the simulation stage supplies one.
func buildPlan(cfg Config) (*plan, *Result, error) {
	m := cfg.Machine
	if m == nil {
		return nil, nil, fmt.Errorf("trainsim: nil machine")
	}
	cfg.Placement = nil
	w := cfg.Workload.Defaults()
	w.NumGPUs = m.NumGPUs
	if cfg.CPUCacheVertexFrac == 0 {
		cfg.CPUCacheVertexFrac = 0.01
	}
	if cfg.SampleRate == 0 {
		cfg.SampleRate = 2e9
	}
	if cfg.PoolN == 0 {
		cfg.PoolN = 100
	}
	if cfg.StorageShardFrac <= 0 || cfg.StorageShardFrac > 1 {
		cfg.StorageShardFrac = 1
	}
	if cfg.Policy == PolicyHash {
		// Hash-based partitioning spreads embeddings uniformly across the
		// whole hierarchy, including the GPU caches — so the caches hold
		// mostly cold vertices (§3.3: "naive uniform distribution methods
		// ... are not effective"). Model this as partitioned caches with
		// capacity-share hit rates.
		cfg.Cache = CachePartitioned
	}
	cfg.Workload = w
	stats, err := ComputeStats(w, cfg.VirtualVertices)
	if err != nil {
		return nil, nil, err
	}
	d := w.Dataset
	rowBytes := float64(d.FeatureBytesPerVertex())
	nGPU := m.NumGPUs
	rcs := m.RootComplexes()

	// ---- Memory feasibility ------------------------------------------
	cpuCacheBytes := cfg.CPUCacheVertexFrac * float64(d.Vertices) * rowBytes
	totalDRAM := float64(m.DRAMPerSocket.Int64()) * float64(len(rcs))
	if float64(d.TopologyStorage.Int64())+cpuCacheBytes > totalDRAM {
		return nil, &Result{OOM: fmt.Sprintf(
			"host memory: topology %s + feature cache %.0f GiB exceed %.0f GiB DRAM",
			d.TopologyStorage, cpuCacheBytes/(1<<30), totalDRAM/(1<<30))}, nil
	}
	featBytes := float64(d.FeatureStorage.Int64())
	ssdTotalCap := float64(m.SSDCapacity.Int64()) * float64(m.NumSSDs)
	replicas := 1.0
	ssdsPerGPU := 0
	if cfg.Mode == PartitionedSSD {
		if nGPU <= 0 || m.NumSSDs < nGPU {
			return nil, &Result{OOM: "fewer SSDs than GPUs under static partitioning"}, nil
		}
		ssdsPerGPU = m.NumSSDs / nGPU
		replicas = float64(nGPU) // dataset replicated per GPU's SSD group
	}
	if featBytes*replicas*cfg.StorageShardFrac > ssdTotalCap {
		return nil, &Result{OOM: fmt.Sprintf(
			"ssd capacity: %.1f TiB x %.0f replicas exceed %.1f TiB",
			featBytes*cfg.StorageShardFrac/(1<<40), replicas, ssdTotalCap/(1<<40))}, nil
	}

	gpuCacheBytes := float64(m.GPUMemory.Int64()) * m.GPUCacheFrac

	// ---- GPU cache organization --------------------------------------
	items := make([]ddak.Item, len(stats.VirtualHot))
	for i := range items {
		items[i] = ddak.Item{Hot: stats.VirtualHot[i], Bytes: stats.VirtualBytes[i]}
	}
	partner := nvlinkPartners(m)
	var hitGPU float64           // total GPU-cache hit mass
	var gpuDistinctBytes float64 // distinct cached bytes (removed from DDAK items)
	localHit := make([]float64, nGPU)
	nvlHit := make([]float64, nGPU)
	switch cfg.Cache {
	case CachePartitioned:
		// Handled via DDAK bins below (collective distinct capacity,
		// peers served across the fabric).
		gpuDistinctBytes = 0
	case CachePaired:
		m1 := replicatedMass(items, gpuCacheBytes)
		m2 := replicatedMass(items, 2*gpuCacheBytes)
		anyPaired := false
		for g := 0; g < nGPU; g++ {
			if partner[g] >= 0 {
				localHit[g] = m2 / 2
				nvlHit[g] = m2 / 2
				anyPaired = true
			} else {
				localHit[g] = m1
			}
		}
		if anyPaired {
			gpuDistinctBytes = 2 * gpuCacheBytes
			hitGPU = m2
		} else {
			gpuDistinctBytes = gpuCacheBytes
			hitGPU = m1
		}
	default: // CacheReplicated
		m1 := replicatedMass(items, gpuCacheBytes)
		for g := 0; g < nGPU; g++ {
			localHit[g] = m1
		}
		gpuDistinctBytes = gpuCacheBytes
		hitGPU = m1
	}

	// ---- Provisional tier budgets (greedy hot-first fill) -------------
	var gpuMass, cpuMass float64
	if cfg.Cache == CachePartitioned {
		gpuMass, cpuMass = tierMasses(stats, gpuCacheBytes*float64(nGPU), cpuCacheBytes)
	} else {
		// Aggregate GPU-cache service across (possibly mixed paired and
		// unpaired) GPUs, so supply exactly covers demand.
		agg := 0.0
		for g := 0; g < nGPU; g++ {
			agg += localHit[g] + nvlHit[g]
		}
		gpuMass = agg / float64(nGPU)
		hitGPU = gpuMass
		_, cpuMass = tierMasses(stats, gpuDistinctBytes, cpuCacheBytes)
	}
	if cfg.Policy == PolicyHash {
		// Uniform spread: every cache captures only its capacity share.
		total := float64(d.FeatureStorage.Int64())
		gpuMass = math.Min(1, gpuCacheBytes*float64(nGPU)/total)
		cpuMass = math.Min(1-gpuMass, cpuCacheBytes/total)
	}
	ssdMass := 1 - gpuMass - cpuMass
	if ssdMass < 0 {
		ssdMass = 0
	}

	fetchEpoch := stats.FetchBytesEpoch
	perGPUFetch := fetchEpoch / float64(nGPU)

	// ---- Max-flow prediction (§3.2) ------------------------------------
	// Each GPU's fabric demand is the fetch its local cache misses. When
	// the caches hold the whole feature set the hit mass sums the hotness
	// to 1 plus rounding, so clamp at 0 the way ssdMass is clamped.
	dem := &flownet.Demand{
		PerGPU:   make([]float64, nGPU),
		DRAM:     map[string]float64{},
		SSDTotal: ssdMass * fetchEpoch,
	}
	switch cfg.Cache {
	case CachePartitioned:
		localShare := gpuMass / float64(nGPU)
		for g := range dem.PerGPU {
			dem.PerGPU[g] = math.Max(0, perGPUFetch*(1-localShare))
		}
		dem.HBMPeer = make([]float64, nGPU)
		for g := range dem.HBMPeer {
			dem.HBMPeer[g] = gpuMass / float64(nGPU) * fetchEpoch * float64(nGPU-1) / float64(nGPU)
		}
	case CachePaired:
		dem.HBMPeer = make([]float64, nGPU)
		for g := range dem.PerGPU {
			dem.PerGPU[g] = math.Max(0, perGPUFetch*(1-localHit[g]))
			if partner[g] >= 0 {
				dem.HBMPeer[g] = nvlHit[partner[g]] * perGPUFetch
			}
		}
	default:
		for g := range dem.PerGPU {
			dem.PerGPU[g] = math.Max(0, perGPUFetch*(1-localHit[g]))
		}
	}
	for _, rc := range rcs {
		dem.DRAM[rc] = cpuMass * fetchEpoch / float64(len(rcs))
	}
	return &plan{
		cfg:              cfg,
		stats:            stats,
		items:            items,
		partner:          partner,
		hitGPU:           hitGPU,
		gpuDistinctBytes: gpuDistinctBytes,
		nvlHit:           nvlHit,
		gpuMass:          gpuMass,
		cpuMass:          cpuMass,
		ssdMass:          ssdMass,
		fetchEpoch:       fetchEpoch,
		cpuCacheBytes:    cpuCacheBytes,
		gpuCacheBytes:    gpuCacheBytes,
		replicas:         replicas,
		ssdsPerGPU:       ssdsPerGPU,
		demand:           dem,
	}, nil, nil
}

// epochSetup carries everything SimulateEpoch derives before touching the
// fabric: the normalized config and plan, the max-flow prediction, the
// DDAK layout, the logical flow list, and the non-I/O stage durations. A
// long-horizon run (SimulateEpochs) builds it once and replays fabric
// runs against it instead of re-planning every epoch.
type epochSetup struct {
	cfg         Config
	pl          *plan
	predicted   units.Duration
	bins        []ddak.Bin
	gpuBin      []int
	dramBin     map[string]int
	ssdBin0     int
	fabricScale float64
	placeItems  []ddak.Item
	assign      *ddak.ItemAssignment
	served      []float64
	specs       []flowSpec
	hitGPU      float64
	hitCPU      float64

	computeTime float64
	sampleTime  float64
	iterPerGPU  float64
}

// epochOf assembles a pipelined epoch from its stage times (§3.1 System
// Runtime): the longest stage dominates, plus a pipeline-fill term.
func (es *epochSetup) epochOf(io, comp float64) float64 {
	stageMax := math.Max(io, math.Max(comp, es.sampleTime))
	fill := (io + comp + es.sampleTime - stageMax) / math.Max(es.iterPerGPU, 1)
	return stageMax + fill
}

// placeAndSpecs runs the epoch pipeline from the workload plan up to (but
// not including) the fabric simulation under placement p: max-flow
// prediction → fabric-fair traffic plan → DDAK/hash data placement →
// logical flow list → compute/sampling stage times. A non-nil second
// return is an OOM pseudo-result.
func (wp *WorkloadPlan) placeAndSpecs(p *topology.Placement, o *obs.Observer, epochSp *obs.Span) (*epochSetup, *Result, error) {
	if p == nil {
		return nil, nil, fmt.Errorf("trainsim: nil placement")
	}
	if wp.oom != nil {
		o.Counter("trainsim_oom_total").Inc()
		return nil, wp.oom, nil
	}
	scoped := o.In(epochSp)
	pl := wp.pl
	cfg := pl.cfg
	cfg.Placement = p
	m := cfg.Machine
	w := cfg.Workload
	d := w.Dataset
	nGPU := m.NumGPUs
	rcs := m.RootComplexes()
	stats := pl.stats
	hitGPU := pl.hitGPU
	items := pl.items
	gpuMass, cpuMass, ssdMass := pl.gpuMass, pl.cpuMass, pl.ssdMass
	fetchEpoch := pl.fetchEpoch
	cpuCacheBytes := pl.cpuCacheBytes
	gpuCacheBytes := pl.gpuCacheBytes
	gpuDistinctBytes := pl.gpuDistinctBytes
	replicas := pl.replicas
	ssdsPerGPU := pl.ssdsPerGPU

	predictSp := epochSp.Child("predict")
	net, err := flownet.Build(m, cfg.Placement, pl.demand)
	if err != nil {
		predictSp.End()
		return nil, nil, err
	}
	net.SetObserver(o)
	predicted, err := net.Solve()
	predictSp.SetFloat("predicted_io_seconds", predicted.Sec())
	predictSp.End()
	if err != nil {
		return nil, nil, err
	}

	// ---- Fabric-fair traffic plan --------------------------------------
	// Bin_traffic must reflect the service share each bin gets on the real
	// fabric under fair sharing — raw max-flow has degenerate optima that
	// concentrate traffic on arbitrary symmetric SSDs. A probe run of the
	// fabric simulator yields the max-min fair service shares instead.
	fairSp := epochSp.Child("fair-shares")
	ssdShare, _, err := fairShares(m, cfg.Placement, cfg.Mode, ssdsPerGPU)
	fairSp.End()
	if err != nil {
		return nil, nil, err
	}
	// The CPU cache's socket split follows GPU locality: caching hot
	// vertices in the DRAM of a socket with no GPUs only adds QPI
	// crossings (the Fig 17 effect), so each socket's share tracks the
	// GPUs it hosts (smoothed so an empty socket still takes overflow).
	dramShare := dramLocalityShares(m, cfg.Placement)

	// ---- Data placement over virtual vertices ---------------------------
	var bins []ddak.Bin
	gpuBin := make([]int, 0, nGPU)
	placeItems := items
	if cfg.Cache == CachePartitioned {
		for g := 0; g < nGPU; g++ {
			gpuBin = append(gpuBin, len(bins))
			bins = append(bins, ddak.Bin{
				Name: fmt.Sprintf("hbm%d", g), Tier: ddak.TierGPU,
				Capacity: gpuCacheBytes,
				Traffic:  gpuMass / float64(nGPU) * fetchEpoch,
			})
		}
	} else {
		// The replicated/paired cache head never reaches DDAK.
		placeItems = itemsAfterCache(items, gpuDistinctBytes)
	}
	if cfg.StorageShardFrac < 1 {
		// Cluster node: only a shard of each (non-cached) rank bucket
		// lives on this machine's SSDs; the access mass per local byte
		// is unchanged, so scale item sizes by the shard fraction.
		sharded := make([]ddak.Item, len(placeItems))
		for i, it := range placeItems {
			sharded[i] = ddak.Item{Hot: it.Hot, Bytes: it.Bytes * cfg.StorageShardFrac}
		}
		placeItems = sharded
	}
	dramBin := map[string]int{}
	for _, rc := range rcs {
		dramBin[rc] = len(bins)
		bins = append(bins, ddak.Bin{
			Name: "dram:" + rc, Tier: ddak.TierCPU,
			Capacity: cpuCacheBytes / float64(len(rcs)),
			Traffic:  cpuMass * fetchEpoch * dramShare[rc],
		})
	}
	ssdBin0 := len(bins)
	for j := 0; j < m.NumSSDs; j++ {
		bins = append(bins, ddak.Bin{
			Name: fmt.Sprintf("ssd%d", j), Tier: ddak.TierSSD,
			Capacity: float64(m.SSDCapacity.Int64()) / replicas,
			Traffic:  ssdMass * fetchEpoch * ssdShare[j],
		})
	}
	var assign *ddak.ItemAssignment
	switch cfg.Policy {
	case PolicyHash:
		assign, err = ddak.HashPlaceItems(placeItems, bins)
	default:
		// scoped nests the "ddak" span under this epoch's span.
		assign, err = ddak.PlaceItemsObserved(placeItems, bins, cfg.PoolN, fetchEpoch, scoped)
	}
	if err != nil {
		return nil, nil, err
	}
	if cfg.Cache == CachePartitioned {
		hitGPU = assign.HitRateItems(ddak.TierGPU)
	}
	hitCPU := assign.HitRateItems(ddak.TierCPU) * sumHot(placeItems)

	// ---- Logical flow list ----------------------------------------------
	fabricScale := fetchEpoch
	if cfg.Cache != CachePartitioned {
		fabricScale = fetchEpoch * sumHot(placeItems)
	}
	served := assign.ServedBytesItems(fabricScale)
	specs := buildFlowSpecs(cfg, pl, served, gpuBin, dramBin, ssdBin0)

	// ---- Compute + sampling stages --------------------------------------
	iterPerGPU := math.Ceil(float64(stats.BatchesPerEpoch) / float64(nGPU))
	cost := gnn.DefaultCostModel(w.Model, d.FeatureDim, 2)
	iterSec, err := cost.IterationSeconds(int64(stats.UniquePerBatch), int64(stats.EdgesPerBatch))
	if err != nil {
		return nil, nil, err
	}
	return &epochSetup{
		cfg:         cfg,
		pl:          pl,
		predicted:   predicted,
		bins:        bins,
		gpuBin:      gpuBin,
		dramBin:     dramBin,
		ssdBin0:     ssdBin0,
		fabricScale: fabricScale,
		placeItems:  placeItems,
		assign:      assign,
		served:      served,
		specs:       specs,
		hitGPU:      hitGPU,
		hitCPU:      hitCPU,
		computeTime: iterSec * iterPerGPU,
		sampleTime:  stats.EdgesPerBatch / cfg.SampleRate * iterPerGPU,
		iterPerGPU:  iterPerGPU,
	}, nil, nil
}

// SimulateEpoch runs the full pipeline: workload stats → provisional tier
// budgets → max-flow prediction → fabric-fair traffic plan → DDAK/hash
// data placement → fabric simulation → pipelined epoch assembly. It is
// PlanWorkload followed by the plan's SimulateEpoch under cfg.Placement,
// with the "plan" span nested in the epoch's.
func SimulateEpoch(cfg Config) (*Result, error) {
	o := obs.Active(cfg.Observer)
	epochSp := beginEpoch(o, cfg, cfg.Placement)
	defer epochSp.End()
	wp, err := planWorkload(cfg, o.In(epochSp))
	if err != nil {
		return nil, err
	}
	return wp.simulate(cfg.Placement, o, epochSp)
}

// SimulateEpoch simulates one epoch of the plan under placement p: the
// placement-dependent stages of the package-level SimulateEpoch.
func (wp *WorkloadPlan) SimulateEpoch(p *topology.Placement) (*Result, error) {
	o := obs.Active(wp.pl.cfg.Observer)
	epochSp := beginEpoch(o, wp.pl.cfg, p)
	defer epochSp.End()
	return wp.simulate(p, o, epochSp)
}

// beginEpoch opens the span of an epoch of cfg under placement p.
func beginEpoch(o *obs.Observer, cfg Config, p *topology.Placement) *obs.Span {
	sp := o.Begin("trainsim.epoch")
	if cfg.Machine != nil {
		sp.SetStr("machine", cfg.Machine.Name)
	}
	if p != nil {
		sp.SetStr("placement", p.Name)
	}
	sp.SetStr("policy", cfg.Policy.String())
	return sp
}

// simulate runs the placement-dependent stages inside epochSp.
func (wp *WorkloadPlan) simulate(p *topology.Placement, o *obs.Observer, epochSp *obs.Span) (*Result, error) {
	scoped := o.In(epochSp)
	es, oom, err := wp.placeAndSpecs(p, o, epochSp)
	if err != nil {
		return nil, err
	}
	if oom != nil {
		return oom, nil
	}
	cfg := es.cfg
	m := cfg.Machine
	w := cfg.Workload
	d := w.Dataset
	nGPU := m.NumGPUs
	stats := es.pl.stats
	fetchEpoch := es.pl.fetchEpoch
	ssdsPerGPU := es.pl.ssdsPerGPU
	predicted := es.predicted
	specs, bins, ssdBin0 := es.specs, es.bins, es.ssdBin0
	served := es.served
	hitGPU, hitCPU := es.hitGPU, es.hitCPU
	computeTime, sampleTime := es.computeTime, es.sampleTime

	// ---- Fabric simulation ----------------------------------------------
	fab, err := NewFabric(m, cfg.Placement)
	if err != nil {
		return nil, err
	}
	if err := addFlows(fab, specs); err != nil {
		return nil, err
	}
	fabSp := epochSp.Child("fabric-sim")
	fab.Net.SetObserver(scoped)
	runRes, err := fab.Net.Run()
	fabSp.End()
	if err != nil {
		return nil, err
	}
	ioTime := runRes.Makespan

	// ---- Pipelined epoch (§3.1 System Runtime) --------------------------
	epochOf := es.epochOf
	nomIO := ioTime
	epoch := epochOf(ioTime, computeTime)

	// ---- Graceful degradation under injected faults ----------------------
	var frep *FaultReport
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		inj, err := faults.NewInjector(cfg.Faults)
		if err != nil {
			return nil, err
		}
		if err := inj.CheckTargets(m.NumSSDs, nGPU); err != nil {
			return nil, err
		}
		// Flight-record every scheduled fault transition so a post-hoc dump
		// shows what was injected when. The FlightEnabled guard keeps the
		// disabled path free of the Sprintf allocations below.
		if scoped.FlightEnabled() {
			for _, fe := range inj.Events() {
				subject := fe.Link
				switch {
				case fe.GPU >= 0:
					subject = fmt.Sprintf("gpu%d", fe.GPU)
				case fe.SSD >= 0:
					subject = fmt.Sprintf("ssd%d", fe.SSD)
				}
				scoped.Event(obs.Event{Kind: obs.EvFault, Name: fe.Kind.String(),
					Subject: subject, V1: fe.At, V2: fe.Factor})
			}
		}
		degSp := epochSp.Child("degrade")
		nominalEpoch := epoch
		degIO, rep, err := simulateDegradedIO(degradeInput{
			cfg:        cfg,
			specs:      specs,
			inj:        inj,
			pol:        cfg.Retry.Defaults(),
			bins:       bins,
			ssdBin0:    ssdBin0,
			items:      es.placeItems,
			fetchEpoch: fetchEpoch,
			ssdsPerGPU: ssdsPerGPU,
		})
		degSp.End()
		if err != nil {
			return nil, err
		}
		degCompute := stragglerCompute(computeTime, nGPU, inj)
		ioTime, computeTime = degIO, degCompute
		epoch = epochOf(ioTime, computeTime)
		rep.NominalEpoch = units.Seconds(nominalEpoch)
		if nominalEpoch > 0 {
			rep.Inflation = epoch / nominalEpoch
		}
		rep.Injected = inj.InjectedBy(epoch)
		rep.RetriedBytes = retriedBytesEstimate(inj, served[ssdBin0:], ioTime)
		frep = rep
		if o != nil {
			o.Counter("faults_injected_total").Add(float64(rep.Injected))
			o.Counter("faults_replans_total").Add(float64(rep.Replans))
			o.Counter("faults_timeouts_total").Add(float64(rep.Timeouts))
			o.Gauge("faults_stall_seconds").Set(rep.StallSeconds)
			o.Gauge("faults_moved_bytes").Set(rep.MovedBytes)
			o.Gauge("faults_retried_bytes").Set(rep.RetriedBytes)
			o.Gauge("trainsim_epoch_inflation").Set(rep.Inflation)
		}
	}

	fabricBytes := 0.0
	perGPUBW := make([]units.Bandwidth, nGPU)
	for g := 0; g < nGPU; g++ {
		in := runRes.LinkBytes[fab.gpuIn[g]]
		for pair, l := range fab.nvl {
			if pair[1] == g {
				in += runRes.LinkBytes[l]
			}
		}
		fabricBytes += in
		if nomIO > 0 {
			// Bandwidths describe the nominal traffic plan; under faults the
			// degraded timeline is reported via Faults instead.
			perGPUBW[g] = units.Bandwidth(in / nomIO)
		}
	}

	train := float64(d.TrainVertices())
	res := &Result{
		EpochTime:    units.Seconds(epoch),
		IOTime:       units.Seconds(ioTime),
		PredictedIO:  predicted,
		ComputeTime:  units.Seconds(computeTime),
		SampleTime:   units.Seconds(sampleTime),
		PerGPUIOBW:   perGPUBW,
		QPIBytes:     fab.QPIBytes(runRes),
		FetchEpoch:   fetchEpoch,
		FabricEpoch:  fabricBytes,
		HitGPU:       hitGPU,
		HitCPU:       hitCPU,
		Stats:        stats,
		BinAssign:    es.assign,
		PreprocessOK: true,
		Faults:       frep,
	}
	if epoch > 0 {
		res.Throughput = train / epoch
	}
	if o != nil {
		o.Gauge("trainsim_stage_seconds", obs.L("stage", "io")).Set(ioTime)
		o.Gauge("trainsim_stage_seconds", obs.L("stage", "compute")).Set(computeTime)
		o.Gauge("trainsim_stage_seconds", obs.L("stage", "sample")).Set(sampleTime)
		o.Gauge("trainsim_epoch_seconds").Set(epoch)
		o.Gauge("trainsim_predicted_io_seconds").Set(predicted.Sec())
		o.Gauge("trainsim_hit_ratio", obs.L("tier", "gpu")).Set(hitGPU)
		o.Gauge("trainsim_hit_ratio", obs.L("tier", "cpu")).Set(hitCPU)
		o.Gauge("trainsim_qpi_bytes").Set(res.QPIBytes)
		o.Counter("trainsim_epochs_total").Inc()
		epochSp.SetFloat("epoch_seconds", epoch)
		epochSp.SetFloat("io_seconds", ioTime)
	}
	return res, nil
}

// fairShares probes the fabric with symmetric unit flows and returns the
// max-min fair service share of each SSD and each socket's DRAM.
func fairShares(m *topology.Machine, p *topology.Placement, mode SSDMode, ssdsPerGPU int) (ssd []float64, dram map[string]float64, err error) {
	fab, err := NewFabric(m, p)
	if err != nil {
		return nil, nil, err
	}
	type key struct {
		kind string
		idx  int
		rc   string
	}
	var keys []key
	const probeBytes = 1 << 30
	for j := 0; j < m.NumSSDs; j++ {
		for g := 0; g < m.NumGPUs; g++ {
			if mode == PartitionedSSD && j/ssdsPerGPU != g {
				continue
			}
			path, err := fab.PathSSDToGPU(j, g)
			if err != nil {
				return nil, nil, err
			}
			if _, err := fab.Net.AddFlow("probe", path, probeBytes, 0); err != nil {
				return nil, nil, err
			}
			keys = append(keys, key{kind: "ssd", idx: j})
		}
	}
	for _, rc := range m.RootComplexes() {
		for g := 0; g < m.NumGPUs; g++ {
			path, err := fab.PathDRAMToGPU(rc, g)
			if err != nil {
				return nil, nil, err
			}
			if _, err := fab.Net.AddFlow("probe", path, probeBytes, 0); err != nil {
				return nil, nil, err
			}
			keys = append(keys, key{kind: "dram", rc: rc})
		}
	}
	rates := fab.Net.InitialRates()
	ssd = make([]float64, m.NumSSDs)
	dram = map[string]float64{}
	for _, rc := range m.RootComplexes() {
		dram[rc] = 0
	}
	ssdSum, dramSum := 0.0, 0.0
	for i, k := range keys {
		r := rates[i]
		if math.IsInf(r, 1) {
			r = 0
		}
		if k.kind == "ssd" {
			ssd[k.idx] += r
			ssdSum += r
		} else {
			dram[k.rc] += r
			dramSum += r
		}
	}
	for j := range ssd {
		if ssdSum > 0 {
			ssd[j] /= ssdSum
		} else if m.NumSSDs > 0 {
			ssd[j] = 1 / float64(m.NumSSDs)
		}
	}
	for rc := range dram {
		if dramSum > 0 {
			dram[rc] /= dramSum
		} else {
			dram[rc] = 1 / float64(len(dram))
		}
	}
	return ssd, dram, nil
}

// dramLocalityShares weights each socket's CPU-cache traffic by the GPUs
// it (transitively) hosts.
func dramLocalityShares(m *topology.Machine, p *topology.Placement) map[string]float64 {
	rcs := m.RootComplexes()
	counts := map[string]float64{}
	const smooth = 0.25
	total := smooth * float64(len(rcs))
	for _, rc := range rcs {
		counts[rc] = smooth
	}
	for _, at := range p.GPUAt {
		sock, err := m.Socket(at)
		if err != nil {
			continue
		}
		counts[sock]++
		total++
	}
	for rc := range counts {
		counts[rc] /= total
	}
	return counts
}

func nvlinkPartners(m *topology.Machine) []int {
	partner := make([]int, m.NumGPUs)
	for i := range partner {
		partner[i] = -1
	}
	for _, nv := range m.NVLinks {
		if partner[nv.A] == -1 && partner[nv.B] == -1 {
			partner[nv.A] = nv.B
			partner[nv.B] = nv.A
		}
	}
	return partner
}

// tierMasses greedily fills tiers hot-first and returns the access mass
// captured by the GPU tier and CPU tier.
func tierMasses(stats *Stats, gpuCap, cpuCap float64) (gpuMass, cpuMass float64) {
	remainingGPU, remainingCPU := gpuCap, cpuCap
	for i := range stats.VirtualHot {
		b := stats.VirtualBytes[i]
		switch {
		case remainingGPU >= b:
			remainingGPU -= b
			gpuMass += stats.VirtualHot[i]
		case remainingCPU >= b:
			remainingCPU -= b
			cpuMass += stats.VirtualHot[i]
		default:
			// SSD tier; keep scanning — a smaller later bucket might
			// still fit (sizes vary between head and tail items).
		}
	}
	return gpuMass, cpuMass
}

// replicatedMass is the hotness captured by one cache's worth of the
// hottest items (items must be in hot-first order, as ComputeStats emits).
func replicatedMass(items []ddak.Item, cap float64) float64 {
	mass := 0.0
	for _, it := range items {
		if cap < it.Bytes {
			break
		}
		cap -= it.Bytes
		mass += it.Hot
	}
	return mass
}

// itemsAfterCache strips the replicated cache head from the item list.
func itemsAfterCache(items []ddak.Item, cap float64) []ddak.Item {
	i := 0
	for ; i < len(items); i++ {
		if cap < items[i].Bytes {
			break
		}
		cap -= items[i].Bytes
	}
	rest := items[i:]
	if len(rest) == 0 {
		rest = []ddak.Item{{Hot: 0, Bytes: 1}}
	}
	return rest
}

func sumHot(items []ddak.Item) float64 {
	t := 0.0
	for _, it := range items {
		t += it.Hot
	}
	return t
}
