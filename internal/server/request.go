// Request and response schema of the planning service, plus the
// canonicalizer that turns a wire request into a planner input and a
// coalescing key.
//
// Two requests that describe the same planning problem — same machine
// (builtin name or spec text, compared after parse/re-format so formatting
// and comment differences vanish), same normalized workload, same fault
// schedule — canonicalize to the same fingerprint, which is
// what request coalescing and the cross-tenant plan cache key on. Fields
// that only shape the response (tenant, top_k, deadline) stay out of the
// key, so requests differing only in those still share one planner run.
package server

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"moment/internal/core"
	"moment/internal/faults"
	"moment/internal/gnn"
	"moment/internal/graph"
	"moment/internal/scorecache"
	"moment/internal/topology"
	"moment/internal/trainsim"
	"moment/internal/units"
)

// PlanRequest is the JSON body of POST /v1/plan.
type PlanRequest struct {
	// Tenant identifies the caller for quota and accounting purposes. The
	// X-Moment-Tenant header overrides it; empty means "default". Tenancy
	// never affects planning: identical problems coalesce across tenants.
	Tenant string `json:"tenant,omitempty"`

	// Machine names a builtin evaluation machine ("A", "B" or "C").
	// MachineSpec carries a full spec (the moment spec grammar; see
	// topology.ParseSpec) and wins when both are set.
	Machine     string `json:"machine,omitempty"`
	MachineSpec string `json:"machine_spec,omitempty"`

	Workload WorkloadSpec `json:"workload"`
	Search   SearchSpec   `json:"search,omitempty"`

	// Faults optionally injects a deterministic hardware-fault schedule
	// into the epoch simulation (the momentsim -faults grammar); the
	// response then carries a degradation report.
	Faults string `json:"faults,omitempty"`

	// DeadlineMS bounds the request's total time in queue + service;
	// 0 uses the server default. Requests that cannot meet their deadline
	// are shed with 429 rather than queued.
	DeadlineMS int `json:"deadline_ms,omitempty"`
}

// WorkloadSpec names the training job to plan for.
type WorkloadSpec struct {
	Dataset   string `json:"dataset"`              // PA, IG, UK or CL
	Model     string `json:"model"`                // graphsage (default), gat or gcn
	BatchSize int    `json:"batch_size,omitempty"` // default 8000
	Fanouts   []int  `json:"fanouts,omitempty"`    // default [25,10]
}

// SearchSpec shapes the placement search's response.
type SearchSpec struct {
	TopK int `json:"top_k,omitempty"` // ranked placements to return, default 1
}

// PlanResponse is the JSON body of a successful plan.
type PlanResponse struct {
	Tenant     string `json:"tenant"`
	Machine    string `json:"machine"`
	Coalesced  bool   `json:"coalesced"`   // joined another request's in-flight run
	CachedPlan bool   `json:"cached_plan"` // served from the plan cache, no planner run

	Placement       PlacementOut `json:"placement"`
	PredictedIOSec  float64      `json:"predicted_io_sec"`
	ThroughputGiBps float64      `json:"throughput_gibps"`

	Enumerated     int `json:"enumerated"`
	Evaluated      int `json:"evaluated"`
	ScoreCacheHits int `json:"score_cache_hits"`

	Ranked []RankedPlacement `json:"ranked,omitempty"`
	Bins   []BinOut          `json:"bins,omitempty"`
	Epoch  EpochOut          `json:"epoch"`
	Faults *FaultOut         `json:"faults,omitempty"`

	PlanMS float64 `json:"plan_ms"` // planner wall time (0 for cached plans)
}

// PlacementOut is a hardware placement in wire form.
type PlacementOut struct {
	Name  string   `json:"name"`
	GPUAt []string `json:"gpu_at"`
	SSDAt []string `json:"ssd_at"`
}

// RankedPlacement is one scored candidate of the top-k ranking.
type RankedPlacement struct {
	GPUAt          []string `json:"gpu_at"`
	SSDAt          []string `json:"ssd_at"`
	PredictedIOSec float64  `json:"predicted_io_sec"`
}

// BinOut is one DDAK storage bin of the data layout.
type BinOut struct {
	Name       string  `json:"name"`
	UsedGiB    float64 `json:"used_gib"`
	AccessFrac float64 `json:"access_frac"`
}

// EpochOut summarizes the simulated epoch under the chosen plan.
type EpochOut struct {
	EpochSec      float64 `json:"epoch_sec"`
	IOSec         float64 `json:"io_sec"`
	ComputeSec    float64 `json:"compute_sec"`
	SampleSec     float64 `json:"sample_sec"`
	HitGPU        float64 `json:"hit_gpu"`
	HitCPU        float64 `json:"hit_cpu"`
	ThroughputVPS float64 `json:"throughput_vps"`
}

// FaultOut is the graceful-degradation report for a faulted request.
type FaultOut struct {
	Injected     int     `json:"injected"`
	DeadSSDs     []int   `json:"dead_ssds,omitempty"`
	Replans      int     `json:"replans"`
	MovedGiB     float64 `json:"moved_gib"`
	StallSeconds float64 `json:"stall_seconds"`
	Inflation    float64 `json:"inflation"`
}

// canonReq is a validated, canonicalized request: the planner input plus
// the coalescing key and the response-shaping fields that stay out of it.
type canonReq struct {
	key     string // coalescing / plan-cache fingerprint
	machine *topology.Machine
	name    string // display name for the machine
	wl      trainsim.Workload
	faults  *faults.Schedule

	topK     int
	deadline time.Duration
}

// errBadRequest marks client errors (malformed spec, unknown dataset) so
// the handler can map them to 400 instead of 500.
type errBadRequest struct{ err error }

func (e errBadRequest) Error() string { return e.err.Error() }
func (e errBadRequest) Unwrap() error { return e.err }

func badReq(format string, args ...any) error {
	return errBadRequest{fmt.Errorf(format, args...)}
}

func parseModel(name string) (gnn.ModelKind, error) {
	switch strings.ToLower(name) {
	case "", "graphsage", "sage":
		return gnn.KindSAGE, nil
	case "gat":
		return gnn.KindGAT, nil
	case "gcn":
		return gnn.KindGCN, nil
	}
	return 0, badReq("unknown model %q (want graphsage, gat or gcn)", name)
}

func builtinMachine(name string) (*topology.Machine, error) {
	switch strings.ToUpper(name) {
	case "A":
		return topology.MachineA(), nil
	case "B":
		return topology.MachineB(), nil
	case "C":
		return topology.MachineC(), nil
	}
	return nil, badReq("unknown machine %q (want A, B or C, or a machine_spec)", name)
}

// canonicalize validates req and produces the planner input and coalescing
// key. The returned canonReq is self-contained: flights outlive the request
// that submitted them, so nothing may alias the http request.
func canonicalize(req *PlanRequest, defaultDeadline, maxDeadline time.Duration) (*canonReq, error) {
	var m *topology.Machine
	var err error
	if req.MachineSpec != "" {
		m, err = topology.ParseSpec(strings.NewReader(req.MachineSpec))
		if err != nil {
			return nil, badReq("machine_spec: %v", err)
		}
	} else {
		if m, err = builtinMachine(req.Machine); err != nil {
			return nil, err
		}
	}
	if err := m.Validate(); err != nil {
		return nil, badReq("machine: %v", err)
	}

	if req.Workload.Dataset == "" {
		return nil, badReq("workload.dataset is required")
	}
	ds, err := graph.DatasetByName(strings.ToUpper(req.Workload.Dataset))
	if err != nil {
		return nil, badReq("workload.dataset: %v", err)
	}
	model, err := parseModel(req.Workload.Model)
	if err != nil {
		return nil, err
	}
	if req.Workload.BatchSize < 0 {
		return nil, badReq("workload.batch_size must be >= 0")
	}
	for _, f := range req.Workload.Fanouts {
		if f <= 0 {
			return nil, badReq("workload.fanouts must be positive")
		}
	}
	wl := trainsim.Workload{
		Dataset:   ds,
		Model:     model,
		BatchSize: req.Workload.BatchSize,
		Fanouts:   append([]int(nil), req.Workload.Fanouts...),
	}.Defaults()

	topK := req.Search.TopK
	if topK < 0 {
		return nil, badReq("search.top_k must be >= 0")
	}
	if topK == 0 {
		topK = 1
	}

	var sched *faults.Schedule
	if req.Faults != "" {
		sched, err = faults.Parse(req.Faults)
		if err != nil {
			return nil, badReq("faults: %v", err)
		}
		if sched.Empty() {
			sched = nil
		}
	}

	deadline := defaultDeadline
	if req.DeadlineMS < 0 {
		return nil, badReq("deadline_ms must be >= 0")
	}
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	if maxDeadline > 0 && deadline > maxDeadline {
		deadline = maxDeadline
	}

	cr := &canonReq{
		machine:  m,
		name:     m.Name,
		wl:       wl,
		faults:   sched,
		topK:     topK,
		deadline: deadline,
	}
	cr.key = fingerprint(m, wl, sched)
	return cr, nil
}

// fingerprint hashes everything that determines a planner run's output.
// The machine enters as its re-formatted spec (parse ∘ format is a
// canonicalizing round trip: comments, blank lines and number formatting
// vanish), the fault schedule as its formatted grammar, and the workload
// as its post-Defaults field values.
func fingerprint(m *topology.Machine, wl trainsim.Workload, sched *faults.Schedule) string {
	h := scorecache.NewHasher()
	h.String(topology.FormatSpec(m))
	h.String(wl.Dataset.Name)
	h.String(wl.Model.String())
	h.Uint(uint64(wl.BatchSize))
	h.Uint(uint64(len(wl.Fanouts)))
	for _, f := range wl.Fanouts {
		h.Uint(uint64(f))
	}
	h.Float(wl.DedupFactor)
	h.Uint(uint64(wl.EpochBatches))
	if sched != nil {
		h.String(faults.Format(sched))
	}
	return fmt.Sprintf("plan-%016x", h.Sum())
}

// planResult is one completed planner run in response-template form: the
// full ranking is precomputed once, then every waiter gets a deep copy
// truncated to its own top_k (clone-on-return: tenants can mutate their
// response without corrupting the shared cache entry or other tenants'
// views).
type planResult struct {
	machine    string
	placement  PlacementOut
	predicted  float64
	throughput float64
	enumerated int
	evaluated  int
	cacheHits  int
	ranked     []RankedPlacement
	bins       []BinOut
	epoch      EpochOut
	faults     *FaultOut
	runSeconds float64
}

// placementOut converts a placement into wire form.
func placementOut(p *topology.Placement) PlacementOut {
	return PlacementOut{
		Name:  p.Name,
		GPUAt: append([]string(nil), p.GPUAt...),
		SSDAt: append([]string(nil), p.SSDAt...),
	}
}

// newPlanResult converts a finished core plan into the response template.
func newPlanResult(cr *canonReq, plan *core.Plan, runTime time.Duration) *planResult {
	res := &planResult{
		machine:    cr.name,
		placement:  placementOut(plan.Placement),
		predicted:  plan.PredictedIO.Sec(),
		throughput: plan.PredictedThroughput.GiBpsf(),
		enumerated: plan.Enumerated,
		evaluated:  plan.Evaluated,
		cacheHits:  plan.CacheHits,
		runSeconds: runTime.Seconds(),
	}
	// plan.Scores arrives sorted best-first (feasible before infeasible);
	// keep the feasible prefix as the ranking.
	for _, s := range plan.Scores {
		if s.Err != nil {
			continue
		}
		res.ranked = append(res.ranked, RankedPlacement{
			GPUAt:          append([]string(nil), s.Placement.GPUAt...),
			SSDAt:          append([]string(nil), s.Placement.SSDAt...),
			PredictedIOSec: s.Time.Sec(),
		})
	}
	sort.SliceStable(res.ranked, func(i, j int) bool {
		return res.ranked[i].PredictedIOSec < res.ranked[j].PredictedIOSec
	})
	if epoch := plan.Epoch; epoch != nil {
		res.epoch = EpochOut{
			EpochSec:      epoch.EpochTime.Sec(),
			IOSec:         epoch.IOTime.Sec(),
			ComputeSec:    epoch.ComputeTime.Sec(),
			SampleSec:     epoch.SampleTime.Sec(),
			HitGPU:        epoch.HitGPU,
			HitCPU:        epoch.HitCPU,
			ThroughputVPS: epoch.Throughput,
		}
		if fr := epoch.Faults; fr != nil {
			res.faults = &FaultOut{
				Injected:     fr.Injected,
				DeadSSDs:     append([]int(nil), fr.DeadSSDs...),
				Replans:      fr.Replans,
				MovedGiB:     fr.MovedBytes / float64(units.GiB),
				StallSeconds: fr.StallSeconds,
				Inflation:    fr.Inflation,
			}
		}
	}
	if assign := plan.DataPlacement; assign != nil {
		for i, bin := range assign.Bins {
			res.bins = append(res.bins, BinOut{
				Name:       bin.Name,
				UsedGiB:    assign.Used[i] / float64(units.GiB),
				AccessFrac: assign.Access[i],
			})
		}
	}
	return res
}

// response builds one waiter's PlanResponse from the shared template. Every
// slice is freshly allocated — the caller may mutate the response freely.
func (pr *planResult) response(tenant string, topK int, coalesced, cached bool) *PlanResponse {
	out := &PlanResponse{
		Tenant:     tenant,
		Machine:    pr.machine,
		Coalesced:  coalesced,
		CachedPlan: cached,
		Placement: PlacementOut{
			Name:  pr.placement.Name,
			GPUAt: append([]string(nil), pr.placement.GPUAt...),
			SSDAt: append([]string(nil), pr.placement.SSDAt...),
		},
		PredictedIOSec:  pr.predicted,
		ThroughputGiBps: pr.throughput,
		Enumerated:      pr.enumerated,
		Evaluated:       pr.evaluated,
		ScoreCacheHits:  pr.cacheHits,
		Epoch:           pr.epoch,
		PlanMS:          pr.runSeconds * 1e3,
	}
	if cached {
		out.PlanMS = 0
	}
	if topK > len(pr.ranked) {
		topK = len(pr.ranked)
	}
	for _, r := range pr.ranked[:topK] {
		out.Ranked = append(out.Ranked, RankedPlacement{
			GPUAt:          append([]string(nil), r.GPUAt...),
			SSDAt:          append([]string(nil), r.SSDAt...),
			PredictedIOSec: r.PredictedIOSec,
		})
	}
	for _, b := range pr.bins {
		out.Bins = append(out.Bins, b)
	}
	if pr.faults != nil {
		f := *pr.faults
		f.DeadSSDs = append([]int(nil), pr.faults.DeadSSDs...)
		out.Faults = &f
	}
	return out
}
