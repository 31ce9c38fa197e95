package experiments

import (
	"fmt"

	"moment/internal/gnn"
	"moment/internal/topology"
	"moment/internal/trainsim"
)

// BenchRecord is one machine-readable benchmark data point: a (machine,
// dataset, layout, policy) configuration with its simulated per-stage
// timings. Records serialize as JSON suitable for committing as
// BENCH_*.json and for regression diffing across PRs.
type BenchRecord struct {
	Machine string `json:"machine"`
	Dataset string `json:"dataset"`
	Model   string `json:"model"`
	Layout  string `json:"layout"` // a/b/c/d or "moment"
	Policy  string `json:"policy"` // ddak or hash

	EpochSec       float64 `json:"epoch_sec"`
	IOSec          float64 `json:"io_sec"`
	PredictedIOSec float64 `json:"predicted_io_sec"`
	ComputeSec     float64 `json:"compute_sec"`
	SampleSec      float64 `json:"sample_sec"`

	HitGPU        float64 `json:"hit_gpu"`
	HitCPU        float64 `json:"hit_cpu"`
	QPIGiB        float64 `json:"qpi_gib"`
	ThroughputVPS float64 `json:"throughput_vps"`

	// Serving-path accounting, populated only by the momentd load-test row
	// (layout "serve"). EpochSec stays the canonical problem's *simulated*
	// epoch — a deterministic planner output the compare gate can hold
	// steady — while the latency quantiles are informational wall-clock
	// measurements that are never regression-gated.
	ServeTenants   int     `json:"serve_tenants,omitempty"`
	ServeRequests  int     `json:"serve_requests,omitempty"`
	ServeCoalesced int     `json:"serve_coalesced,omitempty"`
	ServeCacheHits int     `json:"serve_cache_hits,omitempty"`
	ServeShed      int     `json:"serve_shed,omitempty"`
	ServeP99MS     float64 `json:"serve_p99_ms,omitempty"`
	ServeHitP99MS  float64 `json:"serve_hit_p99_ms,omitempty"`

	// Planner-harness accounting, populated only by the fleet placement
	// sweep row (layout "sweep"). As with the serve row, EpochSec stays a
	// deterministic simulated quantity (the fleet-mean best epoch time) so
	// the compare gate can hold it steady; the wall-clock pair records the
	// measured baseline (per-node cold search, no cache) against the
	// optimized harness (the same searches over a shared score cache) and
	// is informational, never regression-gated.
	SweepNodes       int     `json:"sweep_nodes,omitempty"`
	SweepCacheHits   int     `json:"sweep_cache_hits,omitempty"`
	SweepBaselineMS  float64 `json:"sweep_baseline_ms,omitempty"`
	SweepOptimizedMS float64 `json:"sweep_optimized_ms,omitempty"`

	// Long-horizon simulation accounting, populated only by the multi-epoch
	// sweep row (layout "longsim"). EpochSec is the deterministic mean
	// simulated epoch over the horizon; the counts split its epochs into
	// fabric simulations and memo hits.
	SimEpochs    int `json:"sim_epochs,omitempty"`
	SimResims    int `json:"sim_resims,omitempty"`
	SimCacheHits int `json:"sim_cache_hits,omitempty"`

	// Adaptive drift-loop accounting, populated only by the traffic-drift
	// row (layout "drift"). EpochSec is the adaptive run's deterministic
	// mean simulated epoch over the drifting horizon — the compare gate's
	// quantity — with the from-scratch oracle's mean and both sides'
	// migration bills recorded for the differential.
	DriftEpochs         int     `json:"drift_epochs,omitempty"`
	DriftEvents         int     `json:"drift_events,omitempty"`
	DriftTrips          int     `json:"drift_trips,omitempty"`
	DriftReplans        int     `json:"drift_replans,omitempty"`
	DriftMovedGiB       float64 `json:"drift_moved_gib,omitempty"`
	DriftOracleGiB      float64 `json:"drift_oracle_moved_gib,omitempty"`
	DriftOracleEpochSec float64 `json:"drift_oracle_epoch_sec,omitempty"`

	// Multi-node cluster accounting, populated only by the flow-planned
	// cluster row (layout "cluster"). EpochSec is the flow planner's
	// deterministic epoch on the reference configuration — the compare
	// gate's quantity — with the analytical composition's epoch and the
	// DistDGL baseline's epoch recorded alongside for the differential.
	ClusterNodes       int     `json:"cluster_nodes,omitempty"`
	ClusterNICGbps     float64 `json:"cluster_nic_gbps,omitempty"`
	ClusterReplication float64 `json:"cluster_replication,omitempty"`
	ClusterRemoteGiB   float64 `json:"cluster_remote_gib,omitempty"`
	ClusterNICSec      float64 `json:"cluster_nic_sec,omitempty"`
	ClusterFlowSec     float64 `json:"cluster_flow_sec,omitempty"`
	ClusterAnalyticSec float64 `json:"cluster_analytic_sec,omitempty"`
	ClusterDistDGLSec  float64 `json:"cluster_distdgl_sec,omitempty"`

	// Observability hot-path cost, populated only by the obs row (layout
	// "obs"): allocations per flight-recorder Record / explain Add call,
	// measured with testing.AllocsPerRun. The disabled paths must be
	// exactly zero — that is what makes always-on instrumentation free for
	// callers that never enable it. Pointers so an explicit 0 serializes.
	ObsDisabledEventAllocs   *int `json:"obs_disabled_event_allocs,omitempty"`
	ObsDisabledExplainAllocs *int `json:"obs_disabled_explain_allocs,omitempty"`
	ObsEnabledEventAllocs    *int `json:"obs_enabled_event_allocs,omitempty"`
}

func record(machine, dataset, layout string, model gnn.ModelKind, r *trainsim.Result) BenchRecord {
	return BenchRecord{
		Machine:        machine,
		Dataset:        dataset,
		Model:          model.String(),
		Layout:         layout,
		Policy:         trainsim.PolicyDDAK.String(),
		EpochSec:       r.EpochTime.Sec(),
		IOSec:          r.IOTime.Sec(),
		PredictedIOSec: r.PredictedIO.Sec(),
		ComputeSec:     r.ComputeTime.Sec(),
		SampleSec:      r.SampleTime.Sec(),
		HitGPU:         r.HitGPU,
		HitCPU:         r.HitCPU,
		QPIGiB:         r.QPIBytes / (1 << 30),
		ThroughputVPS:  r.Throughput,
	}
}

// BenchRecords simulates the core per-experiment grid — machines A and B on
// IG with each classic layout plus the Moment-searched placement — and
// returns one record per configuration.
func BenchRecords() ([]BenchRecord, error) {
	const dataset = "IG"
	w := wl(dataset, gnn.KindSAGE)
	var out []BenchRecord
	for _, m := range []*topology.Machine{topology.MachineA(), topology.MachineB()} {
		for _, l := range classicLayouts {
			r, err := epochClassic(m, l, w)
			if err != nil {
				return nil, fmt.Errorf("bench %s layout %s: %w", m.Name, l, err)
			}
			if r.OOM != "" {
				continue
			}
			out = append(out, record(m.Name, dataset, l.String(), gnn.KindSAGE, r))
		}
		r, _, err := searchMoment(m, w)
		if err != nil {
			return nil, fmt.Errorf("bench %s moment: %w", m.Name, err)
		}
		out = append(out, record(m.Name, dataset, "moment", gnn.KindSAGE, r))
	}
	return out, nil
}
