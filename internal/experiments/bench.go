package experiments

import (
	"fmt"

	"moment/internal/gnn"
	"moment/internal/topology"
	"moment/internal/trainsim"
)

// BenchRecord is one machine-readable benchmark data point: a (machine,
// dataset, layout, policy) configuration of the paper grid with its
// simulated per-stage timings. Records serialize as JSON suitable for
// committing as BENCH_*.json and for regression diffing across PRs.
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
