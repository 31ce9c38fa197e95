package trainsim

import (
	"math"
	"testing"

	"moment/internal/gnn"
	"moment/internal/topology"
)

func simulate(t testing.TB, cfg Config) *Result {
	t.Helper()
	r, err := SimulateEpoch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.OOM != "" {
		t.Fatalf("unexpected OOM: %s", r.OOM)
	}
	return r
}

func classicCfg(t testing.TB, m *topology.Machine, l topology.ClassicLayout, ds string) Config {
	t.Helper()
	p, err := topology.ClassicPlacement(m, l)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Machine: m, Placement: p,
		Workload: Workload{Dataset: dataset(t, ds), Model: gnn.KindSAGE}}
}

func TestLayoutOrderingMachineA(t *testing.T) {
	m := topology.MachineA()
	times := map[topology.ClassicLayout]float64{}
	for _, l := range []topology.ClassicLayout{topology.LayoutA, topology.LayoutB, topology.LayoutC, topology.LayoutD} {
		times[l] = simulate(t, classicCfg(t, m, l, "IG")).EpochTime.Sec()
	}
	// Fig 1 ordering: (c) best, packed-GPU layouts ~1.6-2x worse.
	if !(times[topology.LayoutC] <= times[topology.LayoutA]*1.05) {
		t.Errorf("(c) should be best: %v", times)
	}
	if r := times[topology.LayoutB] / times[topology.LayoutC]; r < 1.4 {
		t.Errorf("(b)/(c) = %.2f, want >1.4 (paper 1.79)", r)
	}
	if r := times[topology.LayoutD] / times[topology.LayoutC]; r < 1.3 {
		t.Errorf("(d)/(c) = %.2f, want >1.3 (paper 1.62)", r)
	}
}

func TestLayoutOrderingMachineB(t *testing.T) {
	m := topology.MachineB()
	times := map[topology.ClassicLayout]float64{}
	for _, l := range []topology.ClassicLayout{topology.LayoutA, topology.LayoutB, topology.LayoutC, topology.LayoutD} {
		times[l] = simulate(t, classicCfg(t, m, l, "IG")).EpochTime.Sec()
	}
	// Fig 2 ordering: (c) < (d) < (a) <= (b).
	if !(times[topology.LayoutC] < times[topology.LayoutD]) {
		t.Errorf("(c) should beat (d): %v", times)
	}
	if !(times[topology.LayoutD] < times[topology.LayoutA]) {
		t.Errorf("(d) should beat (a): %v", times)
	}
	if times[topology.LayoutA] > times[topology.LayoutB]*1.05 {
		t.Errorf("(a) should be <= (b): %v", times)
	}
}

func TestMomentBeatsClassicsOnB(t *testing.T) {
	m := topology.MachineB()
	pm, err := topology.MomentPlacementB(m)
	if err != nil {
		t.Fatal(err)
	}
	mom := simulate(t, Config{Machine: m, Placement: pm,
		Workload: Workload{Dataset: dataset(t, "IG"), Model: gnn.KindSAGE}}).EpochTime.Sec()
	best := math.Inf(1)
	for _, l := range []topology.ClassicLayout{topology.LayoutA, topology.LayoutB, topology.LayoutC, topology.LayoutD} {
		if v := simulate(t, classicCfg(t, m, l, "IG")).EpochTime.Sec(); v < best {
			best = v
		}
	}
	// Fig 7 / Fig 12: Moment beats the best classic layout (paper: 1.41x;
	// the fluid fabric model lands near 1.2x — see EXPERIMENTS.md).
	if ratio := best / mom; ratio < 1.15 {
		t.Errorf("moment %.1fs vs best classic %.1fs (ratio %.2f, want >1.2)", mom, best, ratio)
	}
}

func TestDDAKBeatsHash(t *testing.T) {
	for _, mk := range []func() *topology.Machine{topology.MachineA, topology.MachineB} {
		m := mk()
		cfg := classicCfg(t, m, topology.LayoutC, "IG")
		dd := simulate(t, cfg)
		cfg.Policy = PolicyHash
		hh := simulate(t, cfg)
		// Fig 14/15: DDAK improves throughput (paper: up to 30.6%/34.0%).
		if hh.EpochTime.Sec() <= dd.EpochTime.Sec() {
			t.Errorf("%s: hash %.1fs should be slower than ddak %.1fs",
				m.Name, hh.EpochTime.Sec(), dd.EpochTime.Sec())
		}
		// DDAK reduces cross-QPI traffic (Fig 17).
		if m.Name == "A" && dd.QPIBytes >= hh.QPIBytes {
			t.Errorf("ddak QPI bytes %.0fGB >= hash %.0fGB", dd.QPIBytes/1e9, hh.QPIBytes/1e9)
		}
	}
}

func TestPartitionedSSDSlower(t *testing.T) {
	// Compare under the same (hash) data placement so only the SSD access
	// mode differs. On Machine B the SSDs sit at asymmetric points, so
	// static GPU-SSD binding forfeits aggregate flexibility.
	m := topology.MachineB()
	cfg := classicCfg(t, m, topology.LayoutC, "IG")
	cfg.Policy = PolicyHash
	shared := simulate(t, cfg)
	cfg.Mode = PartitionedSSD
	part := simulate(t, cfg)
	if part.EpochTime.Sec() < shared.EpochTime.Sec()*0.99 {
		t.Errorf("partitioned %.1fs beats shared %.1fs", part.EpochTime.Sec(), shared.EpochTime.Sec())
	}
}

func TestPartitionedSSDReplicaOOM(t *testing.T) {
	// With 1 TiB SSDs, 4 replicas of CL (4.1 TiB each) cannot fit 8 TiB.
	m := topology.MachineA()
	m.SSDCapacity = 1 << 40
	cfg := classicCfg(t, m, topology.LayoutC, "CL")
	cfg.Mode = PartitionedSSD
	r, err := SimulateEpoch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.OOM == "" {
		t.Error("expected SSD-capacity OOM for partitioned CL")
	}
}

func TestHostMemoryOOM(t *testing.T) {
	m := topology.MachineB()
	m.DRAMPerSocket = 1 << 34 // 16 GiB per socket: UK topology won't fit
	cfg := classicCfg(t, m, topology.LayoutC, "UK")
	r, err := SimulateEpoch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.OOM == "" {
		t.Error("expected host-memory OOM")
	}
}

func TestMomentRunsAllDatasets(t *testing.T) {
	// Fig 10: Moment completes PA, IG, UK and CL on a single machine.
	m := topology.MachineB()
	pm, err := topology.MomentPlacementB(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range []string{"PA", "IG", "UK", "CL"} {
		for _, model := range []gnn.ModelKind{gnn.KindSAGE, gnn.KindGAT} {
			r := simulate(t, Config{Machine: m, Placement: pm,
				Workload: Workload{Dataset: dataset(t, ds), Model: model}})
			if r.EpochTime <= 0 {
				t.Errorf("%s/%v: epoch %v", ds, model, r.EpochTime)
			}
			if r.Throughput <= 0 {
				t.Errorf("%s/%v: throughput %v", ds, model, r.Throughput)
			}
		}
	}
}

func TestGATSlowerComputeThanSAGE(t *testing.T) {
	m := topology.MachineA()
	p, err := topology.ClassicPlacement(m, topology.LayoutC)
	if err != nil {
		t.Fatal(err)
	}
	sage := simulate(t, Config{Machine: m, Placement: p,
		Workload: Workload{Dataset: dataset(t, "IG"), Model: gnn.KindSAGE}})
	gat := simulate(t, Config{Machine: m, Placement: p,
		Workload: Workload{Dataset: dataset(t, "IG"), Model: gnn.KindGAT}})
	if gat.ComputeTime.Sec() <= sage.ComputeTime.Sec() {
		t.Errorf("GAT compute %.1fs <= SAGE %.1fs", gat.ComputeTime.Sec(), sage.ComputeTime.Sec())
	}
}

func TestPredictionAccuracy(t *testing.T) {
	// Fig 13: max-flow prediction tracks the measured I/O time (paper max
	// error 8.61%; the fluid fabric adds some slack, so allow 30%).
	for _, mk := range []func() *topology.Machine{topology.MachineA, topology.MachineB} {
		m := mk()
		for _, ds := range []string{"PA", "IG"} {
			cfg := classicCfg(t, m, topology.LayoutC, ds)
			r := simulate(t, cfg)
			relErr := math.Abs(r.PredictedIO.Sec()-r.IOTime.Sec()) / r.IOTime.Sec()
			if relErr > 0.30 {
				t.Errorf("%s/%s: prediction error %.1f%% (pred %.1fs vs measured %.1fs)",
					m.Name, ds, relErr*100, r.PredictedIO.Sec(), r.IOTime.Sec())
			}
		}
	}
}

func TestScalingMomentVsPackedLayout(t *testing.T) {
	// Fig 16 flavor: Moment-style spread placement scales from 1->4 GPUs
	// far better than the packed layout (d).
	epoch := func(n int, l topology.ClassicLayout) float64 {
		m := topology.MachineA().WithGPUs(n)
		return simulate(t, classicCfg(t, m, l, "IG")).EpochTime.Sec()
	}
	spread1, spread4 := epoch(1, topology.LayoutC), epoch(4, topology.LayoutC)
	packed1, packed4 := epoch(1, topology.LayoutD), epoch(4, topology.LayoutD)
	spreadSpeedup := spread1 / spread4
	packedSpeedup := packed1 / packed4
	if spreadSpeedup < 1.2 {
		t.Errorf("spread scaling %.2fx too weak", spreadSpeedup)
	}
	if packedSpeedup > spreadSpeedup {
		t.Errorf("packed layout scales better (%.2fx) than spread (%.2fx)",
			packedSpeedup, spreadSpeedup)
	}
}

func TestNVLinkWithPartitionedCacheHelps(t *testing.T) {
	// Fig 18: adding NVLink bridges (and pairing caches across them)
	// improves throughput.
	base := topology.MachineA()
	pBase, err := topology.ClassicPlacement(base, topology.LayoutC)
	if err != nil {
		t.Fatal(err)
	}
	noNV := simulate(t, Config{Machine: base, Placement: pBase,
		Workload: Workload{Dataset: dataset(t, "IG"), Model: gnn.KindSAGE}})
	nv := base.WithNVLink(topology.NVLinkBridgeBW,
		topology.NVLinkPair{A: 0, B: 1}, topology.NVLinkPair{A: 2, B: 3})
	pNV, err := topology.ClassicPlacement(nv, topology.LayoutC)
	if err != nil {
		t.Fatal(err)
	}
	withNV := simulate(t, Config{Machine: nv, Placement: pNV, Cache: CachePaired,
		Workload: Workload{Dataset: dataset(t, "IG"), Model: gnn.KindSAGE}})
	if withNV.EpochTime.Sec() >= noNV.EpochTime.Sec() {
		t.Errorf("NVLink config %.2fs >= baseline %.2fs",
			withNV.EpochTime.Sec(), noNV.EpochTime.Sec())
	}
}

func TestPerGPUBandwidthAndQPI(t *testing.T) {
	m := topology.MachineB()
	pm, err := topology.MomentPlacementB(m)
	if err != nil {
		t.Fatal(err)
	}
	r := simulate(t, Config{Machine: m, Placement: pm,
		Workload: Workload{Dataset: dataset(t, "IG"), Model: gnn.KindSAGE}})
	if len(r.PerGPUIOBW) != 4 {
		t.Fatalf("per-GPU BW count %d", len(r.PerGPUIOBW))
	}
	for g, bw := range r.PerGPUIOBW {
		if bw <= 0 || bw > m.PCIeX16*2 {
			t.Errorf("gpu%d inlet %v implausible", g, bw)
		}
	}
	if r.QPIBytes < 0 {
		t.Error("negative QPI bytes")
	}
	if r.FabricEpoch <= 0 || r.FabricEpoch > r.FetchEpoch {
		t.Errorf("fabric bytes %.0f vs fetch %.0f", r.FabricEpoch, r.FetchEpoch)
	}
}

func TestSimulateEpochErrors(t *testing.T) {
	if _, err := SimulateEpoch(Config{}); err == nil {
		t.Error("nil machine accepted")
	}
	m := topology.MachineA()
	bad := &topology.Placement{GPUAt: []string{"rc0", "rc0", "rc0", "rc0"},
		SSDAt: make([]string, 8)}
	if _, err := SimulateEpoch(Config{Machine: m, Placement: bad,
		Workload: Workload{Dataset: dataset(t, "IG")}}); err == nil {
		t.Error("invalid placement accepted")
	}
}

func TestPolicyAndModeStrings(t *testing.T) {
	if PolicyDDAK.String() != "ddak" || PolicyHash.String() != "hash" {
		t.Error("policy names changed")
	}
}
