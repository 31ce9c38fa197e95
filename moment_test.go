package moment

import (
	"math"
	"strings"
	"testing"
)

func TestOptimizeQuickstart(t *testing.T) {
	plan, err := Optimize(MachineB(), Workload{Dataset: MustDataset("IG"), Model: GraphSAGE})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Placement == nil || plan.Epoch == nil {
		t.Fatal("incomplete plan")
	}
	if !strings.Contains(plan.Report(), "selected placement") {
		t.Error("report incomplete")
	}
}

// TestOptimizeWholeFeatureSetCached plans machines whose GPU caches hold
// the whole feature set. The cache hit mass sums the hotness to 1 plus
// rounding, which once drove the per-GPU fabric demand below zero and
// panicked the max-flow solver.
func TestOptimizeWholeFeatureSetCached(t *testing.T) {
	for _, c := range []struct{ dataset, gpus string }{
		{"PA", "gpus 4 mem=500GiB cachefrac=1"},
		{"CL", "gpus 4 mem=100000GiB cachefrac=1"},
	} {
		lines := strings.Split(FormatMachine(MachineB()), "\n")
		for i, l := range lines {
			if strings.HasPrefix(l, "gpus ") {
				lines[i] = c.gpus
			}
		}
		m, err := ParseMachine(strings.NewReader(strings.Join(lines, "\n")))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := Optimize(m, Workload{Dataset: MustDataset(c.dataset), Model: GraphSAGE})
		if err != nil {
			t.Fatalf("%s with %q: %v", c.dataset, c.gpus, err)
		}
		if math.Abs(plan.Epoch.HitGPU-1) > 1e-9 || plan.Epoch.IOTime != 0 {
			t.Errorf("%s with %q: GPU hit rate %v, I/O %v; want 1 and 0", c.dataset, c.gpus, plan.Epoch.HitGPU, plan.Epoch.IOTime)
		}
	}
}

func TestFacadeRoundTrips(t *testing.T) {
	m := MachineA()
	spec := FormatMachine(m)
	back, err := ParseMachine(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "A" || back.NumGPUs != 4 {
		t.Errorf("round trip lost identity: %+v", back)
	}
	if len(Datasets()) != 4 {
		t.Error("catalog size changed")
	}
	if _, err := DatasetByName("UK"); err != nil {
		t.Error(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustDataset should panic on unknown name")
		}
	}()
	MustDataset("nope")
}

func TestSimulateClassicLayout(t *testing.T) {
	m := MachineA()
	p, err := ClassicPlacement(m, LayoutC)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Simulate(SimConfig{Machine: m, Placement: p,
		Workload: Workload{Dataset: MustDataset("PA"), Model: GAT}})
	if err != nil {
		t.Fatal(err)
	}
	if r.OOM != "" || r.EpochTime <= 0 {
		t.Errorf("bad result: %+v", r)
	}
}

func TestBaselineFacade(t *testing.T) {
	m := MachineA()
	p, err := ClassicPlacement(m, LayoutC)
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{Dataset: MustDataset("PA"), Model: GraphSAGE}
	if _, err := MGIDS(m, p, w); err != nil {
		t.Error(err)
	}
	if _, err := MHyperion(m, p, w); err != nil {
		t.Error(err)
	}
	if _, err := DistDGL(MachineC(), DefaultDistDGL(), w); err != nil {
		t.Error(err)
	}
	if _, err := PublishedPlacementB(MachineB()); err != nil {
		t.Error(err)
	}
}
