package verify

import (
	"math/rand"
	"strings"
	"testing"

	"moment/internal/ddak"
	"moment/internal/flownet"
	"moment/internal/maxflow"
	"moment/internal/placement"
	"moment/internal/topology"
)

const gb = 1 << 30

// demandA mirrors the representative epoch demand used by the flownet and
// placement suites: 100 GB per GPU with CPU-cache, peer-HBM, and SSD tiers.
func demandA(numGPU int) *flownet.Demand {
	per := make([]float64, numGPU)
	hbm := make([]float64, numGPU)
	for i := range per {
		per[i] = 100 * gb
		hbm[i] = 10 * gb
	}
	total := float64(numGPU) * 100 * gb
	return &flownet.Demand{
		PerGPU:   per,
		HBMPeer:  hbm,
		DRAM:     map[string]float64{"rc0": 25 * gb, "rc1": 25 * gb},
		SSDTotal: total - 50*gb - float64(numGPU)*10*gb,
	}
}

func solvedNetwork(t *testing.T, layout topology.ClassicLayout) *flownet.Network {
	t.Helper()
	m := topology.MachineA()
	p, err := topology.ClassicPlacement(m, layout)
	if err != nil {
		t.Fatal(err)
	}
	n, err := flownet.Build(m, p, demandA(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Solve(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestCheckNetworkCertifiesSolvedPlans(t *testing.T) {
	for _, l := range []topology.ClassicLayout{topology.LayoutA, topology.LayoutB, topology.LayoutC, topology.LayoutD} {
		n := solvedNetwork(t, l)
		if err := CheckNetwork(n); err != nil {
			t.Errorf("layout %v: %v", l, err)
		}
	}
}

func TestCheckNetworkDetectsCorruptedFlow(t *testing.T) {
	n := solvedNetwork(t, topology.LayoutC)
	// Clearing the flow on one carrying edge (SetCapacity resets its
	// residual) breaks conservation or the routed-equals-demand identity.
	corrupted := false
	for i := 0; i < n.G.M(); i++ {
		e := maxflow.EdgeID(2 * i)
		if n.G.Flow(e) > gb {
			n.G.SetCapacity(e, n.G.Capacity(e))
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("no flow-carrying edge found to corrupt")
	}
	if err := CheckNetwork(n); err == nil {
		t.Fatal("corrupted network passed the audit")
	}
}

func TestCheckNetworkZeroDemand(t *testing.T) {
	m := topology.MachineA()
	p, err := topology.ClassicPlacement(m, topology.LayoutC)
	if err != nil {
		t.Fatal(err)
	}
	n, err := flownet.Build(m, p, &flownet.Demand{PerGPU: make([]float64, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Solve(); err != nil {
		t.Fatal(err)
	}
	if err := CheckNetwork(n); err != nil {
		t.Fatalf("zero-demand network failed the audit: %v", err)
	}
}

func auditBins() []ddak.Bin {
	return []ddak.Bin{
		{Name: "hbm0", Tier: ddak.TierGPU, Capacity: 100, Traffic: 500},
		{Name: "dram0", Tier: ddak.TierCPU, Capacity: 300, Traffic: 300},
		{Name: "ssd0", Tier: ddak.TierSSD, Capacity: 10_000, Traffic: 100},
		{Name: "ssd1", Tier: ddak.TierSSD, Capacity: 10_000, Traffic: 0},
	}
}

func auditHot(n int) []float64 {
	rng := rand.New(rand.NewSource(7))
	hot := make([]float64, n)
	for i := range hot {
		hot[i] = rng.Float64() * 10
	}
	return hot
}

func TestCheckItemAssignmentAuditsPlaceItems(t *testing.T) {
	hot := auditHot(300)
	items := make([]ddak.Item, len(hot))
	for i, h := range hot {
		items[i] = ddak.Item{Hot: h, Bytes: 1 + float64(i%3)}
	}
	a, err := ddak.PlaceItems(items, auditBins(), 4, 900)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckItemAssignment(a, items); err != nil {
		t.Fatalf("genuine item layout failed the audit: %v", err)
	}

	a.Used[0] += 5
	if err := CheckItemAssignment(a, items); err == nil {
		t.Fatal("corrupted used accounting passed")
	} else if !strings.Contains(err.Error(), "used accounting") {
		t.Fatalf("wrong failure: %v", err)
	}
	a.Used[0] -= 5

	a.Of[0] = -1
	if err := CheckItemAssignment(a, items); err == nil {
		t.Fatal("out-of-range bin index passed")
	}
}

func TestCheckSearchResultAuditsSearch(t *testing.T) {
	m := topology.MachineA()
	d := demandA(4)
	res, err := placement.Search(m, d, placement.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSearchResult(m, d, res); err != nil {
		t.Fatalf("genuine search result failed the audit: %v", err)
	}

	tampered := *res
	tampered.Time = res.Time * 2
	if err := CheckSearchResult(m, d, &tampered); err == nil {
		t.Fatal("tampered time passed the audit")
	}
	tampered = *res
	tampered.Best = nil
	if err := CheckSearchResult(m, d, &tampered); err == nil {
		t.Fatal("missing winner passed the audit")
	}
}

func TestSearchDeterminismAcrossParallelism(t *testing.T) {
	m := topology.MachineA()
	if err := CheckSearchDeterminism(m, demandA(4), placement.Options{}); err != nil {
		t.Fatal(err)
	}
}

// The Enable/Disable round trip: hooks install, the hooked pipeline runs
// clean with self-checks live, and Disable removes every hook.
func TestEnableDisableHooks(t *testing.T) {
	if Enabled() {
		t.Fatal("verification enabled before Enable")
	}
	Enable()
	defer Disable()
	if !Enabled() || flownet.Check == nil || placement.Check == nil || ddak.CheckItems == nil {
		t.Fatal("Enable did not install all hooks")
	}
	Enable() // idempotent

	// Run the hooked planner paths end to end with self-checks live.
	n := solvedNetwork(t, topology.LayoutC)
	if n.SolvedHorizon() <= 0 {
		t.Fatal("solve under verification produced no horizon")
	}
	hot := auditHot(200)
	items := make([]ddak.Item, len(hot))
	for i, h := range hot {
		items[i] = ddak.Item{Hot: h, Bytes: 1}
	}
	if _, err := ddak.PlaceItems(items, auditBins(), 4, 900); err != nil {
		t.Fatalf("PlaceItems under verification: %v", err)
	}
	if _, err := placement.Search(topology.MachineA().WithGPUs(2), demandA(2), placement.Options{Parallelism: 2}); err != nil {
		t.Fatalf("Search under verification: %v", err)
	}

	Disable()
	if Enabled() || flownet.Check != nil || placement.Check != nil || ddak.CheckItems != nil {
		t.Fatal("Disable did not remove all hooks")
	}
	Disable() // idempotent
}
