package flownet

import (
	"math"
	"testing"

	"moment/internal/topology"
)

// TestBuildReuseMatchesBuild rebuilds the same machine/placement/demand
// combinations through one scratch Network and checks every solve agrees
// with a fresh Build — the scratch must carry no state between occupants.
func TestBuildReuseMatchesBuild(t *testing.T) {
	type combo struct {
		m *topology.Machine
		l topology.ClassicLayout
	}
	combos := []combo{
		{topology.MachineA(), topology.LayoutA},
		{topology.MachineB(), topology.LayoutC},
		{topology.MachineA(), topology.LayoutB},
		{topology.MachineB(), topology.LayoutD},
		{topology.MachineA(), topology.LayoutA}, // revisit after larger machine
	}
	var scratch *Network
	for i, c := range combos {
		d := demandA(c.m.NumGPUs)
		p, err := topology.ClassicPlacement(c.m, c.l)
		if err != nil {
			t.Fatal(err)
		}
		reused, err := BuildReuse(c.m, p, d, scratch)
		if err != nil {
			t.Fatalf("combo %d: BuildReuse: %v", i, err)
		}
		if scratch != nil && reused != scratch {
			t.Fatalf("combo %d: BuildReuse allocated a new Network despite scratch", i)
		}
		scratch = reused
		fresh := build(t, c.m, c.l, d)
		tr, tf := epochTime(t, reused), epochTime(t, fresh)
		if math.Abs(tr-tf) > 1e-3*tf {
			t.Fatalf("combo %d: reused solve %v, fresh %v", i, tr, tf)
		}
		// Metrics read the same flow.
		br, _ := reused.Traffic()
		bf, _ := fresh.Traffic()
		var sr, sf float64
		for i := range br.SSD {
			sr += br.SSD[i]
			sf += bf.SSD[i]
		}
		if math.Abs(sr-sf) > 1 {
			t.Fatalf("combo %d: SSD traffic %v reused vs %v fresh", i, sr, sf)
		}
	}
}

// TestBuildReuseAfterError ensures a scratch that went through a failed
// build (validation error) is still accepted and produces correct results.
func TestBuildReuseAfterError(t *testing.T) {
	m := topology.MachineA()
	p, err := topology.ClassicPlacement(m, topology.LayoutA)
	if err != nil {
		t.Fatal(err)
	}
	d := demandA(m.NumGPUs)
	scratch, err := BuildReuse(m, p, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := &Demand{PerGPU: []float64{1}} // wrong GPU count
	if _, err := BuildReuse(m, p, bad, scratch); err == nil {
		t.Fatal("expected demand-shape error")
	}
	n, err := BuildReuse(m, p, d, scratch)
	if err != nil {
		t.Fatalf("reuse after error: %v", err)
	}
	want := epochTime(t, build(t, m, topology.LayoutA, d))
	if got := epochTime(t, n); math.Abs(got-want) > 1e-3*want {
		t.Fatalf("solve %v after failed build, want %v", got, want)
	}
}

// TestDemandFingerprint checks the equality/inequality contract: equal
// demands collide, any budget or structural change separates.
func TestDemandFingerprint(t *testing.T) {
	base := func() *Demand { return demandA(4) }
	fp := base().Fingerprint()
	if fp != base().Fingerprint() {
		t.Fatal("equal demands fingerprint differently")
	}
	mutations := map[string]func(*Demand){
		"per-gpu":    func(d *Demand) { d.PerGPU[2]++ },
		"hbm":        func(d *Demand) { d.HBMPeer[0]++ },
		"hbm-nil":    func(d *Demand) { d.HBMPeer = nil },
		"dram-value": func(d *Demand) { d.DRAM["rc0"]++ },
		"dram-key":   func(d *Demand) { delete(d.DRAM, "rc1"); d.DRAM["rc2"] = 25 * gb },
		"ssd-total":  func(d *Demand) { d.SSDTotal++ },
		"ssd-pinned": func(d *Demand) { d.SSDPer = []float64{d.SSDTotal}; d.SSDTotal = 0 },
	}
	for name, mut := range mutations {
		d := base()
		// deep-copy the map demandA shares nothing across calls except DRAM literals
		dram := map[string]float64{}
		for k, v := range d.DRAM {
			dram[k] = v
		}
		d.DRAM = dram
		mut(d)
		if d.Fingerprint() == fp {
			t.Errorf("%s: mutation did not change fingerprint", name)
		}
	}
	// Map iteration order must not matter.
	a := base()
	a.DRAM = map[string]float64{"rc0": 1, "rc1": 2, "rc2": 3}
	b := base()
	b.DRAM = map[string]float64{"rc2": 3, "rc1": 2, "rc0": 1}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("DRAM map order changed fingerprint")
	}
}

// TestBuildReuseAllocs bounds steady-state allocations of the arena path:
// after warm-up, rebuilding the same-shaped network must stay far below a
// fresh Build (which allocates the graph, maps, and slices every time).
func TestBuildReuseAllocs(t *testing.T) {
	m := topology.MachineA()
	p, err := topology.ClassicPlacement(m, topology.LayoutA)
	if err != nil {
		t.Fatal(err)
	}
	d := demandA(m.NumGPUs)
	scratch, err := BuildReuse(m, p, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	reuse := testing.AllocsPerRun(100, func() {
		if _, err := BuildReuse(m, p, d, scratch); err != nil {
			t.Fatal(err)
		}
	})
	fresh := testing.AllocsPerRun(100, func() {
		if _, err := Build(m, p, d); err != nil {
			t.Fatal(err)
		}
	})
	if reuse > fresh/2 {
		t.Errorf("BuildReuse allocates %.0f/run vs fresh %.0f/run; want < half", reuse, fresh)
	}
}
