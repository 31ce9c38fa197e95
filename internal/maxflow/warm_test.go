package maxflow

import (
	"math"
	"math/rand"
	"testing"

	"moment/internal/faults"
)

// warmNet is one randomly generated bisection problem: a layered
// supply→storage→interconnect→gpu→demand network with a guaranteed
// backbone (so demand is always connected) plus random extra rate edges.
type warmNet struct {
	g        *Graph
	bis      *TimeBisector
	ssdRate  []EdgeID // storage egress rate edges, throttle targets
	ssdBase  []float64
	linkRate []EdgeID // interconnect rate edges, downtrain targets
	linkBase []float64
}

// buildWarmNet deterministically constructs the same network for a seed, so
// a warm and a cold bisector can run on independent but identical copies.
func buildWarmNet(seed int64, disableWarm bool) *warmNet {
	r := rand.New(rand.NewSource(seed))
	nStorage := 2 + r.Intn(3)
	nMid := 1 + r.Intn(3)
	nGPU := 2 + r.Intn(3)

	g := New(2)
	s, t := 0, 1
	storage := make([]int, nStorage)
	for i := range storage {
		storage[i] = g.AddNode("ssd")
	}
	mids := make([]int, nMid)
	for i := range mids {
		mids[i] = g.AddNode("mid")
	}
	gpus := make([]int, nGPU)
	for i := range gpus {
		gpus[i] = g.AddNode("gpu")
	}

	demand := 0.0
	perGPU := make([]float64, nGPU)
	for i := range perGPU {
		perGPU[i] = float64(50+r.Intn(200)) * 1e9
		demand += perGPU[i]
	}
	bis := NewTimeBisector(g, s, t, demand)
	bis.DisableWarmStart = disableWarm

	w := &warmNet{g: g, bis: bis}

	// Supply: generous fixed budgets so storage is never the binding
	// constraint by construction (rates are).
	for _, sn := range storage {
		e := g.AddEdge(s, sn, 0)
		bis.AddFixedEdge(e, demand)
	}
	// Storage egress rate edges: backbone into mid 0 plus random extras.
	for i, sn := range storage {
		rate := float64(1+r.Intn(8)) * 1e9
		e := g.AddEdge(sn, mids[0], 0)
		bis.AddRateEdge(e, rate)
		w.ssdRate = append(w.ssdRate, e)
		w.ssdBase = append(w.ssdBase, rate)
		if i%2 == 1 && nMid > 1 {
			rate2 := float64(1+r.Intn(8)) * 1e9
			e2 := g.AddEdge(sn, mids[1+r.Intn(nMid-1)], 0)
			bis.AddRateEdge(e2, rate2)
			w.ssdRate = append(w.ssdRate, e2)
			w.ssdBase = append(w.ssdBase, rate2)
		}
	}
	// Interconnect: mids fully chained, each mid feeds every GPU.
	link := func(u, v int) {
		rate := float64(2+r.Intn(16)) * 1e9
		e := g.AddEdge(u, v, 0)
		bis.AddRateEdge(e, rate)
		w.linkRate = append(w.linkRate, e)
		w.linkBase = append(w.linkBase, rate)
	}
	for i := 0; i+1 < nMid; i++ {
		link(mids[i], mids[i+1])
	}
	for _, mid := range mids {
		for _, gpu := range gpus {
			link(mid, gpu)
		}
	}
	// Demand edges.
	for i, gpu := range gpus {
		e := g.AddEdge(gpu, t, 0)
		bis.AddFixedEdge(e, perGPU[i])
	}
	return w
}

// degrade applies a fault injector's time-t factors to the network's rate
// schedules (SSD egress via SSDFactor, interconnect via LinkFactor).
func (w *warmNet) degrade(t *testing.T, in *faults.Injector, at float64) {
	t.Helper()
	for i, e := range w.ssdRate {
		f := in.SSDFactor(i, at)
		if err := w.bis.SetRate(e, w.ssdBase[i]*f); err != nil {
			t.Fatal(err)
		}
	}
	for i, e := range w.linkRate {
		f := in.LinkFactor("up:sw0", at)
		if err := w.bis.SetRate(e, w.linkBase[i]*f); err != nil {
			t.Fatal(err)
		}
	}
}

// agree fails the test unless warm and cold MinTime answers match within
// the search's relative tolerance (both may also agree on infeasibility).
func agree(t *testing.T, seed int64, tol float64, warm, cold *TimeBisector) {
	t.Helper()
	tw, errW := warm.MinTime(tol)
	tc, errC := cold.MinTime(tol)
	if (errW == nil) != (errC == nil) {
		t.Fatalf("seed %d: warm err %v, cold err %v", seed, errW, errC)
	}
	if errW != nil {
		return
	}
	diff := math.Abs(tw - tc)
	if diff > 2*tol*math.Max(tw, tc)+Eps {
		t.Fatalf("seed %d: warm MinTime %.9g, cold %.9g (diff %.3g beyond tolerance)",
			seed, tw, tc, diff)
	}
}

// TestWarmStartMatchesColdStart is the satellite property test: over 100
// seeded topologies, the warm-started bisector and a cold reference agree
// within the existing relative tolerance, and warm continuation actually
// fires (otherwise the optimization is dead code).
func TestWarmStartMatchesColdStart(t *testing.T) {
	const tol = 1e-4
	totalWarm := 0
	for seed := int64(0); seed < 100; seed++ {
		warm := buildWarmNet(seed, false)
		cold := buildWarmNet(seed, true)
		agree(t, seed, tol, warm.bis, cold.bis)
		totalWarm += warm.bis.WarmStarts
		if cold.bis.WarmStarts != 0 {
			t.Fatalf("seed %d: DisableWarmStart bisector warm-started %d times",
				seed, cold.bis.WarmStarts)
		}
		// Repeat solves on the same bisector must stay consistent too
		// (each MinTime drops the previous solve's warm state).
		agree(t, seed, tol, warm.bis, cold.bis)
	}
	if totalWarm == 0 {
		t.Fatal("warm start never engaged across 100 topologies")
	}
}

// TestWarmStartUnderFaultSchedules replays deterministic fault-degraded
// capacity schedules (SSD throttles and link downtrains from
// internal/faults) against warm and cold bisectors: after every schedule
// step both must agree. Each MinTime starts cold at horizon 0, so a
// schedule change between solves never meets a warm flow; the abort rule
// itself is pinned by TestWarmAbortSelfDetection.
func TestWarmStartUnderFaultSchedules(t *testing.T) {
	const tol = 1e-4
	warmSeen := 0
	for seed := int64(0); seed < 20; seed++ {
		sched := &faults.Schedule{
			Seed: seed,
			Events: []faults.Event{
				faults.ThrottleSSD(0, 2, 0.5, 6),
				faults.ThrottleSSD(1, 5, 0.25, 5),
				faults.Downtrain("up:sw0", 4, 0.5, 4),
			},
		}
		in, err := faults.NewInjector(sched)
		if err != nil {
			t.Fatal(err)
		}
		warm := buildWarmNet(seed, false)
		cold := buildWarmNet(seed, true)
		for _, at := range []float64{0, 3, 6, 9, 12} {
			warm.degrade(t, in, at)
			cold.degrade(t, in, at)
			agree(t, seed, tol, warm.bis, cold.bis)
		}
		warmSeen += warm.bis.WarmStarts
	}
	if warmSeen == 0 {
		t.Fatal("warm start never engaged under fault schedules")
	}
}

// TestWarmAbortSelfDetection pins the abandonment rule precisely: a probe
// at a growing horizon after a rate decrease must abort warm continuation
// (never silently reuse a now-invalid flow), and the post-abort answer must
// match a from-scratch bisector.
func TestWarmAbortSelfDetection(t *testing.T) {
	build := func() *warmNet { return buildWarmNet(7, false) }
	w := build()
	probe := 5.0
	w.bis.Feasible(probe) // cold: establishes warm state at the probe horizon
	if w.bis.WarmStarts != 0 || w.bis.WarmAborts != 0 {
		t.Fatalf("counters after first probe: starts=%d aborts=%d",
			w.bis.WarmStarts, w.bis.WarmAborts)
	}

	// Growing horizon, unchanged schedule: must warm-start.
	w.bis.Feasible(probe * 1.5)
	if w.bis.WarmStarts != 1 {
		t.Fatalf("growing-horizon probe did not warm-start (starts=%d)", w.bis.WarmStarts)
	}

	// Halve one rate: the next growing-horizon probe sees a shrunk
	// capacity and must self-detect, abort, and cold-solve.
	if err := w.bis.SetRate(w.ssdRate[0], w.ssdBase[0]*0.5); err != nil {
		t.Fatal(err)
	}
	got := w.bis.Feasible(probe * 2)
	if w.bis.WarmAborts != 1 {
		t.Fatalf("non-monotone change not detected (aborts=%d)", w.bis.WarmAborts)
	}
	fresh := build()
	if err := fresh.bis.SetRate(fresh.ssdRate[0], fresh.ssdBase[0]*0.5); err != nil {
		t.Fatal(err)
	}
	if want := fresh.bis.Feasible(probe * 2); got != want {
		t.Fatalf("post-abort Feasible = %v, fresh bisector says %v", got, want)
	}

	// A fixed-budget decrease must likewise abort.
	w2 := build()
	w2.bis.Feasible(probe)
	var fixedEdge EdgeID = -1
	for _, e := range w2.bis.fixedEdges {
		fixedEdge = e
		break
	}
	if err := w2.bis.SetFixed(fixedEdge, 1); err != nil {
		t.Fatal(err)
	}
	w2.bis.Feasible(probe * 2)
	if w2.bis.WarmAborts != 1 {
		t.Fatalf("fixed-budget decrease not detected (aborts=%d)", w2.bis.WarmAborts)
	}

	// Shrinking horizons are the expected bisection pattern, not a
	// schedule violation: cold re-solve without counting an abort.
	w3 := build()
	w3.bis.Feasible(probe)
	w3.bis.Feasible(probe / 2)
	if w3.bis.WarmAborts != 0 {
		t.Fatalf("shrinking horizon miscounted as abort (aborts=%d)", w3.bis.WarmAborts)
	}
}

// TestSetRateSetFixedValidation covers the error paths of the schedule
// mutators.
func TestSetRateSetFixedValidation(t *testing.T) {
	w := buildWarmNet(3, false)
	if err := w.bis.SetRate(w.ssdRate[0], -1); err == nil {
		t.Error("negative rate accepted")
	}
	if err := w.bis.SetRate(w.ssdRate[0], math.NaN()); err == nil {
		t.Error("NaN rate accepted")
	}
	if err := w.bis.SetRate(9999, 1); err == nil {
		t.Error("unknown rate edge accepted")
	}
	if err := w.bis.SetFixed(w.ssdRate[0], 1); err == nil {
		t.Error("rate edge accepted as fixed edge")
	}
	if err := w.bis.SetFixed(9999, math.Inf(-1)); err == nil {
		t.Error("invalid byte budget accepted")
	}
}

// TestInvalidateWarmForcesCold verifies the explicit escape hatch for
// callers that mutate the graph behind the bisector's back.
func TestInvalidateWarmForcesCold(t *testing.T) {
	w := buildWarmNet(11, false)
	w.bis.Feasible(4)
	w.bis.InvalidateWarm()
	w.bis.Feasible(8) // growing horizon, but warm state was discarded
	if w.bis.WarmStarts != 0 {
		t.Fatalf("warm start fired after InvalidateWarm (starts=%d)", w.bis.WarmStarts)
	}
	if w.bis.WarmAborts != 0 {
		t.Fatalf("InvalidateWarm path miscounted as abort (aborts=%d)", w.bis.WarmAborts)
	}
}

// TestReinitDropsState verifies arena rebinding: registered edges, probe
// counters, and warm state all reset while the bisector struct is reused.
func TestReinitDropsState(t *testing.T) {
	w := buildWarmNet(5, false)
	if _, err := w.bis.MinTime(1e-4); err != nil {
		t.Fatal(err)
	}
	if w.bis.Probes == 0 {
		t.Fatal("no probes recorded before Reinit")
	}
	g2 := New(2)
	w.bis.Reinit(g2, 0, 1, 42)
	if w.bis.G != g2 || w.bis.Demand != 42 {
		t.Fatal("Reinit did not rebind graph/demand")
	}
	if len(w.bis.rateEdges) != 0 || len(w.bis.fixedEdges) != 0 {
		t.Fatal("Reinit kept registered edges")
	}
	if w.bis.Probes != 0 || w.bis.WarmStarts != 0 || w.bis.WarmAborts != 0 || w.bis.warmOK {
		t.Fatal("Reinit kept counters or warm state")
	}
	// The recycled bisector must solve a fresh problem correctly.
	e := g2.AddEdge(0, 1, 0)
	w.bis.AddRateEdge(e, 42) // 42 bytes/sec, 42 bytes → 1 second
	got, err := w.bis.MinTime(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-3 {
		t.Fatalf("recycled bisector MinTime = %v, want ~1", got)
	}
}

// TestWarmStartLeavesUsableFlow ensures the flow left on the graph after a
// warm-started MinTime routes exactly the demand (the property flownet's
// metric accessors rely on).
func TestWarmStartLeavesUsableFlow(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		w := buildWarmNet(seed, false)
		if _, err := w.bis.MinTime(1e-4); err != nil {
			t.Fatal(err)
		}
		delivered := 0.0
		for _, e := range w.bis.fixedEdges {
			u, _ := w.g.Endpoints(e)
			if u != w.bis.S { // demand edges into the sink
				delivered += w.g.Flow(e)
			}
		}
		if math.Abs(delivered-w.bis.Demand) > relEps(w.bis.Demand)+Eps {
			t.Fatalf("seed %d: flow delivers %.6g of %.6g demand",
				seed, delivered, w.bis.Demand)
		}
	}
}
