package maxflow

import (
	"math"
	"math/rand"
	"testing"
)

// buildWarmNet deterministically constructs one random horizon problem per
// seed — a layered supply→storage→interconnect→gpu→demand network with a
// guaranteed backbone (so demand is always connected) plus random extra
// rate edges — so MinTime and the bisection oracle can run on independent
// but identical copies.
func buildWarmNet(seed int64) *TimeBisector {
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

	// Supply: generous fixed budgets so storage is never the binding
	// constraint by construction (rates are).
	for _, sn := range storage {
		e := g.AddEdge(s, sn, 0)
		bis.AddFixedEdge(e, demand)
	}
	// Storage egress rate edges: backbone into mid 0 plus random extras.
	for i, sn := range storage {
		rate := float64(1+r.Intn(8)) * 1e9
		bis.AddRateEdge(g.AddEdge(sn, mids[0], 0), rate)
		if i%2 == 1 && nMid > 1 {
			rate2 := float64(1+r.Intn(8)) * 1e9
			bis.AddRateEdge(g.AddEdge(sn, mids[1+r.Intn(nMid-1)], 0), rate2)
		}
	}
	// Interconnect: mids fully chained, each mid feeds every GPU.
	link := func(u, v int) {
		rate := float64(2+r.Intn(16)) * 1e9
		bis.AddRateEdge(g.AddEdge(u, v, 0), rate)
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
	return bis
}

// agree fails the test unless MinTime and the bisection oracle agree
// within the oracle's relative tolerance (both may also agree on
// infeasibility).
func agree(t *testing.T, seed int64, tol float64, newton, oracle *TimeBisector) {
	t.Helper()
	tn, errN := newton.MinTime(tol)
	to, errO := bisectMinTime(oracle, tol)
	if (errN == nil) != (errO == nil) {
		t.Fatalf("seed %d: MinTime err %v, oracle err %v", seed, errN, errO)
	}
	if errN != nil {
		return
	}
	diff := math.Abs(tn - to)
	if diff > 2*tol*math.Max(tn, to)+Eps {
		t.Fatalf("seed %d: MinTime %.9g, bisection oracle %.9g (diff %.3g beyond tolerance)",
			seed, tn, to, diff)
	}
}

// TestWarmStartMatchesColdStart holds MinTime, whose probes after the
// first continue the previous flow warm, to the cold bisection oracle over
// 100 seeded topologies, and checks that warm continuation actually fires
// (otherwise the optimization is dead code).
func TestWarmStartMatchesColdStart(t *testing.T) {
	const tol = 1e-4
	totalWarm := 0
	for seed := int64(0); seed < 100; seed++ {
		newton, oracle := buildWarmNet(seed), buildWarmNet(seed)
		agree(t, seed, tol, newton, oracle)
		// Repeat solves on the same bisector must stay consistent too
		// (each MinTime starts cold at horizon 0).
		agree(t, seed, tol, newton, oracle)
		totalWarm += newton.WarmStarts
	}
	if totalWarm == 0 {
		t.Fatal("warm start never engaged across 100 topologies")
	}
}

// TestWarmStateStaleAfterExternalShrink guards a past warm-start bug: an
// edge capacity shrunk directly on the graph (bypassing the bisector)
// between probes. A probe that continued the flow solved before the
// shrink reported a horizon feasible that the shrunk graph cannot meet;
// Feasible solves cold, so it must see the shrink.
func TestWarmStateStaleAfterExternalShrink(t *testing.T) {
	g := New(3) // 0 = source, 1 = relay, 2 = sink
	sa := g.AddEdge(0, 1, 0)
	at := g.AddEdge(1, 2, 100)
	b := NewTimeBisector(g, 0, 2, 100)
	b.AddRateEdge(sa, 100)

	if !b.Feasible(1) {
		t.Fatal("horizon 1 must be feasible before the shrink")
	}
	// Shrink the unregistered relay edge directly. SetCapacity clears the
	// edge's flow, so the 100 bytes delivered at horizon 1 are gone.
	g.SetCapacity(at, 10)
	if b.Feasible(2) {
		t.Fatal("stale flow: horizon 2 reported feasible after the relay shrank to 10 bytes")
	}
	if b.Feasible(3) {
		t.Fatal("horizon 3 still infeasible with the relay at 10")
	}
}

// TestReinitDropsState verifies arena rebinding: registered edges, probe
// counters, and warm state all reset while the bisector struct is reused.
func TestReinitDropsState(t *testing.T) {
	b := buildWarmNet(5)
	if _, err := b.MinTime(1e-4); err != nil {
		t.Fatal(err)
	}
	if b.Probes == 0 || b.WarmStarts == 0 {
		t.Fatal("no probes or warm starts recorded before Reinit")
	}
	g2 := New(2)
	b.Reinit(g2, 0, 1, 42)
	if b.G != g2 || b.Demand != 42 {
		t.Fatal("Reinit did not rebind graph/demand")
	}
	if len(b.rateEdges) != 0 || len(b.fixedEdges) != 0 {
		t.Fatal("Reinit kept registered edges")
	}
	if b.Probes != 0 || b.Iterations != 0 || b.WarmStarts != 0 {
		t.Fatal("Reinit kept counters")
	}
	// The recycled bisector must solve a fresh problem correctly.
	e := g2.AddEdge(0, 1, 0)
	b.AddRateEdge(e, 42) // 42 bytes/sec, 42 bytes → 1 second
	got, err := b.MinTime(1e-6)
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
		b := buildWarmNet(seed)
		if _, err := b.MinTime(1e-4); err != nil {
			t.Fatal(err)
		}
		delivered := 0.0
		for _, e := range b.fixedEdges {
			u, _ := b.G.Endpoints(e)
			if u != b.S { // demand edges into the sink
				delivered += b.G.Flow(e)
			}
		}
		if math.Abs(delivered-b.Demand) > relEps(b.Demand)+Eps {
			t.Fatalf("seed %d: flow delivers %.6g of %.6g demand",
				seed, delivered, b.Demand)
		}
	}
}
