package moment

// The bench harness: one benchmark per paper table/figure (regenerating the
// full experiment each iteration) plus micro-benchmarks for the core
// algorithmic components. Run everything with
//
//	go test -bench=. -benchmem
//
// and a single figure with e.g. -bench=BenchmarkFigure10.

import (
	"math/rand"
	"testing"

	"moment/internal/ddak"
	"moment/internal/experiments"
	"moment/internal/graph"
	"moment/internal/maxflow"
	"moment/internal/placement"
	"moment/internal/sample"
	"moment/internal/scorecache"
	"moment/internal/simnet"
	"moment/internal/tensor"
	"moment/internal/trainsim"
)

func benchTable(b *testing.B, gen func() (*experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := gen()
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable1Machines(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) { return experiments.Machines(), nil })
}

func BenchmarkTable2Datasets(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) { return experiments.Datasets(), nil })
}

func BenchmarkFigure01(b *testing.B) { benchTable(b, experiments.Figure1) }
func BenchmarkFigure02(b *testing.B) { benchTable(b, experiments.Figure2) }
func BenchmarkFigure03(b *testing.B) { benchTable(b, experiments.Figure3) }
func BenchmarkFigure04(b *testing.B) { benchTable(b, experiments.Figure4) }
func BenchmarkFigure05(b *testing.B) { benchTable(b, experiments.Figure5) }
func BenchmarkFigure06(b *testing.B) { benchTable(b, experiments.Figure6) }
func BenchmarkFigure07(b *testing.B) { benchTable(b, experiments.Figure7) }
func BenchmarkFigure10(b *testing.B) { benchTable(b, experiments.Figure10) }
func BenchmarkFigure11(b *testing.B) { benchTable(b, experiments.Figure11) }
func BenchmarkFigure12(b *testing.B) { benchTable(b, experiments.Figure12) }
func BenchmarkFigure13(b *testing.B) { benchTable(b, experiments.Figure13) }
func BenchmarkFigure14(b *testing.B) { benchTable(b, experiments.Figure14) }
func BenchmarkFigure15(b *testing.B) { benchTable(b, experiments.Figure15) }
func BenchmarkFigure16(b *testing.B) { benchTable(b, experiments.Figure16) }
func BenchmarkFigure17(b *testing.B) { benchTable(b, experiments.Figure17) }
func BenchmarkFigure18(b *testing.B) { benchTable(b, experiments.Figure18) }

func BenchmarkCostTable(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) { return experiments.CostTable(), nil })
}
func BenchmarkInletBandwidth(b *testing.B)    { benchTable(b, experiments.InletBandwidth) }
func BenchmarkPreprocessingCost(b *testing.B) { benchTable(b, experiments.PreprocessingCost) }

// Ablations called out in DESIGN.md §5.
func BenchmarkAblationSymmetry(b *testing.B) { benchTable(b, experiments.AblationSymmetry) }
func BenchmarkAblationPooling(b *testing.B)  { benchTable(b, experiments.AblationPooling) }

// --- Micro-benchmarks: algorithmic components -------------------------

func randomFlowNetwork(n, m int, seed int64) (*maxflow.Graph, int, int) {
	r := rand.New(rand.NewSource(seed))
	g := maxflow.New(n)
	for i := 0; i < m; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			g.AddEdge(u, v, float64(1+r.Intn(100)))
		}
	}
	return g, 0, n - 1
}

func BenchmarkMaxFlowDinic(b *testing.B) {
	g, src, sink := randomFlowNetwork(200, 2000, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.MaxFlow(src, sink)
	}
}

func benchSearch(b *testing.B, opt placement.Options) {
	b.Helper()
	m := MachineB()
	dem, _, err := trainsim.PlanDemand(trainsim.Config{
		Machine:  m,
		Workload: Workload{Dataset: MustDataset("IG"), Model: GraphSAGE},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := placement.Search(m, dem, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlacementSearchMachineB(b *testing.B) { benchSearch(b, placement.Options{}) }

// Cached measures a fully warm score cache.
func BenchmarkPlacementSearchCached(b *testing.B) {
	cache := scorecache.NewScores(1 << 16)
	benchSearch(b, placement.Options{Cache: cache})
}

func BenchmarkDDAKPlace100k(b *testing.B) {
	hot, err := sample.ZipfHotness(100_000, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	items := make([]ddak.Item, len(hot))
	for i := range items {
		items[i] = ddak.Item{Hot: hot[i], Bytes: 4096}
	}
	bins := []ddak.Bin{
		{Name: "hbm", Tier: ddak.TierGPU, Capacity: 40 << 20, Traffic: 0.4},
		{Name: "dram", Tier: ddak.TierCPU, Capacity: 80 << 20, Traffic: 0.2},
		{Name: "ssd0", Tier: ddak.TierSSD, Capacity: 1 << 30, Traffic: 0.2},
		{Name: "ssd1", Tier: ddak.TierSSD, Capacity: 1 << 30, Traffic: 0.2},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ddak.PlaceItems(items, bins, 100, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDDAKDelta times the incremental re-solve the drift loop runs on
// each detector trip: machine B's layout-C epoch over IG's 2,000 rank
// buckets with partitioned GPU caches, one seeded shuffle of magnitude 0.2,
// and the drift loop's default move budget of half the bytes.
func BenchmarkDDAKDelta(b *testing.B) {
	m := MachineB()
	p, err := ClassicPlacement(m, LayoutC)
	if err != nil {
		b.Fatal(err)
	}
	epoch, err := Simulate(SimConfig{Machine: m, Placement: p,
		Workload: Workload{Dataset: MustDataset("IG"), Model: GraphSAGE},
		Cache:    CachePartitioned, VirtualVertices: 2000})
	if err != nil {
		b.Fatal(err)
	}
	st, a := epoch.Stats, epoch.BinAssign
	prev := make([]ddak.Item, len(st.VirtualHot))
	for k := range prev {
		prev[k] = ddak.Item{Hot: st.VirtualHot[k], Bytes: st.VirtualBytes[k]}
	}
	next := append([]ddak.Item(nil), prev...)
	r := rand.New(rand.NewSource(1))
	for k := 0; k < int(0.2*float64(len(next))+0.5); k++ {
		x, y := r.Intn(len(next)), r.Intn(len(next))
		next[x].Hot, next[y].Hot = next[y].Hot, next[x].Hot
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ddak.PlaceItemsDelta(prev, a, next, a.Bins, 100, st.FetchBytesEpoch, ddak.DeltaOptions{MaxMoveFrac: 0.5}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSampling2Hop(b *testing.B) {
	g, err := graph.GenZipf(100_000, 12, 0.9, 3)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sample.NewSampler(g, []int{25, 10}, 1)
	if err != nil {
		b.Fatal(err)
	}
	seeds := make([]int32, 512)
	for i := range seeds {
		seeds[i] = int32(i * 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Sample(seeds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTensorMatMul256(b *testing.B) {
	x := tensor.Rand(512, 512, 1)
	w := tensor.Rand(512, 256, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tensor.MatMul(x, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFabricSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net := simnet.New()
		var links []simnet.LinkID
		for j := 0; j < 20; j++ {
			l, err := net.AddLink("l", float64(1+j))
			if err != nil {
				b.Fatal(err)
			}
			links = append(links, l)
		}
		r := rand.New(rand.NewSource(7))
		for f := 0; f < 60; f++ {
			path := []simnet.LinkID{links[r.Intn(20)], links[r.Intn(20)]}
			if _, err := net.AddFlow("f", path, float64(100+r.Intn(1000)), 0); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := net.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEpochSimulation(b *testing.B) {
	m := MachineA()
	p, err := ClassicPlacement(m, LayoutC)
	if err != nil {
		b.Fatal(err)
	}
	cfg := SimConfig{Machine: m, Placement: p,
		Workload: Workload{Dataset: MustDataset("IG"), Model: GraphSAGE}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoOptimize(b *testing.B) {
	m := MachineB()
	w := Workload{Dataset: MustDataset("IG"), Model: GraphSAGE}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(m, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFunctionalTrainingEpoch(b *testing.B) {
	res, err := TrainScaled(TrainConfig{
		Dataset: MustDataset("PA"), Model: GraphSAGE,
		Vertices: 1000, Epochs: 1, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	_ = res
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainScaled(TrainConfig{
			Dataset: MustDataset("PA"), Model: GraphSAGE,
			Vertices: 1000, Epochs: 1, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSSDMicrobench(b *testing.B) { benchTable(b, experiments.SSDMicrobench) }

func BenchmarkGeneralization(b *testing.B) { benchTable(b, experiments.Generalization) }

func BenchmarkAdaptiveDrift(b *testing.B) { benchTable(b, experiments.AdaptiveDrift) }
