package experiments

import (
	"fmt"

	"moment/internal/baselines"
	"moment/internal/core"
	"moment/internal/gnn"
	"moment/internal/graph"
	"moment/internal/placement"
	"moment/internal/topology"
	"moment/internal/trainsim"
)

var classicLayouts = []topology.ClassicLayout{
	topology.LayoutA, topology.LayoutB, topology.LayoutC, topology.LayoutD,
}

func ds(name string) graph.Dataset {
	d, err := graph.DatasetByName(name)
	if err != nil {
		panic(err) // catalog names are compile-time constants here
	}
	return d
}

func wl(dataset string, model gnn.ModelKind) trainsim.Workload {
	return trainsim.Workload{Dataset: ds(dataset), Model: model}
}

// epochClassic simulates the default (Moment-runtime) epoch for a classic
// layout.
func epochClassic(m *topology.Machine, l topology.ClassicLayout, w trainsim.Workload) (*trainsim.Result, error) {
	p, err := topology.ClassicPlacement(m, l)
	if err != nil {
		return nil, err
	}
	return trainsim.SimulateEpoch(trainsim.Config{Machine: m, Placement: p, Workload: w})
}

// searchMoment runs the placement search and simulates the winner.
func searchMoment(m *topology.Machine, w trainsim.Workload) (*trainsim.Result, *topology.Placement, error) {
	plan, err := core.CoOptimize(core.Input{Machine: m, Workload: w})
	if err != nil {
		return nil, nil, err
	}
	return plan.Epoch, plan.Placement, nil
}

// Machines reproduces Table 1: the evaluated platforms.
func Machines() *Table {
	t := &Table{
		ID:      "table1",
		Title:   "Evaluated platforms (Table 1)",
		Columns: []string{"gpus", "ssds", "dram-gib", "nodes"},
	}
	for _, m := range []*topology.Machine{topology.MachineA(), topology.MachineB(), topology.MachineC()} {
		t.Rows = append(t.Rows, Row{Label: "machine " + m.Name, Cells: []Cell{
			Num(float64(m.NumGPUs)),
			Num(float64(m.NumSSDs)),
			Num(float64(m.DRAMPerSocket.Int64()) * float64(len(m.RootComplexes())) / (1 << 30)),
			Num(float64(m.NumNodes)),
		}})
	}
	return t
}

// Datasets reproduces Table 2: dataset statistics.
func Datasets() *Table {
	t := &Table{
		ID:      "table2",
		Title:   "Dataset statistics (Table 2)",
		Columns: []string{"vertices-M", "edges-B", "topo-gib", "feat-gib"},
	}
	for _, d := range graph.Catalog() {
		t.Rows = append(t.Rows, Row{Label: d.Name, Cells: []Cell{
			Num(float64(d.Vertices) / 1e6),
			Num(float64(d.Edges) / 1e9),
			Num(d.TopologyStorage.GiBf()),
			Num(d.FeatureStorage.GiBf()),
		}})
	}
	return t
}

// figure12 generates Fig 1 (machine A) or Fig 2 (machine B): epoch time of
// the four classic layouts, GraphSAGE on IGB.
func figure12(m *topology.Machine, id, paperRef string) (*Table, error) {
	t := &Table{
		ID:      id,
		Title:   fmt.Sprintf("Epoch time of classic hardware layouts on machine %s, GraphSAGE/IGB (%s)", m.Name, paperRef),
		Columns: []string{"epoch-s"},
	}
	w := wl("IG", gnn.KindSAGE)
	for _, l := range classicLayouts {
		r, err := epochClassic(m, l, w)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, Row{Label: l.String(), Cells: []Cell{Num(r.EpochTime.Sec())}})
	}
	return t, nil
}

// Figure1 reproduces Fig 1 (paper epoch times 15.9 / 26.7 / 14.9 / 24.1 s).
func Figure1() (*Table, error) { return figure12(topology.MachineA(), "fig1", "paper Fig 1") }

// Figure2 reproduces Fig 2 (paper epoch times 28.4 / 29.7 / 18.6 / 24.0 s).
func Figure2() (*Table, error) { return figure12(topology.MachineB(), "fig2", "paper Fig 2") }

// figure34 generates Fig 3 (A) / Fig 4 (B): M-Hyperion throughput under the
// four layouts on IGB and UK.
func figure34(m *topology.Machine, id, ref string) (*Table, error) {
	t := &Table{
		ID:      id,
		Title:   fmt.Sprintf("M-Hyperion throughput (vertices/s) under classic layouts, machine %s (%s)", m.Name, ref),
		Columns: []string{"IG", "UK"},
	}
	for _, l := range classicLayouts {
		row := Row{Label: l.String()}
		for _, dname := range []string{"IG", "UK"} {
			p, err := topology.ClassicPlacement(m, l)
			if err != nil {
				return nil, err
			}
			r, err := baselines.MHyperion(m, p, wl(dname, gnn.KindSAGE))
			if err != nil {
				return nil, err
			}
			if r.OOM != "" {
				row.Cells = append(row.Cells, OOMCell())
			} else {
				row.Cells = append(row.Cells, Num(r.Throughput))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Figure3 reproduces Fig 3 (paper: layout (c) ≈ 1.86× over (b) on A).
func Figure3() (*Table, error) { return figure34(topology.MachineA(), "fig3", "paper Fig 3") }

// Figure4 reproduces Fig 4 (paper: layout (c) ≈ 1.96× over (b) on B).
func Figure4() (*Table, error) { return figure34(topology.MachineB(), "fig4", "paper Fig 4") }

// figure56 generates Fig 5 (M-Hyperion) / Fig 6 (M-GIDS): throughput when
// expanding 2 → 4 GPUs under the packed layout (d).
func figure56(id, ref string, gids bool) (*Table, error) {
	t := &Table{
		ID:      id,
		Title:   fmt.Sprintf("Throughput (vertices/s) scaling 2→4 GPUs under layout (d) (%s)", ref),
		Columns: []string{"2gpu", "4gpu", "speedup"},
	}
	for _, mk := range []func() *topology.Machine{topology.MachineA, topology.MachineB} {
		vals := map[int]float64{}
		for _, n := range []int{2, 4} {
			m := mk().WithGPUs(n)
			p, err := topology.ClassicPlacement(m, topology.LayoutD)
			if err != nil {
				return nil, err
			}
			w := wl("IG", gnn.KindSAGE)
			var r *trainsim.Result
			if gids {
				r, err = baselines.MGIDS(m, p, w)
			} else {
				r, err = baselines.MHyperion(m, p, w)
			}
			if err != nil {
				return nil, err
			}
			if r.OOM != "" {
				return nil, fmt.Errorf("experiments: %s OOM on %s: %s", id, m.Name, r.OOM)
			}
			vals[n] = r.Throughput
		}
		t.Rows = append(t.Rows, Row{Label: "machine " + mk().Name, Cells: []Cell{
			Num(vals[2]), Num(vals[4]), Num(vals[4] / vals[2]),
		}})
	}
	t.Notes = append(t.Notes, "paper: little or negative scaling under the packed layout")
	return t, nil
}

// Figure5 reproduces Fig 5 (M-Hyperion GPU expansion).
func Figure5() (*Table, error) { return figure56("fig5", "paper Fig 5, M-Hyperion", false) }

// Figure6 reproduces Fig 6 (M-GIDS GPU expansion).
func Figure6() (*Table, error) { return figure56("fig6", "paper Fig 6, M-GIDS", true) }

// Figure7 reproduces Fig 7: Moment's optimized placement on machine B and
// its epoch time (paper: 13.2 s), alongside the published layout.
func Figure7() (*Table, error) {
	m := topology.MachineB()
	w := wl("IG", gnn.KindSAGE)
	searched, pl, err := searchMoment(m, w)
	if err != nil {
		return nil, err
	}
	pub, err := topology.MomentPlacementB(m)
	if err != nil {
		return nil, err
	}
	pubRes, err := trainsim.SimulateEpoch(trainsim.Config{Machine: m, Placement: pub, Workload: w})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig7",
		Title:   "Moment's placement on machine B, GraphSAGE/IGB (paper Fig 7: 13.2 s)",
		Columns: []string{"epoch-s"},
		Notes: []string{
			"searched layout: " + pl.String(),
			"published layout: " + pub.String(),
		},
	}
	t.Rows = append(t.Rows,
		Row{Label: "searched", Cells: []Cell{Num(searched.EpochTime.Sec())}},
		Row{Label: "published(fig7)", Cells: []Cell{Num(pubRes.EpochTime.Sec())}},
	)
	return t, nil
}

// Figure10 reproduces Fig 10: end-to-end throughput of Moment, M-GIDS and
// DistDGL on all datasets and both models (paper: Moment up to 6.51× over
// M-GIDS and 3.02× over DistDGL; M-GIDS OOMs on UK/CL, DistDGL on IG/UK/CL).
func Figure10() (*Table, error) {
	t := &Table{
		ID:      "fig10",
		Title:   "End-to-end throughput (vertices/s), Moment vs M-GIDS vs DistDGL (paper Fig 10)",
		Columns: []string{"moment", "m-gids", "distdgl"},
	}
	mA := topology.MachineA()
	for _, model := range []gnn.ModelKind{gnn.KindSAGE, gnn.KindGAT} {
		for _, dname := range []string{"PA", "IG", "UK", "CL"} {
			w := wl(dname, model)
			label := fmt.Sprintf("%s/%s", dname, model)
			row := Row{Label: label}

			moment, _, err := searchMoment(mA, w)
			if err != nil {
				return nil, err
			}
			row.Cells = append(row.Cells, Num(moment.Throughput))

			pc, err := topology.ClassicPlacement(mA, topology.LayoutC)
			if err != nil {
				return nil, err
			}
			gids, err := baselines.MGIDS(mA, pc, w)
			if err != nil {
				return nil, err
			}
			if gids.OOM != "" {
				row.Cells = append(row.Cells, OOMCell())
			} else {
				row.Cells = append(row.Cells, Num(gids.Throughput))
			}

			dgl, err := baselines.DistDGL(topology.MachineC(), baselines.DefaultDistDGL(), w)
			if err != nil {
				return nil, err
			}
			if dgl.OOM != "" {
				row.Cells = append(row.Cells, OOMCell())
			} else {
				row.Cells = append(row.Cells, Num(dgl.Throughput))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// figure1112 generates Fig 11 (A) / Fig 12 (B): throughput of the four
// classic placements and Moment, for 2-4 GPUs and both models.
func figure1112(mk func() *topology.Machine, id, ref string) (*Table, error) {
	t := &Table{
		ID:      id,
		Title:   fmt.Sprintf("Throughput (vertices/s): classic layouts vs Moment (%s)", ref),
		Columns: []string{"(a)", "(b)", "(c)", "(d)", "moment"},
	}
	for _, model := range []gnn.ModelKind{gnn.KindSAGE, gnn.KindGAT} {
		for _, n := range []int{2, 3, 4} {
			m := mk().WithGPUs(n)
			w := trainsim.Workload{Dataset: ds("IG"), Model: model}
			row := Row{Label: fmt.Sprintf("%s/%dgpu", model, n)}
			for _, l := range classicLayouts {
				r, err := epochClassic(m, l, w)
				if err != nil {
					return nil, err
				}
				row.Cells = append(row.Cells, Num(r.Throughput))
			}
			moment, _, err := searchMoment(m, w)
			if err != nil {
				return nil, err
			}
			row.Cells = append(row.Cells, Num(moment.Throughput))
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// Figure11 reproduces Fig 11 (paper: Moment up to 1.54× on machine A).
func Figure11() (*Table, error) {
	return figure1112(topology.MachineA, "fig11", "paper Fig 11, machine A")
}

// Figure12 reproduces Fig 12 (paper: Moment up to 1.63× on machine B).
func Figure12() (*Table, error) {
	return figure1112(topology.MachineB, "fig12", "paper Fig 12, machine B")
}

// Figure13 reproduces Fig 13: predicted vs measured throughput across
// datasets and GPU counts (paper max error 8.61%).
func Figure13() (*Table, error) {
	t := &Table{
		ID:      "fig13",
		Title:   "Automatic module prediction accuracy (paper Fig 13, max error 8.61%)",
		Columns: []string{"predicted-s", "measured-s", "error-%"},
	}
	for _, mk := range []func() *topology.Machine{topology.MachineA, topology.MachineB} {
		for _, dname := range []string{"PA", "IG", "UK", "CL"} {
			for _, n := range []int{2, 4} {
				m := mk().WithGPUs(n)
				p, err := topology.ClassicPlacement(m, topology.LayoutC)
				if err != nil {
					return nil, err
				}
				r, err := trainsim.SimulateEpoch(trainsim.Config{
					Machine: m, Placement: p, Workload: wl(dname, gnn.KindSAGE)})
				if err != nil {
					return nil, err
				}
				if r.OOM != "" {
					continue
				}
				errPct := 0.0
				if r.IOTime > 0 {
					errPct = (r.PredictedIO.Sec() - r.IOTime.Sec()) / r.IOTime.Sec() * 100
				}
				t.Rows = append(t.Rows, Row{
					Label: fmt.Sprintf("%s/%s/%dgpu", m.Name, dname, n),
					Cells: []Cell{Num(r.PredictedIO.Sec()), Num(r.IOTime.Sec()), Num(errPct)},
				})
			}
		}
	}
	return t, nil
}

// figure1415 generates Fig 14 (A) / Fig 15 (B): DDAK vs hash placement
// throughput under the four classic layouts.
func figure1415(mk func() *topology.Machine, id, ref string) (*Table, error) {
	t := &Table{
		ID:      id,
		Title:   fmt.Sprintf("DDAK vs hash data placement, throughput (vertices/s) (%s)", ref),
		Columns: []string{"ddak", "hash", "gain-%"},
	}
	for _, l := range classicLayouts {
		m := mk()
		p, err := topology.ClassicPlacement(m, l)
		if err != nil {
			return nil, err
		}
		w := wl("IG", gnn.KindSAGE)
		dd, err := trainsim.SimulateEpoch(trainsim.Config{Machine: m, Placement: p, Workload: w})
		if err != nil {
			return nil, err
		}
		hh, err := trainsim.SimulateEpoch(trainsim.Config{Machine: m, Placement: p, Workload: w,
			Policy: trainsim.PolicyHash})
		if err != nil {
			return nil, err
		}
		gain := (dd.Throughput/hh.Throughput - 1) * 100
		t.Rows = append(t.Rows, Row{Label: l.String(), Cells: []Cell{
			Num(dd.Throughput), Num(hh.Throughput), Num(gain),
		}})
	}
	return t, nil
}

// Figure14 reproduces Fig 14 (paper: up to +30.6% on machine A).
func Figure14() (*Table, error) {
	return figure1415(topology.MachineA, "fig14", "paper Fig 14, machine A")
}

// Figure15 reproduces Fig 15 (paper: up to +34.0% on machine B).
func Figure15() (*Table, error) {
	return figure1415(topology.MachineB, "fig15", "paper Fig 15, machine B")
}

// Figure16 reproduces Fig 16: scalability from 1 to 4 GPUs for layouts (c),
// (d) and Moment on both machines (paper speedups on A: 1.21/1.92/2.26,
// on B: 1.21/1.57/2.21).
func Figure16() (*Table, error) {
	t := &Table{
		ID:      "fig16",
		Title:   "Scalability 1→4 GPUs, throughput (vertices/s) (paper Fig 16)",
		Columns: []string{"1gpu", "2gpu", "3gpu", "4gpu", "speedup"},
	}
	w4 := wl("IG", gnn.KindSAGE)
	for _, mk := range []func() *topology.Machine{topology.MachineA, topology.MachineB} {
		for _, variant := range []string{"(c)", "(d)", "moment"} {
			row := Row{Label: "machine " + mk().Name + " " + variant}
			var first, last float64
			for _, n := range []int{1, 2, 3, 4} {
				m := mk().WithGPUs(n)
				var r *trainsim.Result
				var err error
				switch variant {
				case "moment":
					r, _, err = searchMoment(m, w4)
				case "(c)":
					r, err = epochClassic(m, topology.LayoutC, w4)
				default:
					r, err = epochClassic(m, topology.LayoutD, w4)
				}
				if err != nil {
					return nil, err
				}
				row.Cells = append(row.Cells, Num(r.Throughput))
				if n == 1 {
					first = r.Throughput
				}
				last = r.Throughput
			}
			row.Cells = append(row.Cells, Num(last/first))
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// Figure17 reproduces Fig 17: cross-QPI traffic of hash vs DDAK placement
// under the four layouts on machine A (paper: DDAK cuts traffic by
// 14.2/8.7/18.1/9.5%).
func Figure17() (*Table, error) {
	t := &Table{
		ID:      "fig17",
		Title:   "Cross-QPI traffic per epoch (GiB), hash vs DDAK, machine A (paper Fig 17)",
		Columns: []string{"hash", "ddak", "reduction-%"},
	}
	m := topology.MachineA()
	for _, l := range classicLayouts {
		p, err := topology.ClassicPlacement(m, l)
		if err != nil {
			return nil, err
		}
		w := wl("IG", gnn.KindSAGE)
		dd, err := trainsim.SimulateEpoch(trainsim.Config{Machine: m, Placement: p, Workload: w})
		if err != nil {
			return nil, err
		}
		hh, err := trainsim.SimulateEpoch(trainsim.Config{Machine: m, Placement: p, Workload: w,
			Policy: trainsim.PolicyHash})
		if err != nil {
			return nil, err
		}
		red := 0.0
		if hh.QPIBytes > 0 {
			red = (1 - dd.QPIBytes/hh.QPIBytes) * 100
		}
		t.Rows = append(t.Rows, Row{Label: l.String(), Cells: []Cell{
			Num(hh.QPIBytes / (1 << 30)), Num(dd.QPIBytes / (1 << 30)), Num(red),
		}})
	}
	return t, nil
}

// Figure18 reproduces Fig 18: throughput with and without NVLink bridges
// under layout (c) (paper: +11.7% on A, +6.8% on B).
func Figure18() (*Table, error) {
	t := &Table{
		ID:      "fig18",
		Title:   "NVLink support under layout (c), throughput (vertices/s) (paper Fig 18)",
		Columns: []string{"no-nvlink", "nvlink", "gain-%"},
	}
	for _, mk := range []func() *topology.Machine{topology.MachineA, topology.MachineB} {
		base := mk()
		w := wl("IG", gnn.KindSAGE)
		r0, err := epochClassic(base, topology.LayoutC, w)
		if err != nil {
			return nil, err
		}
		nv := base.WithNVLink(topology.NVLinkBridgeBW,
			topology.NVLinkPair{A: 0, B: 1}, topology.NVLinkPair{A: 2, B: 3})
		p, err := topology.ClassicPlacement(nv, topology.LayoutC)
		if err != nil {
			return nil, err
		}
		r1, err := trainsim.SimulateEpoch(trainsim.Config{
			Machine: nv, Placement: p, Workload: w, Cache: trainsim.CachePaired})
		if err != nil {
			return nil, err
		}
		gain := (r1.Throughput/r0.Throughput - 1) * 100
		t.Rows = append(t.Rows, Row{Label: "machine " + base.Name, Cells: []Cell{
			Num(r0.Throughput), Num(r1.Throughput), Num(gain),
		}})
	}
	return t, nil
}

// AblationSymmetry measures the placement-search candidate count and
// optimum with and without isomorphic reduction (DESIGN.md ablation).
func AblationSymmetry() (*Table, error) {
	t := &Table{
		ID:      "ablation-symmetry",
		Title:   "Placement search with/without isomorphic symmetry reduction",
		Columns: []string{"candidates", "epoch-io-s"},
	}
	for _, mk := range []func() *topology.Machine{topology.MachineA, topology.MachineB} {
		m := mk()
		dem, _, err := trainsim.PlanDemand(trainsim.Config{Machine: m, Workload: wl("IG", gnn.KindSAGE)})
		if err != nil {
			return nil, err
		}
		for _, skip := range []bool{false, true} {
			res, err := placement.Search(m, dem, placement.Options{SkipDedupe: skip})
			if err != nil {
				return nil, err
			}
			label := fmt.Sprintf("machine %s reduced", m.Name)
			if skip {
				label = fmt.Sprintf("machine %s full", m.Name)
			}
			t.Rows = append(t.Rows, Row{Label: label, Cells: []Cell{
				Num(float64(res.Evaluated)), Num(res.Time.Sec()),
			}})
		}
	}
	return t, nil
}

// AblationPooling measures DDAK planning decisions and GPU-tier hit rate
// across pooling factors n ∈ {1, 10, 100, 1000} (§3.3 fixes n=100).
func AblationPooling() (*Table, error) {
	t := &Table{
		ID:      "ablation-pooling",
		Title:   "DDAK pooling factor n: planning decisions vs placement quality",
		Columns: []string{"pools", "epoch-s", "hit-gpu-%"},
	}
	m := topology.MachineA()
	p, err := topology.ClassicPlacement(m, topology.LayoutC)
	if err != nil {
		return nil, err
	}
	for _, n := range []int{1, 10, 100, 1000} {
		r, err := trainsim.SimulateEpoch(trainsim.Config{
			Machine: m, Placement: p, Workload: wl("IG", gnn.KindSAGE), PoolN: n})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, Row{Label: fmt.Sprintf("n=%d", n), Cells: []Cell{
			Num(float64(r.BinAssign.Pools)), Num(r.EpochTime.Sec()), Num(r.HitGPU * 100),
		}})
	}
	return t, nil
}
