package experiments

import (
	"fmt"

	"moment/internal/baselines"
	"moment/internal/cluster"
	"moment/internal/gnn"
	"moment/internal/topology"
	"moment/internal/units"
)

// Multi-node reference calibration: Machine B nodes on PA — the dataset
// the DistDGL baseline survives without OOM (IG, UK and CL exceed its
// 5x-expanded cluster memory) — with a quarter of the SSD tier replicated
// into every node.
const (
	clusterBenchDataset     = "PA"
	clusterBenchReplication = 0.25
)

var clusterBenchNIC = units.Gbps(100)

// ClusterVsDistDGL reproduces the §5 multi-node comparison as a table:
// flow-planned Moment cluster vs the analytical composition vs DistDGL
// across cluster sizes on the PA reference.
func ClusterVsDistDGL() (*Table, error) {
	t := &Table{
		ID:      "cluster",
		Title:   "§5 Multi-node: flow-planned cluster vs DistDGL (Machine B, PA, r=0.25)",
		Columns: []string{"flow epoch (s)", "analytic epoch (s)", "nic stage (s)", "remote GiB", "distdgl epoch (s)", "speedup"},
		Notes: []string{
			"flow epoch and analytic epoch agree on the non-blocking core by construction",
			"speedup = distdgl epoch / flow epoch",
		},
	}
	m := topology.MachineB()
	p, err := topology.MomentPlacementB(m)
	if err != nil {
		return nil, err
	}
	w := wl(clusterBenchDataset, gnn.KindSAGE)
	for _, nodes := range []int{2, 4, 8} {
		cfg := cluster.Config{
			Node: m, Nodes: nodes, NICBW: clusterBenchNIC,
			Workload: w, Placement: p, Replication: clusterBenchReplication,
		}
		flowCfg := cfg
		flowCfg.Flow = true
		flow, err := cluster.Simulate(flowCfg)
		if err != nil {
			return nil, err
		}
		ana, err := cluster.Simulate(cfg)
		if err != nil {
			return nil, err
		}
		dglCfg := baselines.DefaultDistDGL()
		dglCfg.Machines = nodes
		dgl, err := baselines.DistDGL(m, dglCfg, w)
		if err != nil {
			return nil, err
		}
		cells := []Cell{
			Num(flow.EpochTime.Sec()),
			Num(ana.EpochTime.Sec()),
			Num(flow.NICTime.Sec()),
			Num(flow.RemoteBytes / (1 << 30)),
		}
		if dgl.OOM != "" {
			cells = append(cells, OOMCell(), Txt("-"))
		} else {
			cells = append(cells,
				Num(dgl.EpochTime.Sec()),
				Txt(fmt.Sprintf("%.1fx", dgl.EpochTime.Sec()/flow.EpochTime.Sec())))
		}
		t.Rows = append(t.Rows, Row{Label: fmt.Sprintf("%d nodes", nodes), Cells: cells})
	}
	return t, nil
}
