// Command momentsim simulates one training epoch for an explicit machine,
// hardware placement and workload — the runtime half of the system, useful
// for what-if exploration without rerunning the full optimizer.
//
// Usage:
//
//	momentsim -machine A -layout c -dataset IG -model graphsage
//	momentsim -machine B -layout moment -dataset CL -model gat -policy hash
//	momentsim -machine A -layout c -baseline mgids
//	momentsim -machine B -layout moment -trace trace.json -metrics
//	momentsim -machine A -layout c -dataset PA -faults "seed=7;kill:ssd2@2"
//	momentsim -machine B -layout moment -flight flight.json
//	momentsim -machine B -layout c -drift "every=100;kind=shuffle;mag=0.2;seed=7" -epochs 300
//	momentsim -machine B -layout c -drift "every=100;kind=flip;mag=0.2" -drift-oracle
//	momentsim -machine B -layout c -drift "every=100;kind=shuffle;mag=0.2;seed=7" -epochs 300 -faults "kill:ssd1@1500"
//	momentsim -machine B -layout moment -dataset PA -cluster 4 -replication 0.25
//	momentsim -machine B -layout c -cluster 4 -cluster-flow -leaves 2 -leaf-uplink 150
//	momentsim -machine B -layout c -cluster 4 -cluster-flow -partition 1.5d:2 -nic-on-gpu-socket
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"moment"
	"moment/cmd/internal/obsflag"
)

func main() {
	var (
		machineName = flag.String("machine", "A", "machine: A or B")
		layout      = flag.String("layout", "c", "placement: a, b, c, d, or moment (search)")
		dataset     = flag.String("dataset", "IG", "dataset: PA, IG, UK or CL")
		model       = flag.String("model", "graphsage", "model: graphsage, gat or gcn")
		gpus        = flag.Int("gpus", 0, "restrict GPU count (0 = machine default)")
		policy      = flag.String("policy", "ddak", "data placement: ddak or hash")
		baseline    = flag.String("baseline", "", "simulate a baseline instead: mgids, mhyperion or distdgl")
		timeline    = flag.Bool("timeline", false, "render the per-iteration pipeline schedule")
		drift       = flag.String("drift", "",
			`drift schedule for a multi-epoch adaptive run, e.g. "every=100;kind=shuffle;mag=0.2;seed=7" (kinds: rotate, flip, oscillate, shuffle)`)
		driftEpochs = flag.Int("epochs", 300, "horizon for -drift runs")
		driftOracle = flag.Bool("drift-oracle", false,
			"replace the adaptive loop with from-scratch replanning at every drift event")
		clusterN = flag.Int("cluster", 0,
			"simulate the job data-parallel across this many nodes (0 = single machine)")
		clusterFlow = flag.Bool("cluster-flow", false,
			"price the whole cluster with one max-flow solve instead of the analytical network stage")
		nicGbps = flag.Float64("nicbw", 100, "per-node NIC bandwidth in Gb/s for -cluster")
		repl    = flag.Float64("replication", 0,
			"replication factor r in [0,1]: fraction of the SSD tier whose hot head is pinned into every node")
		partSpec = flag.String("partition", "",
			`CAGNET cold-tail layout for -cluster: "1d", "1.5d:2" or "2d", optionally "/hash" (scored on a scaled dataset instance)`)
		leaves = flag.Int("leaves", 0,
			"leaf switch count for -cluster (0 = one non-blocking core switch)")
		leafUplink = flag.Float64("leaf-uplink", 0,
			"per-leaf spine uplink bandwidth in Gb/s for -cluster (0 = non-blocking)")
		nicOnSocket = flag.Bool("nic-on-gpu-socket", false,
			"attach each NIC to the PCIe fabric so exports contend with local traffic (needs -cluster-flow)")
	)
	oflags := obsflag.Register()
	fflag := obsflag.RegisterFaults()
	flag.Parse()
	oflags.Enable()
	// Flush on every non-fatal exit path (fatal exits skip the dumps).
	defer func() {
		if err := oflags.Flush(); err != nil {
			fatal(err)
		}
	}()

	var m *moment.Machine
	switch strings.ToUpper(*machineName) {
	case "A":
		m = moment.MachineA()
	case "B":
		m = moment.MachineB()
	default:
		fatal(fmt.Errorf("unknown machine %q", *machineName))
	}
	if *gpus > 0 {
		m = m.WithGPUs(*gpus)
	}
	ds, err := moment.DatasetByName(strings.ToUpper(*dataset))
	if err != nil {
		fatal(err)
	}
	kind := moment.GraphSAGE
	switch {
	case strings.EqualFold(*model, "gat"):
		kind = moment.GAT
	case strings.EqualFold(*model, "gcn"):
		kind = moment.GCN
	}
	w := moment.Workload{Dataset: ds, Model: kind}

	if strings.EqualFold(*baseline, "distdgl") {
		r, err := moment.DistDGL(moment.MachineC(), moment.DefaultDistDGL(), w)
		if err != nil {
			fatal(err)
		}
		if r.OOM != "" {
			fmt.Printf("distdgl: OOM (%s)\n", r.OOM)
			return
		}
		fmt.Printf("distdgl: epoch %v (sample %v, net %v, compute %v), %.0f vertices/s\n",
			r.EpochTime, r.SampleTime, r.NetTime, r.ComputeT, r.Throughput)
		return
	}

	p, err := pickPlacement(m, *layout, w)
	if err != nil {
		fatal(err)
	}

	if *clusterN > 0 {
		if *baseline != "" {
			fatal(fmt.Errorf("-cluster only applies to the plain simulation, not baseline %q", *baseline))
		}
		if err := runCluster(m, p, w, ds, clusterFlags{
			nodes:       *clusterN,
			flow:        *clusterFlow,
			nicGbps:     *nicGbps,
			replication: *repl,
			partition:   *partSpec,
			leaves:      *leaves,
			leafUplink:  *leafUplink,
			nicOnSocket: *nicOnSocket,
		}); err != nil {
			fatal(err)
		}
		return
	}
	if *clusterFlow || *nicOnSocket || *partSpec != "" {
		fatal(fmt.Errorf("-cluster-flow, -nic-on-gpu-socket and -partition require -cluster N"))
	}

	schedule, err := fflag.Schedule()
	if err != nil {
		fatal(err)
	}
	if schedule != nil && *baseline != "" {
		fatal(fmt.Errorf("-faults only applies to the plain simulation, not baseline %q", *baseline))
	}

	if *drift != "" {
		if *baseline != "" {
			fatal(fmt.Errorf("-drift only applies to the plain simulation, not baseline %q", *baseline))
		}
		sched, err := moment.ParseDriftSpec(*drift)
		if err != nil {
			fatal(err)
		}
		cfg := moment.SimConfig{Machine: m, Placement: p, Workload: w, Cache: moment.CachePartitioned, Faults: schedule}
		rep, err := moment.SimulateDrift(cfg, moment.DriftOptions{
			Epochs:   *driftEpochs,
			Schedule: sched,
			Oracle:   *driftOracle,
		})
		if err != nil {
			fatal(err)
		}
		mode := "adaptive"
		if rep.Oracle {
			mode = "oracle"
		}
		fmt.Printf("placement %s\n", p)
		fmt.Printf("drift %s: %s over %d epochs, %d events\n",
			mode, moment.FormatDriftSpec(sched), rep.Epochs, rep.DriftEvents)
		fmt.Printf("epoch mean %.3fs, total %v (%d fabric sims, %d memo hits)\n",
			rep.MeanEpoch, rep.Total, rep.Resims, rep.CacheHits)
		fmt.Printf("loop: %d trips, %d replans (%d delta, %d full, %d payback-skipped)\n",
			rep.Trips, rep.Replans, rep.DeltaSolves, rep.FullSolves, rep.Skipped)
		fmt.Printf("migration: %.1f GiB moved, stall %.2fs; final fast-tier hit %.1f%%\n",
			rep.MovedBytes/(1<<30), rep.StallSeconds, rep.FinalHitFast*100)
		if schedule != nil {
			fmt.Printf("faults: %s; dead ssds %v\n", moment.FormatFaultSpec(schedule), rep.DeadSSDs)
		}
		return
	}

	var r *moment.EpochResult
	switch strings.ToLower(*baseline) {
	case "":
		cfg := moment.SimConfig{Machine: m, Placement: p, Workload: w, Faults: schedule}
		if strings.EqualFold(*policy, "hash") {
			cfg.Policy = moment.PolicyHash
		}
		r, err = moment.Simulate(cfg)
	case "mgids":
		r, err = moment.MGIDS(m, p, w)
	case "mhyperion":
		r, err = moment.MHyperion(m, p, w)
	default:
		fatal(fmt.Errorf("unknown baseline %q", *baseline))
	}
	if err != nil {
		fatal(err)
	}
	if r.OOM != "" {
		fmt.Printf("%s: OOM (%s)\n", p.Name, r.OOM)
		return
	}
	fmt.Printf("placement %s\n", p)
	fmt.Printf("epoch %v (io %v, predicted io %v, compute %v, sample %v)\n",
		r.EpochTime, r.IOTime, r.PredictedIO, r.ComputeTime, r.SampleTime)
	fmt.Printf("throughput %.0f vertices/s; cache hits gpu %.1f%%, cpu %.1f%%; qpi %.1f GiB\n",
		r.Throughput, r.HitGPU*100, r.HitCPU*100, r.QPIBytes/(1<<30))
	for g, bw := range r.PerGPUIOBW {
		fmt.Printf("  gpu%d inlet %v\n", g, bw)
	}
	if rep := r.Faults; rep != nil {
		fmt.Printf("faults: %d injected, dead ssds %v, %d replans, %.1f GiB migrated, stall %.2fs\n",
			rep.Injected, rep.DeadSSDs, rep.Replans, rep.MovedBytes/(1<<30), rep.StallSeconds)
		fmt.Printf("degradation: nominal epoch %v, inflation %.2fx\n", rep.NominalEpoch, rep.Inflation)
	}
	if *timeline {
		tl, err := moment.EpochTimeline(r, 6)
		if err != nil {
			fatal(err)
		}
		fmt.Print(tl.Render(96))
	}
}

func pickPlacement(m *moment.Machine, layout string, w moment.Workload) (*moment.Placement, error) {
	switch strings.ToLower(layout) {
	case "a":
		return moment.ClassicPlacement(m, moment.LayoutA)
	case "b":
		return moment.ClassicPlacement(m, moment.LayoutB)
	case "c":
		return moment.ClassicPlacement(m, moment.LayoutC)
	case "d":
		return moment.ClassicPlacement(m, moment.LayoutD)
	case "moment":
		plan, err := moment.Optimize(m, w)
		if err != nil {
			return nil, err
		}
		return plan.Placement, nil
	}
	return nil, fmt.Errorf("unknown layout %q", layout)
}

type clusterFlags struct {
	nodes       int
	flow        bool
	nicGbps     float64
	replication float64
	partition   string
	leaves      int
	leafUplink  float64
	nicOnSocket bool
}

// runCluster simulates the job data-parallel across f.nodes copies of m,
// printing the planned epoch and its network stage.
func runCluster(m *moment.Machine, p *moment.Placement, w moment.Workload, ds moment.Dataset, f clusterFlags) error {
	cfg := moment.ClusterConfig{
		Node:           m,
		Nodes:          f.nodes,
		NICBW:          moment.Gbps(f.nicGbps),
		Workload:       w,
		Placement:      p,
		Flow:           f.flow,
		Replication:    f.replication,
		NICOnGPUSocket: f.nicOnSocket,
	}
	if f.leaves > 0 || f.leafUplink > 0 {
		spec := moment.ClusterSpec{
			Nodes:        f.nodes,
			NICBW:        cfg.NICBW,
			Leaves:       f.leaves,
			LeafUplinkBW: moment.Gbps(f.leafUplink),
		}
		cfg.Cluster = &spec
	}
	if f.partition != "" {
		spec, err := moment.ParsePartitionSpec(f.partition, f.nodes)
		if err != nil {
			return err
		}
		// Score the layout on a deterministic scaled instance of the
		// dataset — the same skewed generator the dataset catalog uses.
		g, err := ds.Scaled(200_000, 1)
		if err != nil {
			return err
		}
		vol, err := moment.ScorePartition(g, spec)
		if err != nil {
			return err
		}
		cfg.Partition = &spec
		cfg.PartitionGraph = g
		fmt.Printf("partition %s: mirror %.0f, reduce %.0f rows/epoch (remote frac %.3f)\n",
			spec, vol.Mirror, vol.Reduce, vol.RemoteFrac())
	}
	r, err := moment.SimulateCluster(cfg)
	if err != nil {
		return err
	}
	if r.OOM != "" {
		fmt.Printf("cluster(%d): OOM (%s)\n", f.nodes, r.OOM)
		return nil
	}
	fmt.Printf("placement %s\n", p)
	fmt.Printf("cluster %d nodes @ %g Gb/s (%s planner): epoch %v\n",
		f.nodes, f.nicGbps, r.Mode, r.EpochTime)
	fmt.Printf("  local io %v, nic stage %v, compute %v, sample %v\n",
		r.LocalIO, r.NICTime, r.ComputeTime, r.SampleTime)
	if r.Mode == "flow" {
		fmt.Printf("  joint flow horizon %v\n", r.FlowTime)
	}
	fmt.Printf("  remote %.1f GiB/node/epoch (%.1f%% of fetches cross the network)\n",
		r.RemoteBytes/(1<<30), r.RemoteFraction*100)
	if plan := r.Replication; plan != nil {
		fmt.Printf("  replication r=%.2f: head %.1f GiB pinned per node, tail %.1f GiB partitioned\n",
			f.replication, plan.HeadBytes/(1<<30), plan.TailBytes/(1<<30))
	}
	fmt.Printf("  throughput %.0f vertices/s cluster-wide\n", r.Throughput)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "momentsim:", err)
	os.Exit(1)
}
