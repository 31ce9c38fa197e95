// Command momentbench regenerates every table and figure of the paper's
// evaluation section and prints them in order (the reproduction harness).
//
// Usage:
//
//	momentbench                   # everything, as aligned tables
//	momentbench fig10 fig16       # selected figures
//	momentbench -json > out.json  # machine-readable
//	momentbench -bench BENCH.json # per-experiment benchmark records
//	momentbench -compare OLD.json # diff fresh records against a baseline;
//	                              # exit 1 on >10% epoch-time regressions
//	momentbench -serve-load 200   # drive N zipf-skewed synthetic tenants
//	                              # against an in-process momentd, print the
//	                              # load record, and gate on shed rate; with
//	                              # -bench/-compare the record joins the
//	                              # benchmark set as the "serve" layout row
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"moment"
	"moment/cmd/internal/obsflag"
	"moment/internal/experiments"
)

func main() {
	asJSON := flag.Bool("json", false, "emit tables as a JSON array")
	benchPath := flag.String("bench", "",
		"write machine-readable per-experiment benchmark records (JSON) to this file")
	comparePath := flag.String("compare", "",
		"diff fresh benchmark records against this baseline BENCH_*.json; exit 1 on regressions")
	threshold := flag.Float64("regress", 0.10,
		"relative epoch-time slowdown treated as a regression by -compare")
	serveTenants := flag.Int("serve-load", 0,
		"run the momentd load harness with this many synthetic tenants (0 = off)")
	serveRequests := flag.Int("serve-requests", 1000, "total requests for -serve-load")
	serveShedMax := flag.Float64("serve-shed-max", 0.05,
		"maximum tolerated -serve-load shed rate before exiting 1")
	sweepNodes := flag.Int("sweep-nodes", 8,
		"fleet size for the placement-sweep bench row with -bench/-compare (0 = skip the row)")
	simEpochs := flag.Int("sim-epochs", 10000,
		"horizon for the long-horizon simulation bench row with -bench/-compare (0 = skip the row)")
	driftEpochs := flag.Int("drift-epochs", 1000,
		"horizon for the traffic-drift adaptive-vs-oracle bench row with -bench/-compare (0 = skip the row)")
	clusterNodes := flag.Int("cluster-nodes", 4,
		"node count for the multi-node flow-vs-DistDGL bench row with -bench/-compare (0 = skip the row)")
	oflags := obsflag.Register()
	flag.Parse()
	oflags.Enable()
	var serveRec *moment.LoadTestRecord
	if *serveTenants > 0 {
		rec, err := moment.RunLoadTest(moment.LoadTestConfig{
			Tenants:  *serveTenants,
			Requests: *serveRequests,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "momentbench: serve-load:", err)
			os.Exit(1)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rec); err != nil {
			fmt.Fprintln(os.Stderr, "momentbench:", err)
			os.Exit(1)
		}
		if err := rec.Check(); err != nil {
			fmt.Fprintln(os.Stderr, "momentbench:", err)
			os.Exit(1)
		}
		if rec.ShedRate > *serveShedMax {
			fmt.Fprintf(os.Stderr, "momentbench: serve-load shed rate %.3f exceeds %.3f\n",
				rec.ShedRate, *serveShedMax)
			os.Exit(1)
		}
		serveRec = rec
	}
	if *benchPath != "" || *comparePath != "" {
		recs, err := moment.BenchRecords()
		if err != nil {
			fmt.Fprintln(os.Stderr, "momentbench:", err)
			os.Exit(1)
		}
		if serveRec != nil {
			recs = append(recs, serveRec.BenchRecord())
		}
		if *sweepNodes > 0 {
			rec, err := experiments.FleetSweepRecord(*sweepNodes)
			if err != nil {
				fmt.Fprintln(os.Stderr, "momentbench: fleet sweep:", err)
				os.Exit(1)
			}
			recs = append(recs, rec)
		}
		if *simEpochs > 0 {
			rec, err := experiments.LongSimRecord(*simEpochs)
			if err != nil {
				fmt.Fprintln(os.Stderr, "momentbench: longsim:", err)
				os.Exit(1)
			}
			recs = append(recs, rec)
		}
		if *driftEpochs > 0 {
			// The record constructor re-checks the acceptance differential
			// (adaptive within 5% of the oracle on under half its migrated
			// bytes), so a drifted loop fails here, not just at -compare.
			rec, err := experiments.DriftRecord(*driftEpochs)
			if err != nil {
				fmt.Fprintln(os.Stderr, "momentbench: drift:", err)
				os.Exit(1)
			}
			recs = append(recs, rec)
		}
		if *clusterNodes > 0 {
			// The record constructor re-checks the multi-node acceptance
			// differential (flow beats DistDGL, flow agrees with analytical
			// on a non-blocking core), so a drifted planner fails here, not
			// just at -compare.
			rec, err := experiments.ClusterBenchRecord(*clusterNodes)
			if err != nil {
				fmt.Fprintln(os.Stderr, "momentbench: cluster:", err)
				os.Exit(1)
			}
			recs = append(recs, rec)
		}
		// Observability hot-path row: refuse to even write a record set if
		// the disabled flight-recorder or explain path allocates — that
		// would tax every planner run that never asked for forensics.
		obsRec := experiments.ObsRecord()
		if d, e := *obsRec.ObsDisabledEventAllocs, *obsRec.ObsDisabledExplainAllocs; d != 0 || e != 0 {
			fmt.Fprintf(os.Stderr,
				"momentbench: disabled obs hot path allocates (event %d, explain %d allocs/op; want 0)\n", d, e)
			os.Exit(1)
		}
		recs = append(recs, obsRec)
		if *benchPath != "" {
			if err := writeBench(*benchPath, recs); err != nil {
				fmt.Fprintln(os.Stderr, "momentbench:", err)
				os.Exit(1)
			}
		}
		if *comparePath != "" {
			baseline, err := moment.ReadBenchRecords(*comparePath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "momentbench:", err)
				os.Exit(1)
			}
			rep := moment.CompareBench(baseline, recs, *threshold)
			fmt.Print(rep)
			if err := rep.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "momentbench:", err)
				os.Exit(1)
			}
		}
		if len(flag.Args()) == 0 {
			if err := oflags.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "momentbench:", err)
				os.Exit(1)
			}
			return
		}
	} else if serveRec != nil && len(flag.Args()) == 0 {
		// A pure -serve-load run is complete once the record is printed.
		if err := oflags.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "momentbench:", err)
			os.Exit(1)
		}
		return
	}
	tables, err := moment.Experiments()
	if err != nil {
		fmt.Fprintln(os.Stderr, "momentbench:", err)
		os.Exit(1)
	}
	want := map[string]bool{}
	for _, arg := range flag.Args() {
		want[strings.ToLower(arg)] = true
	}
	var selected []*moment.Table
	for _, t := range tables {
		if len(want) > 0 && !want[strings.ToLower(t.ID)] {
			continue
		}
		selected = append(selected, t)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(selected); err != nil {
			fmt.Fprintln(os.Stderr, "momentbench:", err)
			os.Exit(1)
		}
		return
	}
	for _, t := range selected {
		fmt.Println(t)
	}
	if err := oflags.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "momentbench:", err)
		os.Exit(1)
	}
}

// writeBench writes benchmark records as an indented JSON array suitable
// for committing as BENCH_*.json.
func writeBench(path string, recs []moment.BenchRecord) error {
	w, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(recs); err != nil {
		w.Close()
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d benchmark records to %s\n", len(recs), path)
	return nil
}
