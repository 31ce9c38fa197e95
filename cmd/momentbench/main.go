// Command momentbench regenerates every table and figure of the paper's
// evaluation section and prints them in order (the reproduction harness).
//
// Usage:
//
//	momentbench                   # everything, as aligned tables
//	momentbench fig10 fig16       # selected figures
//	momentbench -json > out.json  # machine-readable
//	momentbench -bench BENCH.json # the paper grid's benchmark records
//	momentbench -compare OLD.json # diff fresh records against a baseline;
//	                              # exit 1 on >10% epoch-time regressions
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"moment/cmd/internal/obsflag"
	"moment/internal/experiments"
)

// regressThreshold is the relative epoch-time slowdown -compare fails on.
const regressThreshold = 0.10

func main() {
	asJSON := flag.Bool("json", false, "emit tables as a JSON array")
	benchPath := flag.String("bench", "",
		"write the paper grid's benchmark records (JSON) to this file")
	comparePath := flag.String("compare", "",
		"diff fresh benchmark records against this baseline BENCH_*.json; exit 1 on regressions")
	oflags := obsflag.Register()
	flag.Parse()
	oflags.Enable()
	if *benchPath != "" || *comparePath != "" {
		recs, err := experiments.BenchRecords()
		if err != nil {
			fail(err)
		}
		if *benchPath != "" {
			if err := writeBench(*benchPath, recs); err != nil {
				fail(err)
			}
		}
		if *comparePath != "" {
			baseline, err := experiments.ReadBenchRecords(*comparePath)
			if err != nil {
				fail(err)
			}
			rep := experiments.CompareBench(baseline, recs, regressThreshold)
			fmt.Print(rep)
			if err := rep.Err(); err != nil {
				fail(err)
			}
		}
		if len(flag.Args()) == 0 {
			if err := oflags.Flush(); err != nil {
				fail(err)
			}
			return
		}
	}
	tables, err := experiments.All()
	if err != nil {
		fail(err)
	}
	want := map[string]bool{}
	for _, arg := range flag.Args() {
		want[strings.ToLower(arg)] = true
	}
	var selected []*experiments.Table
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
			fail(err)
		}
		return
	}
	for _, t := range selected {
		fmt.Println(t)
	}
	if err := oflags.Flush(); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "momentbench:", err)
	os.Exit(1)
}

// writeBench writes benchmark records as an indented JSON array suitable
// for committing as BENCH_*.json.
func writeBench(path string, recs []experiments.BenchRecord) error {
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
