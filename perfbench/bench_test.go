package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"moment/internal/gnn"
	"moment/internal/topology"
)

func TestOpSequencesFollowTheSeed(t *testing.T) {
	pw := func(seed int64) any {
		ops, err := planWideOps(seed, 300)
		if err != nil {
			t.Fatal(err)
		}
		return ops
	}
	serve := func(seed int64) any {
		seqs, oneOffs := serveOps(seed, 2000, false)
		return []any{seqs, oneOffs}
	}
	serveHits := func(seed int64) any {
		seqs, _ := serveOps(seed, 2000, true)
		return seqs
	}
	horizon := func(seed int64) any {
		h := &horizon{seed: seed}
		var seeds []int64
		var events []any
		for i := 0; i < 20; i++ {
			seeds = append(seeds, h.opSeed(i))
			events = append(events, faultSchedule(h.opSeed(i), topology.MachineA(), 14))
		}
		return []any{seeds, events}
	}
	for name, gen := range map[string]func(int64) any{"plan-wide": pw, "serve": serve, "serve-hits": serveHits, "horizon": horizon} {
		if a, b := gen(7), gen(7); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated two different sequences", name)
		}
		if a, b := gen(7), gen(8); reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 7 and 8 generated the same sequence", name)
		}
	}
}

func TestPlanWideMixIsBalanced(t *testing.T) {
	ops, err := planWideOps(3, pwMaxOps)
	if err != nil {
		t.Fatal(err)
	}
	batches := map[int]bool{}
	type triple struct {
		chassis int
		dataset string
		model   gnn.ModelKind
	}
	pairs := map[triple]int{}
	for i, o := range ops {
		if batches[o.w.BatchSize] {
			t.Fatalf("op %d repeats batch size %d", i, o.w.BatchSize)
		}
		batches[o.w.BatchSize] = true
		if i < pwPrefix {
			pairs[triple{o.chassis, o.w.Dataset.Name, o.w.Model}]++
		}
	}
	// The prefix plans every dataset×model pair twice on SM420GP and once
	// on Falcon4016.
	if len(pairs) != 16 {
		t.Fatalf("prefix covers %d chassis×dataset×model triples, want 16", len(pairs))
	}
	for k, n := range pairs {
		if want := 2 - k.chassis; n != want {
			t.Errorf("triple %v planned %d times in the prefix, want %d", k, n, want)
		}
	}
}

func TestServeMixHoldsTwoPercentOneOffs(t *testing.T) {
	seqs, oneOffs := serveOps(5, 5000, false)
	popular := int32(len(serveProblems()))
	for c, seq := range seqs {
		cold := 0
		combos := map[serveProblem]bool{}
		for k, r := range seq {
			if r.problem < popular {
				continue
			}
			cold++
			if k < servePrefix {
				p := oneOffs[r.problem-popular]
				p.batch = 0
				combos[p] = true
			}
		}
		if cold != len(seq)/serveBlock {
			t.Errorf("client %d: %d one-offs in %d requests", c, cold, len(seq))
		}
		if len(combos) != len(serveProblems()) {
			t.Errorf("client %d: prefix one-offs cover %d combinations, want %d", c, len(combos), len(serveProblems()))
		}
	}
	seen := map[int]bool{}
	for _, p := range oneOffs {
		if seen[p.batch] || p.batch == 8000 {
			t.Fatalf("one-off batch size %d repeats or is the default", p.batch)
		}
		seen[p.batch] = true
	}
	seqs, oneOffs = serveOps(5, 5000, true)
	if len(oneOffs) != 0 {
		t.Errorf("the hits-only mix generated %d one-offs", len(oneOffs))
	}
	for c, seq := range seqs {
		for k, r := range seq {
			if r.problem >= popular {
				t.Fatalf("hits-only client %d request %d asks for problem %d outside the popular set", c, k, r.problem)
			}
		}
	}
}

// benchmarkFile mirrors the parts of BENCHMARK.json the catalogue defines.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q / %q, benchmark %q / %q", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the catalogue %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		f := b.EndToEnd[i]
		if f.Name != d.name || f.Unit != d.unit || f.Better != d.better || f.Bound != d.bound {
			t.Errorf("end-to-end %d: file %+v, catalogue %+v", i, f, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the catalogue %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		f := b.PerLayer[i]
		if f.Name != d.name || f.Unit != d.unit || f.Better != d.better {
			t.Errorf("per-layer %d: file %+v, catalogue %+v", i, f, d)
		}
		if d.moves == "" {
			t.Errorf("per-layer %s does not say what it should move", d.name)
		}
	}
}

// TestEmittedMetricsMatchBenchmarkFile runs every workload briefly in both
// modes and checks the last output line against BENCHMARK.json.
func TestEmittedMetricsMatchBenchmarkFile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkFile(t)
	units := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range b.EndToEnd {
		units["0"][m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		units["1"][m.Name] = m.Unit
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var out, errs bytes.Buffer
			args := []string{"--workload", w.name, "--seed", "3", "--seconds", "0.2", "--trace", trace, "--spans", t.TempDir()}
			if code := run(args, &out, &errs); code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s\n%s", w.name, trace, code, errs.String(), out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w.name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace %s: correct %v, attempted %d, failed %d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, units[trace]) {
				t.Errorf("%s trace %s: emitted %v, BENCHMARK.json %v", w.name, trace, got, units[trace])
			}
		}
	}
}

func TestEmitRejectsMissingAndUnknownMetrics(t *testing.T) {
	values := zeroLayers()
	if _, err := emit(perLayer, values); err != nil {
		t.Fatal(err)
	}
	delete(values, perLayer[0].name)
	if _, err := emit(perLayer, values); err == nil {
		t.Error("a missing metric was emitted")
	}
	values = zeroLayers()
	values["no.such_metric"] = 1
	if _, err := emit(perLayer, values); err == nil {
		t.Error("an unknown metric was emitted")
	}
}

func TestNearestRankPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {100, 50}, {0.1, 15},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %v, want %v", c.p, got, c.want)
		}
	}
	// 99.9% of 1000 is exactly 999: float rounding must not push the rank
	// to 1000.
	var big []float64
	for i := 1; i <= 1000; i++ {
		big = append(big, float64(i))
	}
	if got := percentile(big, 99.9); got != 999 {
		t.Errorf("p99.9 of 1..1000 = %v, want 999", got)
	}
	if got := beyond(1000, 99.9); got != 1 {
		t.Errorf("beyond p99.9 of 1000 = %d, want 1", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2 {
		t.Errorf("median = %v, want 2 (nearest rank)", got)
	}
}

func TestSelfTimeOnSyntheticTree(t *testing.T) {
	// op [0,100) has children a [10,40) and b [30,60) that overlap by 10,
	// and c [90,120) that runs past the op's end; a has a child [15,25).
	// A replay [200,230) has no parent.
	spans := []span{
		{Name: "op", Op: 1, Parent: -1, Start: 0, End: 100},
		{Name: "a", Op: 1, Parent: 0, Start: 10, End: 40},
		{Name: "b", Op: 1, Parent: 0, Start: 30, End: 60},
		{Name: "c", Op: 1, Parent: 0, Start: 90, End: 120},
		{Name: "a.inner", Op: 1, Parent: 1, Start: 15, End: 25},
		{Name: "replay", Op: 1, Parent: -1, Start: 200, End: 230},
		{Name: "a", Op: 2, Parent: -1, Start: 300, End: 305},
	}
	want := map[string]time.Duration{
		"op":      100 - (50 + 10), // children cover [10,60) and [90,100)
		"a":       30 - 10 + 5,
		"b":       30,
		"c":       30,
		"a.inner": 10,
		"replay":  30,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	if got := coverage(spans, "op"); len(got) != 1 || got[0] != 0.6 {
		t.Errorf("coverage %v, want [0.6]", got)
	}
}

// TestOpSpanCountsGlue checks that an operation span is timed on its own
// and not derived from its calls: glue before the first call and between
// calls lowers its coverage.
func TestOpSpanCountsGlue(t *testing.T) {
	tr := newTracer()
	op := tr.begin(opSpan, 0, -1)
	time.Sleep(2 * time.Millisecond)
	_ = tr.call("first", 0, op, func() error { time.Sleep(time.Millisecond); return nil })
	time.Sleep(2 * time.Millisecond)
	_ = tr.call("second", 0, op, func() error { time.Sleep(time.Millisecond); return nil })
	tr.end(op)
	s := tr.snapshot()
	if s[op].Start >= s[1].Start || s[op].End < s[2].End {
		t.Errorf("op span [%d,%d) does not enclose its calls [%d,%d)", s[op].Start, s[op].End, s[1].Start, s[2].End)
	}
	c := coverage(s, opSpan)
	if len(c) != 1 || !(c[0] > 0) || !(c[0] < 0.9) {
		t.Errorf("coverage %v, want one value in (0, 0.9): 4 ms of glue against 2 ms of calls", c)
	}
}
