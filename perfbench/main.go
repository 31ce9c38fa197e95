// Command perfbench is the repository's benchmark. It runs one seeded
// workload against the planner's public entry points and prints the
// workload's end-to-end metrics, or, with --trace 1, the per-layer metrics
// of a traced run of the same operations. The last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics; the lines before it are the same figures for a human reader.
//
// Run it from the repository root; run.sh builds it from source first:
//
//	bash perfbench/run.sh --workload plan-wide --seed 1 --seconds 20 --trace 0
//
// The exit code is 0 only when every correctness check passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// processStart stands in for the process's start: package variables are
// initialized before main, a few milliseconds after exec.
var processStart = time.Now()

// workload is one seeded traffic mix.
type workload struct {
	name string
	why  string
	// op describes one operation, the loop and the client count.
	op string
	// tailPct is the fixed percentile latency_ms_tail reports.
	tailPct float64
	// open sets the workload up for seed.
	open func(seed int64) (session, error)
}

// setups is how many independent set-ups an untraced run performs;
// setup_s is their median.
const setups = 5

// session is one set-up of a workload: its generated operations plus any
// warm state, such as a running daemon.
type session interface {
	// run executes the closed loop from the first operation until d has
	// passed and at least the deterministic prefix is done. With a tracer
	// every operation is traced and its replays run after it.
	run(d time.Duration, tr *tracer) (*phase, error)
	// deterministic returns sim_epoch_s and pred_err_max over the
	// operations of the deterministic prefix.
	deterministic() (simEpoch, predErr float64)
	// verify re-runs sampled operations and returns the checks that failed.
	verify() []string
	// layers fills the per-layer metrics measured by the last traced run.
	layers(ph *phase, spans []span, out map[string]float64) error
	// setupChecks returns the checks the set-up made that failed.
	setupChecks() []string
	close() error
}

// phase is what one run of the closed loop measured.
type phase struct {
	lat      []float64 // per-operation latency in ms
	failures []string
	elapsed  time.Duration
	// mallocs and allocBytes are the runtime's allocation counters over
	// the phase, cpu the process's CPU time over it.
	mallocs, allocBytes uint64
	cpu                 time.Duration
}

// measure runs body as a phase, filling the phase's elapsed time, CPU
// time and allocation counters.
func measure(ph *phase, body func()) {
	m0, b0 := memCounters()
	c0 := cpuTime()
	start := time.Now()
	body()
	ph.elapsed = time.Since(start)
	ph.cpu = cpuTime() - c0
	m1, b1 := memCounters()
	ph.mallocs, ph.allocBytes = m1-m0, b1-b0
}

func (p *phase) ops() int { return len(p.lat) }

func (p *phase) fail(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

var workloads = []*workload{planWideWorkload, serveWorkload, serveHitsWorkload, driftWorkload, faultsWorkload}

func lookup(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func names() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(names(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; a seed always generates the same operations")
	seconds := fs.Float64("seconds", 20, "length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced phase and reports the per-layer metrics")
	spansDir := fs.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := lookup(*name)
	switch {
	case w == nil:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(names(), ", "))
		return 2
	case *traceFlag != 0 && *traceFlag != 1:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	case !(*seconds > 0):
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	d := time.Duration(*seconds * float64(time.Second))
	var res *result
	var err error
	if *traceFlag == 1 {
		res, err = traced(w, *seed, d, *spansDir)
	} else {
		res, err = untraced(w, *seed, d)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the benchmark's output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`

	notes    []string // printed before the JSON line
	failures []string
}

func (r *result) print(w io.Writer) error {
	var b strings.Builder
	for _, n := range r.notes {
		fmt.Fprintln(&b, n)
	}
	for _, f := range r.failures {
		fmt.Fprintln(&b, "FAILED:", f)
	}
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-28s %14.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}

// finish fills the counts and the verdict from the failures found.
func (r *result) finish(attempted int) {
	r.Attempted = attempted
	r.Failed = min(len(r.failures), attempted)
	r.Correct = len(r.failures) == 0
}

// untraced measures the end-to-end metrics: the workload is set up
// setups times (setup_s is the median; the first set-up is timed from
// process start), and the last set-up runs the timed phase.
func untraced(w *workload, seed int64, d time.Duration) (*result, error) {
	var s session
	var setupCPU, setupWall []float64
	var failures []string
	for i := 0; i < setups; i++ {
		if s != nil {
			// The previous set-up is torn down and collected first, so
			// every set-up starts from the same heap.
			if err := s.close(); err != nil {
				return nil, err
			}
			runtime.GC()
		}
		t0, c0 := time.Now(), cpuTime()
		if i == 0 {
			t0, c0 = processStart, 0
		}
		var err error
		if s, err = w.open(seed); err != nil {
			return nil, err
		}
		setupCPU = append(setupCPU, (cpuTime() - c0).Seconds())
		setupWall = append(setupWall, time.Since(t0).Seconds())
		failures = append(failures, s.setupChecks()...)
	}
	defer s.close()

	runtime.GC()
	ph, err := s.run(d, nil)
	if err != nil {
		return nil, err
	}
	failures = append(failures, ph.failures...)
	failures = append(failures, s.verify()...)
	simEpoch, predErr := s.deterministic()
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	n := ph.ops()
	values := map[string]float64{
		"setup_s":         median(setupCPU),
		"cpu_ms_per_op":   ms(ph.cpu) / float64(n),
		"allocs_per_op":   float64(ph.mallocs) / float64(n),
		"alloc_mb_per_op": float64(ph.allocBytes) / 1e6 / float64(n),
		"rss_mb":          rss,
		"sim_epoch_s":     simEpoch,
		"pred_err_max":    predErr,
	}
	metrics, err := emit(endToEnd, values)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: metrics, failures: failures}
	res.finish(n)
	res.notes = []string{
		fmt.Sprintf("workload %s, seed %d: %s", w.name, seed, w.op),
		fmt.Sprintf("  %d ops in %.2f s; set-ups: CPU s %s (setup_s is their median), wall s %s",
			n, ph.elapsed.Seconds(), fmtList(setupCPU), fmtList(setupWall)),
		"  wall clock (printed only: host steal makes it too unsteady to gate):",
		fmt.Sprintf("  %-28s %14.6g ms", "latency_ms_p50", median(ph.lat)),
		fmt.Sprintf("  %-28s %14.6g ms (p%g over %d ops, %d beyond it)", "latency_ms_tail",
			percentile(ph.lat, w.tailPct), w.tailPct, n, beyond(n, w.tailPct)),
		fmt.Sprintf("  %-28s %14.6g 1/s", "throughput", float64(n)/ph.elapsed.Seconds()),
		fmt.Sprintf("  %-28s %14.6g fraction (%d failed of %d attempted)", "error_rate",
			ratio(float64(res.Failed), float64(n)), res.Failed, n),
		"  gated metrics:",
	}
	return res, nil
}

// traced runs the operations untraced for half of d, then the same
// operations again, traced, for the other half (a session with warm state
// restores it between the halves). The per-layer metrics come from the
// traced half; obs.trace_overhead_frac compares the two halves' p50.
func traced(w *workload, seed int64, d time.Duration, spansDir string) (*result, error) {
	s, err := w.open(seed)
	if err != nil {
		return nil, err
	}
	defer s.close()
	failures := append([]string(nil), s.setupChecks()...)
	runtime.GC()
	plain, err := s.run(d/2, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	runtime.GC()
	ph, err := s.run(d/2, tr)
	if err != nil {
		return nil, err
	}
	spans := tr.snapshot()
	values := zeroLayers()
	if err := s.layers(ph, spans, values); err != nil {
		return nil, err
	}
	values["obs.trace_overhead_frac"] = ratio(median(ph.lat), median(plain.lat)) - 1
	cov := coverage(spans, opSpan)
	floor := percentile(cov, coverageFloorPct)
	values["bench.span_coverage_floor"] = floor
	var low []string
	for i, c := range cov {
		if c < minCoverage {
			low = append(low, fmt.Sprintf("op %d: %.3f", i, c))
		}
	}

	failures = append(failures, plain.failures...)
	failures = append(failures, ph.failures...)
	if floor < minCoverage {
		failures = append(failures, fmt.Sprintf("top-level spans cover less than %g of the wall time of %d of %d traced ops, more than one in %g: %s",
			minCoverage, len(low), len(cov), 100/coverageFloorPct, strings.Join(low, ", ")))
	}
	metrics, err := emit(perLayer, values)
	if err != nil {
		return nil, err
	}
	path, err := tr.write(spansDir, w.name, seed)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: metrics, failures: failures}
	res.finish(plain.ops() + ph.ops())
	res.notes = []string{
		fmt.Sprintf("workload %s, seed %d, traced: %s", w.name, seed, w.op),
		fmt.Sprintf("  untraced half: %d ops, p50 %.4g ms; traced half: %d ops, p50 %.4g ms", plain.ops(), median(plain.lat), ph.ops(), median(ph.lat)),
		fmt.Sprintf("  %d spans written to %s", len(spans), path),
		fmt.Sprintf("  span coverage: %d of %d traced ops below %g %v", len(low), len(cov), minCoverage, low),
	}
	for _, u := range unmeasured[w.name] {
		res.notes = append(res.notes, "  not measured from outside: "+u)
	}
	return res, nil
}

// The completeness check: the top-level spans must cover at least
// minCoverage of each traced operation's wall time, except for at most
// one operation in five hundred (bench.span_coverage_floor is the
// nearest-rank coverageFloorPct-th percentile of the per-operation
// coverage). A GC pause or a preemption of the host's vCPU can land in
// the benchmark's bookkeeping between an operation's span and its first
// call, and on a 0.2 ms plan-cache hit a 30 µs stall there is 15% of the
// operation: on the 2-vCPU reference host 27 of 60,000 traced serve-hits
// requests lost more than 5% that way.
const (
	minCoverage      = 0.95
	coverageFloorPct = 0.2
)

// opSpan names the span around each traced operation. It is timed on its
// own, opened before the operation's first public call and closed after
// its last, and its children are those calls, so its self time is the
// benchmark's glue around and between the calls, which the completeness
// check weighs.
const opSpan = "op"

// closedLoop calls op for i = 0, 1, ... until d has passed and at least
// minOps operations ran, or maxOps is reached. op returns the latency of
// the operation's public calls; work op does before or after them, such
// as checks and replays, counts toward the phase but not the latency.
func closedLoop(d time.Duration, minOps, maxOps int, op func(i int) (time.Duration, error)) *phase {
	ph := &phase{}
	deadline := time.Now().Add(d)
	measure(ph, func() {
		for i := 0; i < maxOps && (i < minOps || time.Now().Before(deadline)); i++ {
			lat, err := op(i)
			ph.lat = append(ph.lat, ms(lat))
			if err != nil {
				ph.fail("op %d: %v", i, err)
			}
		}
	})
	return ph
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
