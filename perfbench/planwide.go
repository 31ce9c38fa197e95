package main

import (
	_ "embed"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"moment"
	"moment/internal/ddak"
	"moment/internal/flownet"
	"moment/internal/gnn"
	"moment/internal/graph"
	"moment/internal/placement"
	"moment/internal/profiler"
	"moment/internal/topology"
	"moment/internal/trainsim"
)

// The two vendor chassis plan-wide plans for, as spec text (the
// topology.FormatSpec form of topology.Supermicro420GP and
// topology.H3Falcon4016).
var (
	//go:embed specs/sm420gp.spec
	sm420gpSpec string
	//go:embed specs/falcon4016.spec
	falcon4016Spec string
)

var (
	datasetNames = []string{"PA", "IG", "UK", "CL"}
	modelKinds   = []gnn.ModelKind{gnn.KindSAGE, gnn.KindGAT}
)

const (
	// pwPrefix is the deterministic prefix: two rounds of the eight
	// dataset×model pairs on SM420GP and one on Falcon4016.
	pwPrefix = 24
	// Batch sizes are distinct draws from [pwBatchMin, pwBatchMin+pwMaxOps),
	// so no two operations share a problem.
	pwBatchMin = 6000
	pwMaxOps   = 4000
	// pwTolerance is the search's default bisection tolerance.
	pwTolerance = 1e-4
	// ddakPoolN is DDAK's pooling factor, trainsim.Config's default PoolN.
	ddakPoolN = 100
)

var planWideWorkload = &workload{
	name: "plan-wide",
	why:  "1 caller, closed loop, ops generated from the seed: cold moment.Optimize of distinct problems on SM420GP and Falcon4016 spec text, no shared cache; the placement search dominates",
	op: "one cold moment.Optimize per op (observer off, no shared cache), one caller, closed loop; " +
		"SM420GP:Falcon4016 = 2:1, PA/IG/UK/CL x GraphSAGE/GAT, distinct seeded batch sizes",
	tailPct: 85,
	open:    openPlanWide,
}

// pwOp is one plan-wide problem.
type pwOp struct {
	chassis int // 0 SM420GP, 1 Falcon4016
	w       trainsim.Workload
}

// planWideOps generates the first n problems for seed. Each triple of
// operations holds two SM420GP problems and one Falcon4016 problem in
// seeded order, each chassis cycles through seeded permutations of the
// eight dataset×model pairs, and batch sizes never repeat.
func planWideOps(seed int64, n int) ([]pwOp, error) {
	if n > pwMaxOps {
		return nil, fmt.Errorf("plan-wide generates at most %d distinct problems", pwMaxOps)
	}
	rng := rand.New(rand.NewSource(seed))
	var pending [2][]int
	nextPair := func(c int) int {
		if len(pending[c]) == 0 {
			pending[c] = rng.Perm(len(datasetNames) * len(modelKinds))
		}
		p := pending[c][0]
		pending[c] = pending[c][1:]
		return p
	}
	batches := rng.Perm(pwMaxOps)
	ops := make([]pwOp, 0, n)
	for len(ops) < n {
		falcon := rng.Intn(3)
		for k := 0; k < 3 && len(ops) < n; k++ {
			c := 0
			if k == falcon {
				c = 1
			}
			p := nextPair(c)
			ds, err := graph.DatasetByName(datasetNames[p/len(modelKinds)])
			if err != nil {
				return nil, err
			}
			ops = append(ops, pwOp{chassis: c, w: trainsim.Workload{
				Dataset:   ds,
				Model:     modelKinds[p%len(modelKinds)],
				BatchSize: pwBatchMin + batches[len(ops)],
			}})
		}
	}
	return ops, nil
}

// planOut is the part of a plan the correctness checks compare.
type planOut struct {
	placement string
	predicted float64 // predicted epoch I/O, s
	simIO     float64 // simulated epoch I/O, s
	epoch     float64 // simulated epoch, s
}

func (p planOut) predErr() float64 { return math.Abs(p.predicted-p.simIO) / p.simIO }

func placementString(p *topology.Placement) string {
	return "gpu=" + strings.Join(p.GPUAt, ",") + " ssd=" + strings.Join(p.SSDAt, ",")
}

func outOf(best *topology.Placement, predicted float64, epoch *trainsim.Result) (planOut, error) {
	switch {
	case best == nil:
		return planOut{}, fmt.Errorf("no placement")
	case epoch == nil || epoch.OOM != "":
		return planOut{}, fmt.Errorf("no simulated epoch")
	case !(predicted > 0) || !(epoch.IOTime.Sec() > 0):
		return planOut{}, fmt.Errorf("predicted I/O %v s, simulated I/O %v s", predicted, epoch.IOTime.Sec())
	}
	return planOut{
		placement: placementString(best),
		predicted: predicted,
		simIO:     epoch.IOTime.Sec(),
		epoch:     epoch.EpochTime.Sec(),
	}, nil
}

type planWide struct {
	seed    int64
	chassis [2]*topology.Machine
	ops     []pwOp
	// prefix holds the outputs of the deterministic prefix from the first
	// run; later runs, traced or not, must reproduce them.
	prefix []planOut
	have   []bool
	// setupFails are the warm-up operations that failed.
	setupFails []string

	// Traced-run accumulators.
	evaluated, enumerated                 int
	solves, probes, warmStarts, warmAbort int
}

func openPlanWide(seed int64) (session, error) {
	p := &planWide{seed: seed, prefix: make([]planOut, pwPrefix), have: make([]bool, pwPrefix)}
	for i, spec := range []string{sm420gpSpec, falcon4016Spec} {
		m, err := topology.ParseSpec(strings.NewReader(spec))
		if err != nil {
			return nil, fmt.Errorf("parse chassis spec: %w", err)
		}
		p.chassis[i] = m
	}
	var err error
	if p.ops, err = planWideOps(seed, pwMaxOps); err != nil {
		return nil, err
	}
	// Fixed warm-up: three problems outside the timed batch-size range.
	for i, w := range []struct {
		chassis int
		ds      string
		model   gnn.ModelKind
	}{{0, "IG", gnn.KindSAGE}, {1, "UK", gnn.KindGAT}, {0, "CL", gnn.KindGAT}} {
		ds, err := graph.DatasetByName(w.ds)
		if err != nil {
			return nil, err
		}
		wl := trainsim.Workload{Dataset: ds, Model: w.model, BatchSize: pwBatchMin - 1 - i}
		plan, err := moment.Optimize(p.chassis[w.chassis], wl)
		if err == nil {
			_, err = outOf(plan.Placement, plan.PredictedIO.Sec(), plan.Epoch)
		}
		if err != nil {
			p.setupFails = append(p.setupFails, fmt.Sprintf("warm-up op %d: %v", i, err))
		}
	}
	return p, nil
}

func (p *planWide) run(d time.Duration, tr *tracer) (*phase, error) {
	p.evaluated, p.enumerated = 0, 0
	p.solves, p.probes, p.warmStarts, p.warmAbort = 0, 0, 0, 0
	op := p.op
	if tr != nil {
		op = func(i int) (time.Duration, error) { return p.tracedOp(i, tr) }
	}
	return closedLoop(d, pwPrefix, len(p.ops), op), nil
}

// record checks an operation's output against the prefix's first run.
func (p *planWide) record(i int, out planOut) error {
	if i >= pwPrefix {
		return nil
	}
	if !p.have[i] {
		p.prefix[i], p.have[i] = out, true
		return nil
	}
	if out != p.prefix[i] {
		return fmt.Errorf("plan %+v differs from the earlier run's %+v", out, p.prefix[i])
	}
	return nil
}

func (p *planWide) op(i int) (time.Duration, error) {
	o := p.ops[i]
	t0 := time.Now()
	plan, err := moment.Optimize(p.chassis[o.chassis], o.w)
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	out, err := outOf(plan.Placement, plan.PredictedIO.Sec(), plan.Epoch)
	if err != nil {
		return lat, err
	}
	return lat, p.record(i, out)
}

// tracedOp runs the same planning pass as moment.Optimize — the public
// calls core.CoOptimize makes, in its order and with its arguments — each
// inside its own span, then replays the calls that happen inside Search
// and SimulateEpoch outside the operation's span.
func (p *planWide) tracedOp(i int, tr *tracer) (time.Duration, error) {
	o := p.ops[i]
	m := p.chassis[o.chassis]
	var (
		cands []*topology.Placement
		dem   *flownet.Demand
		res   *placement.Result
		epoch *trainsim.Result
	)
	cfg := trainsim.Config{Machine: m, Workload: o.w}
	t0 := time.Now()
	op := tr.begin(opSpan, i, -1)
	err := tr.call("topology.Validate", i, op, m.Validate)
	if err == nil {
		err = tr.call("profiler.Measure", i, op, func() error {
			_, err := profiler.Measure(m, profiler.Options{})
			return err
		})
	}
	if err == nil {
		err = tr.call("placement.Enumerate", i, op, func() (err error) {
			cands, err = placement.Enumerate(m)
			return err
		})
	}
	if err == nil && len(cands) == 0 {
		err = fmt.Errorf("no candidates")
	}
	if err == nil {
		cfg.Placement = cands[0]
		err = tr.call("trainsim.PlanDemand", i, op, func() (err error) {
			dem, _, err = trainsim.PlanDemand(cfg)
			return err
		})
	}
	if err == nil {
		err = tr.call("placement.Search", i, op, func() (err error) {
			res, err = placement.Search(m, dem, placement.Options{})
			return err
		})
	}
	if err == nil {
		cfg.Placement = res.Best
		err = tr.call("trainsim.SimulateEpoch", i, op, func() (err error) {
			epoch, err = trainsim.SimulateEpoch(cfg)
			return err
		})
	}
	tr.end(op)
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	out, err := outOf(res.Best, res.Time.Sec(), epoch)
	if err != nil {
		return lat, err
	}
	if err := p.record(i, out); err != nil {
		return lat, err
	}
	p.enumerated += res.Enumerated
	p.evaluated += res.Evaluated
	err = p.replay(i, tr, m, cfg.Workload, cands, dem, epoch)
	// Collect the replay's garbage before the next operation, so that it
	// is not billed to that operation's spans.
	runtime.GC()
	return lat, err
}

// replay re-runs, outside the operation's span, the calls made inside
// placement.Search (canonical keys, network builds, bisections) and
// trainsim.SimulateEpoch (workload stats, twice per plan as PlanDemand and
// SimulateEpoch each derive them; DDAK placement).
func (p *planWide) replay(i int, tr *tracer, m *topology.Machine, w trainsim.Workload, cands []*topology.Placement, dem *flownet.Demand, epoch *trainsim.Result) error {
	keys := make([]string, len(cands))
	err := tr.call("placement.CanonicalKey", i, -1, func() (err error) {
		for k, c := range cands {
			if keys[k], err = placement.CanonicalKey(m, c); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	seen := make(map[string]bool, len(keys))
	var evaluated []*topology.Placement
	for k, key := range keys {
		if !seen[key] {
			seen[key] = true
			evaluated = append(evaluated, cands[k])
		}
	}
	nets := make([]*flownet.Network, len(evaluated))
	err = tr.call("flownet.Build", i, -1, func() (err error) {
		for k, c := range evaluated {
			if nets[k], err = flownet.Build(m, c, dem); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	_ = tr.call("maxflow.SolveTol", i, -1, func() error {
		for _, n := range nets {
			// An infeasible candidate errs here as it does in Search,
			// which skips it; the replay times it the same way.
			_, _ = n.SolveTol(pwTolerance)
		}
		return nil
	})
	for _, n := range nets {
		probes, _, warm, aborts := n.SolveCounters()
		p.solves++
		p.probes += probes
		p.warmStarts += warm
		p.warmAbort += aborts
	}

	w = w.Defaults()
	w.NumGPUs = m.NumGPUs
	var st *trainsim.Stats
	for k := 0; k < 2 && err == nil; k++ {
		err = tr.call("trainsim.ComputeStats", i, -1, func() (err error) {
			st, err = trainsim.ComputeStats(w, 0)
			return err
		})
	}
	if err != nil {
		return err
	}
	return replayPlace(tr, i, st, epoch)
}

// replayPlace re-runs DDAK on the items and bins of a simulated epoch.
// SimulateEpoch places the rank buckets left after the replicated GPU
// cache takes its hot head, which is the tail of the stats' buckets with
// as many items as the assignment covers.
func replayPlace(tr *tracer, i int, st *trainsim.Stats, epoch *trainsim.Result) error {
	a := epoch.BinAssign
	n := len(st.VirtualHot)
	if a == nil || len(a.Of) > n {
		return fmt.Errorf("epoch assignment does not match the workload stats")
	}
	items := make([]ddak.Item, 0, len(a.Of))
	for k := n - len(a.Of); k < n; k++ {
		items = append(items, ddak.Item{Hot: st.VirtualHot[k], Bytes: st.VirtualBytes[k]})
	}
	return tr.call("ddak.PlaceItems", i, -1, func() error {
		_, err := ddak.PlaceItems(items, a.Bins, ddakPoolN, st.FetchBytesEpoch)
		return err
	})
}

func (p *planWide) deterministic() (simEpoch, predErr float64) {
	var epochs []float64
	for i, out := range p.prefix {
		if !p.have[i] {
			continue
		}
		epochs = append(epochs, out.epoch)
		predErr = math.Max(predErr, out.predErr())
	}
	return mean(epochs), predErr
}

// verify re-plans one seeded operation of the prefix: the placement and
// the predicted I/O must be identical.
func (p *planWide) verify() []string {
	i := rand.New(rand.NewSource(p.seed)).Intn(pwPrefix)
	if !p.have[i] {
		return []string{fmt.Sprintf("re-plan: op %d never ran", i)}
	}
	o := p.ops[i]
	plan, err := moment.Optimize(p.chassis[o.chassis], o.w)
	if err != nil {
		return []string{fmt.Sprintf("re-plan op %d: %v", i, err)}
	}
	out, err := outOf(plan.Placement, plan.PredictedIO.Sec(), plan.Epoch)
	if err != nil {
		return []string{fmt.Sprintf("re-plan op %d: %v", i, err)}
	}
	if out.placement != p.prefix[i].placement || out.predicted != p.prefix[i].predicted {
		return []string{fmt.Sprintf("re-plan op %d: %s / %v s, first plan %s / %v s",
			i, out.placement, out.predicted, p.prefix[i].placement, p.prefix[i].predicted)}
	}
	return nil
}

func (p *planWide) layers(ph *phase, spans []span, out map[string]float64) error {
	n := float64(ph.ops())
	self := selfTimes(spans)
	perOp := func(name string) float64 { return ms(self[name]) / n }
	out["placement.enumerate_ms"] = perOp("placement.Enumerate")
	out["placement.search_ms"] = perOp("placement.Search")
	out["placement.evaluated_frac"] = ratio(float64(p.evaluated), float64(p.enumerated))
	out["placement.dedupe_ms"] = perOp("placement.CanonicalKey")
	out["flownet.build_ms"] = perOp("flownet.Build")
	out["maxflow.bisect_ms"] = perOp("maxflow.SolveTol")
	out["maxflow.probes_per_solve"] = ratio(float64(p.probes), float64(p.solves))
	out["maxflow.warm_start_frac"] = ratio(float64(p.warmStarts), float64(p.probes))
	out["maxflow.warm_abort_frac"] = ratio(float64(p.warmAbort), float64(p.warmStarts))
	out["profiler.measure_ms"] = perOp("profiler.Measure")
	out["trainsim.demand_ms"] = perOp("trainsim.PlanDemand")
	out["trainsim.stats_ms"] = perOp("trainsim.ComputeStats")
	out["trainsim.epoch_ms"] = perOp("trainsim.SimulateEpoch")
	out["ddak.place_ms"] = perOp("ddak.PlaceItems")
	return nil
}

func (p *planWide) setupChecks() []string { return p.setupFails }

func (p *planWide) close() error { return nil }
