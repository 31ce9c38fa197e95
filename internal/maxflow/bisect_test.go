package maxflow

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// pipeNetwork: s -> a (rate R) -> t (demand D). Min time = D/R.
func TestBisectorSinglePipe(t *testing.T) {
	g := New(3)
	e1 := g.AddEdge(0, 1, 0)
	e2 := g.AddEdge(1, 2, 0)
	b := NewTimeBisector(g, 0, 2, 100)
	b.AddRateEdge(e1, 10)   // 10 bytes/s
	b.AddFixedEdge(e2, 100) // 100 bytes demand
	got, err := b.MinTime(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-10) > 1e-4*10 {
		t.Errorf("min time %v, want 10", got)
	}
}

// Two GPUs with unequal demands share an upstream bottleneck:
// s -> hub (rate 10) -> g1 (demand 30), hub -> g2 (demand 70).
// All demand moves through the hub: min time = 100/10 = 10.
func TestBisectorSharedBottleneck(t *testing.T) {
	g := New(5)
	s, hub, g1, g2, sink := 0, 1, 2, 3, 4
	eHub := g.AddEdge(s, hub, 0)
	l1 := g.AddEdge(hub, g1, 0)
	l2 := g.AddEdge(hub, g2, 0)
	d1 := g.AddEdge(g1, sink, 0)
	d2 := g.AddEdge(g2, sink, 0)
	b := NewTimeBisector(g, s, sink, 100)
	b.AddRateEdge(eHub, 10)
	b.AddRateEdge(l1, 100)
	b.AddRateEdge(l2, 100)
	b.AddFixedEdge(d1, 30)
	b.AddFixedEdge(d2, 70)
	got, err := b.MinTime(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-10) > 1e-3 {
		t.Errorf("min time %v, want 10", got)
	}
}

// Load imbalance: one GPU has a slow private link, so completion time is
// dominated by the straggler even though aggregate bandwidth is plentiful.
func TestBisectorStragglerDominates(t *testing.T) {
	g := New(4)
	s, g1, g2, sink := 0, 1, 2, 3
	f := g.AddEdge(s, g1, 0)
	sl := g.AddEdge(s, g2, 0)
	d1 := g.AddEdge(g1, sink, 0)
	d2 := g.AddEdge(g2, sink, 0)
	b := NewTimeBisector(g, s, sink, 200)
	b.AddRateEdge(f, 100) // fast link
	b.AddRateEdge(sl, 1)  // slow link
	b.AddFixedEdge(d1, 100)
	b.AddFixedEdge(d2, 100)
	got, err := b.MinTime(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-100) > 0.1 {
		t.Errorf("min time %v, want 100 (straggler-bound)", got)
	}
}

func TestBisectorInfeasible(t *testing.T) {
	// Demand on a GPU with no incoming path.
	g := New(3)
	d := g.AddEdge(1, 2, 0) // node 1 unreachable from 0
	b := NewTimeBisector(g, 0, 2, 50)
	b.AddFixedEdge(d, 50)
	if _, err := b.MinTime(1e-6); err == nil {
		t.Fatal("expected infeasibility error")
	}
}

func TestBisectorZeroDemand(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 0)
	b := NewTimeBisector(g, 0, 1, 0)
	got, err := b.MinTime(1e-6)
	if err != nil || got != 0 {
		t.Fatalf("got (%v, %v), want (0, nil)", got, err)
	}
}

func TestBisectorFeasibleLeavesFlow(t *testing.T) {
	g := New(3)
	e1 := g.AddEdge(0, 1, 0)
	e2 := g.AddEdge(1, 2, 0)
	b := NewTimeBisector(g, 0, 2, 100)
	b.AddRateEdge(e1, 10)
	b.AddFixedEdge(e2, 100)
	if !b.Feasible(20) {
		t.Fatal("t=20 should be feasible")
	}
	if f := g.Flow(e2); math.Abs(f-100) > 1e-6 {
		t.Errorf("flow on demand edge %v, want 100", f)
	}
	if b.Feasible(5) {
		t.Fatal("t=5 should be infeasible")
	}
}

// Property: MinTime is the threshold — slightly above feasible, slightly
// below infeasible — on random two-tier networks.
func TestBisectorThresholdProperty(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		nStore := 1 + r.Intn(3)
		nGPU := 1 + r.Intn(3)
		g := New(2 + nStore + nGPU)
		s := 0
		sink := 1 + nStore + nGPU
		b := NewTimeBisector(g, s, sink, 0)
		for j := 0; j < nStore; j++ {
			e := g.AddEdge(s, 1+j, 0)
			b.AddRateEdge(e, float64(1+r.Intn(20)))
		}
		total := 0.0
		for k := 0; k < nGPU; k++ {
			gv := 1 + nStore + k
			for j := 0; j < nStore; j++ {
				if r.Intn(2) == 0 || j == k%nStore {
					e := g.AddEdge(1+j, gv, 0)
					b.AddRateEdge(e, float64(1+r.Intn(20)))
				}
			}
			d := float64(1 + r.Intn(100))
			e := g.AddEdge(gv, sink, 0)
			b.AddFixedEdge(e, d)
			total += d
		}
		b.Demand = total
		tm, err := b.MinTime(1e-5)
		if err != nil {
			continue // disconnected instance; fine
		}
		if !b.Feasible(tm * 1.01) {
			t.Fatalf("iter %d: t*1.01 infeasible (t=%v)", i, tm)
		}
		if tm > 1e-6 && b.Feasible(tm*0.98) {
			t.Fatalf("iter %d: t*0.98 feasible (t=%v)", i, tm)
		}
	}
}

func TestBisectorInvalidInputsPanic(t *testing.T) {
	g := New(2)
	e := g.AddEdge(0, 1, 0)
	b := NewTimeBisector(g, 0, 1, 1)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("negative rate", func() { b.AddRateEdge(e, -1) })
	mustPanic("nan fixed", func() { b.AddFixedEdge(e, math.NaN()) })
	// Regression: registering a residual companion (odd id) used to corrupt
	// residual invariants on the first apply(); it must panic up front.
	mustPanic("odd rate edge", func() { b.AddRateEdge(e^1, 1) })
	mustPanic("odd fixed edge", func() { b.AddFixedEdge(e^1, 1) })
	mustPanic("rate edge out of range", func() { b.AddRateEdge(EdgeID(42), 1) })
}

// Regression: Feasible(t<=0) used to return without touching the graph,
// leaving capacities and flow from the previous probe in place while
// reporting on the zero-demand case — subsequent Flow() reads were garbage.
func TestBisectorZeroHorizonClearsStaleState(t *testing.T) {
	g := New(3)
	e1 := g.AddEdge(0, 1, 0)
	e2 := g.AddEdge(1, 2, 0)
	b := NewTimeBisector(g, 0, 2, 100)
	b.AddRateEdge(e1, 10)
	b.AddFixedEdge(e2, 100)
	if !b.Feasible(20) {
		t.Fatal("t=20 should be feasible")
	}
	if f := g.Flow(e1); f < 99 {
		t.Fatalf("probe at t=20 should leave flow, got %v", f)
	}
	if b.Feasible(0) {
		t.Fatal("t=0 must be infeasible for positive demand")
	}
	if f := g.Flow(e1); f != 0 {
		t.Errorf("stale flow %v on rate edge after Feasible(0), want 0", f)
	}
	if f := g.Flow(e2); f != 0 {
		t.Errorf("stale flow %v on fixed edge after Feasible(0), want 0", f)
	}
	if c := g.Capacity(e1); c != 0 {
		t.Errorf("rate edge capacity %v at horizon 0, want 0", c)
	}
	if c := g.Capacity(e2); c != 100 {
		t.Errorf("fixed edge capacity %v at horizon 0, want 100", c)
	}

	// Zero demand at zero horizon is feasible, and equally clean.
	b0 := NewTimeBisector(g, 0, 2, 0)
	b0.AddRateEdge(e1, 10)
	b0.AddFixedEdge(e2, 0)
	if !b0.Feasible(0) {
		t.Fatal("zero demand must be feasible at t=0")
	}
	if f := g.Flow(e1); f != 0 {
		t.Errorf("flow %v after zero-demand probe, want 0", f)
	}
}

// randomBisector turns randomNetwork(seed) into a horizon problem: each
// edge becomes a rate edge (its capacity in bytes/second) or a byte budget
// of ten times its capacity, and the demand is a random fraction, up to
// 1.2, of the flow the network carries at horizon 1000 — so some instances
// fit at horizon 0 and some at no horizon. It also returns the smallest
// registered rate.
func randomBisector(seed int64) (b *TimeBisector, minRate float64) {
	r := rand.New(rand.NewSource(seed))
	g, s, sink := randomNetwork(r)
	b = NewTimeBisector(g, s, sink, 0)
	late := g.Clone()
	minRate = Inf
	for e := EdgeID(0); int(e) < 2*g.M(); e += 2 {
		c := g.Capacity(e)
		if r.Intn(2) == 0 {
			b.AddRateEdge(e, c)
			late.SetCapacity(e, 1000*c)
			minRate = math.Min(minRate, c)
		} else {
			b.AddFixedEdge(e, 10*c)
			late.SetCapacity(e, 10*c)
		}
	}
	b.Demand = late.MaxFlow(s, sink) * 1.2 * r.Float64()
	return b, minRate
}

// TestMinTimeMatchesBisectionOracle is the Newton search's differential
// against a cold bisection oracle on the random-network suite: the same
// ErrInfeasible verdicts, and Newton's T ≤ the oracle's ≤ T/(1−tol). The
// first bound is slackened by the horizon Feasible's byte slack buys on
// the slowest rate edge; the second is the bisection bracket's width.
func TestMinTimeMatchesBisectionOracle(t *testing.T) {
	verdicts := map[string]int{}
	for seed := int64(0); seed < 400; seed++ {
		for _, tol := range []float64{1e-4, 1e-6} {
			b, minRate := randomBisector(seed)
			oracle, _ := randomBisector(seed)
			tn, errN := b.MinTime(tol)
			to, errO := bisectMinTime(oracle, tol)
			if errors.Is(errN, ErrInfeasible) != errors.Is(errO, ErrInfeasible) || (errN == nil) != (errO == nil) {
				t.Fatalf("seed %d tol %g: Newton err %v, oracle err %v", seed, tol, errN, errO)
			}
			switch {
			case errN != nil:
				verdicts["infeasible"]++
				continue
			case tn == 0:
				verdicts["zero-horizon"]++
			default:
				verdicts["positive"]++
			}
			slack := relEps(b.Demand) / minRate
			if tn > to+slack || to*(1-tol) > tn+slack {
				t.Fatalf("seed %d tol %g: Newton %.12g, oracle %.12g (demand %g)", seed, tol, tn, to, b.Demand)
			}
		}
	}
	// The suite must reach every branch, or it proves less than it says.
	for _, v := range []string{"infeasible", "zero-horizon", "positive"} {
		if verdicts[v] == 0 {
			t.Errorf("no %s instance in the suite: %v", v, verdicts)
		}
	}
}

// Regression: a demand that fits at horizon 0 (a byte budget feeding an
// unbounded rate edge) sent bisection's upper end down into the
// subnormals, where the midpoint rounds to zero and the loop never ended.
// MinTime answers 0 and leaves the horizon-0 flow on the graph.
func TestMinTimeFitsAtZeroHorizon(t *testing.T) {
	g := New(3)
	budget := g.AddEdge(0, 1, 0)
	link := g.AddEdge(1, 2, 0)
	b := NewTimeBisector(g, 0, 2, 5)
	b.AddFixedEdge(budget, 10)
	b.AddRateEdge(link, Inf)
	got, err := b.MinTime(1e-4)
	if err != nil || got != 0 {
		t.Fatalf("MinTime = (%v, %v), want (0, nil)", got, err)
	}
	if f := g.Flow(link); f < b.Demand {
		t.Fatalf("flow %v on the graph, want at least the demand %v", f, b.Demand)
	}
}

// A byte budget below the demand caps the flow at every horizon. The cut
// made of that budget alone has rate 0 and certifies ErrInfeasible on the
// second probe, where the bisection oracle gives up after 80 doublings.
func TestMinTimeBudgetCutInfeasible(t *testing.T) {
	g := New(3)
	budget := g.AddEdge(0, 1, 0)
	link := g.AddEdge(1, 2, 0)
	b := NewTimeBisector(g, 0, 2, 5)
	b.AddFixedEdge(budget, 4)
	b.AddRateEdge(link, 1)
	if _, err := b.MinTime(1e-4); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("MinTime err = %v, want ErrInfeasible", err)
	}
	if b.Probes > 2 {
		t.Fatalf("%d probes to prove infeasibility, want at most 2", b.Probes)
	}
}

// TestSolveAllocs pins the solver's steady state at zero allocations: a
// cold MaxFlow on a 60-node, 400-edge graph, and a whole MinTime, warm
// probes included, once its scratch has grown.
func TestSolveAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(60))
	g := New(60)
	for g.M() < 400 {
		if u, v := r.Intn(60), r.Intn(60); u != v {
			g.AddEdge(u, v, float64(1+r.Intn(50)))
		}
	}
	g.MaxFlow(0, 59)
	if avg := testing.AllocsPerRun(100, func() { g.MaxFlow(0, 59) }); avg != 0 {
		t.Errorf("MaxFlow allocates %.1f times per solve, want 0", avg)
	}

	b := buildWarmNet(1)
	if _, err := b.MinTime(1e-4); err != nil {
		t.Fatal(err)
	}
	starts := b.WarmStarts
	if avg := testing.AllocsPerRun(100, func() { _, _ = b.MinTime(1e-4) }); avg != 0 {
		t.Errorf("MinTime allocates %.1f times per solve, want 0", avg)
	}
	if b.WarmStarts == starts {
		t.Fatal("the measured solves never warm-started")
	}
}
