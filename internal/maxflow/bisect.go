package maxflow

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// ErrInfeasible is returned when no horizon can satisfy the demand (some
// demand is disconnected from the source, or a fixed edge caps it).
var ErrInfeasible = errors.New("maxflow: demand unsatisfiable at any horizon")

// TimeBisector estimates the minimum wall-clock time T at which a set of
// byte demands can be routed through a bandwidth-constrained network —
// the quantity the paper's "time-bisection Ford–Fulkerson" searches for
// (§3.2, Problem Solving).
//
// Edge capacities come in two flavors:
//   - rate edges: physical links whose capacity is a bandwidth; at horizon T
//     they can carry rate·T bytes;
//   - fixed edges: byte budgets independent of T (per-GPU demand arcs into
//     the sink, or per-storage supply arcs out of the source).
//
// Feasible(T) asks whether max-flow at horizon T moves all Demand bytes;
// MinTime finds the smallest such T exactly, by Newton steps on the
// min-cut line rather than by bisection (see MinTime).
type TimeBisector struct {
	G      *Graph
	S, T   int
	Demand float64 // total bytes that must arrive at the sink

	// DisableWarmStart forces every probe to rebuild all capacities and
	// solve from an empty flow — the pre-warm-start behavior, kept as the
	// differential reference (and escape hatch). Default off: probes at a
	// horizon at or above the last solved one reuse the flow already on
	// the graph and only augment the difference.
	DisableWarmStart bool

	// Ctx, when non-nil, lets an abandoned caller stop a search early:
	// MinTime checks it before every probe and returns the context's error
	// once it is done. Probe granularity keeps the check off the inner
	// augmenting-path loop — a single max-flow solve on these networks is
	// microseconds, so cancellation latency is one probe, not one solve
	// sequence. Cleared by Reinit (a rebound bisector serves a new caller).
	Ctx context.Context

	rateEdges  []EdgeID
	rates      []float64
	fixedEdges []EdgeID
	fixed      []float64

	// Probes counts Feasible evaluations (each one max-flow solve, the
	// horizon-0 solve included) and Iterations counts MinTime's Newton
	// steps; both reset at the start of each MinTime. Plain ints:
	// bisectors are not shared across goroutines, and callers report them
	// to an observer after the solve rather than paying atomics inside it.
	Probes     int
	Iterations int
	// WarmStarts counts probes that reused the previous probe's flow, and
	// WarmAborts counts warm attempts abandoned because a capacity would
	// have shrunk (non-monotone schedule change, e.g. a rate lowered via
	// SetRate between solves — self-detected, never silently wrong). Both
	// are cumulative across MinTime calls, unlike Probes/Iterations, so
	// fault-degradation sequences can audit warm behavior over a whole
	// schedule.
	WarmStarts int
	WarmAborts int

	// Warm-start bookkeeping: when warmOK, the graph holds a maximum flow
	// of value warmFlow for the capacities of horizon warmT under the
	// schedule applied at that probe, and the graph has not been mutated
	// since (warmGen matches the graph's generation counter). Any mutation
	// that bypasses the bisector — a direct SetCapacity, an external solve,
	// an arena rebuild — advances the generation and auto-invalidates the
	// warm state on the next probe: the monotonicity check alone only
	// inspects registered edges, so without the generation guard a shrink
	// elsewhere in the graph could silently warm-start from a flow that is
	// no longer real.
	warmT    float64
	warmFlow float64
	warmOK   bool
	warmGen  uint64

	// Min-cut scratch for MinTime, reused across solves: rateOf holds each
	// forward edge's registered rate (indexed by id/2, -1 for edges that
	// are not rate edges), side and queue the residual BFS of cutLine.
	rateOf []float64
	side   []bool
	queue  []int
}

// NewTimeBisector wraps g for the horizon search between terminals s and t.
func NewTimeBisector(g *Graph, s, t int, demand float64) *TimeBisector {
	return &TimeBisector{G: g, S: s, T: t, Demand: demand}
}

// AddRateEdge registers edge e as a bandwidth edge with the given rate
// (bytes/second). Infinite rates stay infinite at every horizon.
func (b *TimeBisector) AddRateEdge(e EdgeID, rate float64) {
	b.G.checkForwardEdge(e, "AddRateEdge")
	if rate < 0 || math.IsNaN(rate) {
		panic(fmt.Sprintf("maxflow: invalid rate %v", rate))
	}
	b.rateEdges = append(b.rateEdges, e)
	b.rates = append(b.rates, rate)
}

// AddFixedEdge registers edge e as a horizon-independent byte budget.
func (b *TimeBisector) AddFixedEdge(e EdgeID, bytes float64) {
	b.G.checkForwardEdge(e, "AddFixedEdge")
	if bytes < 0 || math.IsNaN(bytes) {
		panic(fmt.Sprintf("maxflow: invalid byte budget %v", bytes))
	}
	b.fixedEdges = append(b.fixedEdges, e)
	b.fixed = append(b.fixed, bytes)
}

// SetRate updates the bandwidth of a previously registered rate edge —
// the fault-degradation hook (SSD throttles, PCIe downtrains) that lets a
// schedule change between solves without rebuilding the network. The
// warm-start machinery self-detects the change on the next probe: a rate
// increase keeps warm continuation valid, a decrease makes the capacity
// schedule non-monotone and forces a cold re-solve (counted in WarmAborts).
func (b *TimeBisector) SetRate(e EdgeID, rate float64) error {
	if rate < 0 || math.IsNaN(rate) {
		return fmt.Errorf("maxflow: invalid rate %v", rate)
	}
	for i, re := range b.rateEdges {
		if re == e {
			b.rates[i] = rate
			return nil
		}
	}
	return fmt.Errorf("maxflow: edge %d is not a registered rate edge", e)
}

// SetFixed updates the byte budget of a previously registered fixed edge
// (demand or supply repricing between solves). Like SetRate, decreases are
// picked up by the warm-start monotonicity check and force a cold probe.
func (b *TimeBisector) SetFixed(e EdgeID, bytes float64) error {
	if bytes < 0 || math.IsNaN(bytes) {
		return fmt.Errorf("maxflow: invalid byte budget %v", bytes)
	}
	for i, fe := range b.fixedEdges {
		if fe == e {
			b.fixed[i] = bytes
			return nil
		}
	}
	return fmt.Errorf("maxflow: edge %d is not a registered fixed edge", e)
}

// Reinit rebinds the bisector to a rebuilt graph, dropping every registered
// edge, counter, and warm state while retaining slice capacity — the
// bisector half of the graph arena reuse API (see Graph.Clear).
func (b *TimeBisector) Reinit(g *Graph, s, t int, demand float64) {
	b.G, b.S, b.T, b.Demand = g, s, t, demand
	b.Ctx = nil
	b.rateEdges = b.rateEdges[:0]
	b.rates = b.rates[:0]
	b.fixedEdges = b.fixedEdges[:0]
	b.fixed = b.fixed[:0]
	b.Probes, b.Iterations = 0, 0
	b.WarmStarts, b.WarmAborts = 0, 0
	b.warmOK = false
}

// InvalidateWarm discards the warm-start state, forcing the next probe to
// re-apply capacities and solve cold. Direct graph mutations (bypassing the
// bisector) are also self-detected via the graph's generation counter, so
// calling this is no longer required for correctness — it remains as an
// explicit hint for callers that know their warm state is useless (e.g.
// before a batch of shrinking edits). SetRate/SetFixed never need it: the
// monotonicity check handles registered-schedule changes.
func (b *TimeBisector) InvalidateWarm() { b.warmOK = false }

// target returns the capacity of registered rate edge i at horizon t.
func (b *TimeBisector) target(i int, t float64) float64 {
	c := b.rates[i]
	if !math.IsInf(c, 1) {
		c *= t
	}
	return c
}

// apply sets all capacities for horizon T, clearing any flow on them.
func (b *TimeBisector) apply(t float64) {
	for i, e := range b.rateEdges {
		b.G.SetCapacity(e, b.target(i, t))
	}
	for i, e := range b.fixedEdges {
		b.G.SetCapacity(e, b.fixed[i])
	}
}

// monotone reports whether every registered edge's capacity at horizon t is
// at least its current capacity on the graph — the condition under which
// the flow already on the graph remains valid and warm continuation is
// sound. A single shrinking edge (smaller horizon, or a rate/budget lowered
// via SetRate/SetFixed) fails the check.
func (b *TimeBisector) monotone(t float64) bool {
	for i, e := range b.rateEdges {
		if capShrinks(b.G.Capacity(e), b.target(i, t)) {
			return false
		}
	}
	for i, e := range b.fixedEdges {
		if capShrinks(b.G.Capacity(e), b.fixed[i]) {
			return false
		}
	}
	return true
}

// capShrinks reports whether moving an edge from capacity cur to capacity
// next would shrink it beyond tolerance.
func capShrinks(cur, next float64) bool {
	if math.IsInf(cur, 1) {
		return !math.IsInf(next, 1)
	}
	return next < cur-Eps
}

// patch raises every registered edge to its horizon-t capacity in place,
// preserving the flow on the graph. Callers must have established
// monotone(t).
func (b *TimeBisector) patch(t float64) {
	for i, e := range b.rateEdges {
		b.G.RaiseCapacity(e, b.target(i, t))
	}
	for i, e := range b.fixedEdges {
		b.G.RaiseCapacity(e, b.fixed[i])
	}
}

// Feasible reports whether all demand can be delivered within horizon t,
// leaving the corresponding flow on the graph. A horizon at or below zero
// probes horizon 0, where finite-rate edges carry nothing.
//
// When the horizon is at or above the last solved one and no capacity
// shrank in between, the probe warm-starts: capacities are raised in place
// and the previous flow is extended by augmentation instead of re-solved
// from scratch (identical value by max-flow/min-cut; see Graph.Augment).
func (b *TimeBisector) Feasible(t float64) bool {
	b.Probes++
	if b.warmOK && b.G.gen != b.warmGen {
		// The graph moved underneath us since the last probe (a direct
		// capacity write, an external solve, an arena reuse): the recorded
		// warm flow no longer describes the graph. Unlike a non-monotone
		// schedule change this is not a WarmAbort — the schedule may be
		// fine — it is simply stale state, discarded before it can lie.
		b.warmOK = false
	}
	t = math.Max(t, 0)
	var flow float64
	switch {
	case !b.DisableWarmStart && b.warmOK && t >= b.warmT && b.monotone(t):
		b.WarmStarts++
		b.patch(t)
		flow = b.warmFlow + b.G.Augment(b.S, b.T)
	default:
		if !b.DisableWarmStart && b.warmOK && t >= b.warmT {
			// Warm continuation was structurally available (growing
			// horizon) but a capacity shrank underneath it: the schedule
			// changed non-monotonically. Record the self-detected abort.
			b.WarmAborts++
		}
		b.apply(t)
		flow = b.G.MaxFlow(b.S, b.T)
	}
	b.warmT, b.warmFlow, b.warmOK = t, flow, true
	b.warmGen = b.G.gen
	return flow >= b.Demand-relEps(b.Demand)
}

func relEps(v float64) float64 {
	return math.Max(Eps, 1e-9*math.Abs(v))
}

// canceled returns the context's error once Ctx is done, nil otherwise
// (including when no context is attached).
func (b *TimeBisector) canceled() error {
	if b.Ctx == nil {
		return nil
	}
	select {
	case <-b.Ctx.Done():
		return b.Ctx.Err()
	default:
		return nil
	}
}

// maxNewtonSteps bounds MinTime's search. Each step moves to a cut of
// strictly smaller rate, so the count is at most the number of linear
// pieces of the max-flow curve; planner networks need two to four.
const maxNewtonSteps = 64

// MinTime returns the smallest horizon at which the demand is feasible,
// leaving a feasible flow for it on the graph.
//
// The max-flow at horizon T is f(T) = min over s–t cuts C of R(C)·T + F(C),
// where R sums the rates of C's rate edges and F its byte budgets and
// unregistered capacities: f is concave and piecewise linear. MinTime
// solves cold at horizon 0, reads the minimum cut off the residual graph,
// steps to the horizon (Demand−F)/R where that cut's line meets the demand,
// and repeats until a probe is feasible — Newton's method on f (Dinkelbach's
// method for ratio problems). Every cut's line lies on or above f, so no
// step passes the true minimum T*; the horizon only grows, so each probe
// after the first continues the previous flow warm. The first feasible
// probe is T* to within Feasible's acceptance slack. A cut with R = 0 is
// made of byte budgets alone and carries less than the demand at every
// horizon: ErrInfeasible.
//
// tol only bounds the answer: MinTime returns a feasible T ≤ T*·(1+tol).
// It is spent where a step fails to raise the horizon (float cancellation,
// or the solver's Eps, on tiny demands), which instead advances the
// horizon by the factor (1+tol).
func (b *TimeBisector) MinTime(tol float64) (float64, error) {
	b.Probes, b.Iterations = 0, 0
	if err := b.canceled(); err != nil {
		return 0, err
	}
	if tol <= 0 {
		tol = 1e-4
	}
	b.markRates()
	b.warmOK = false // every solve starts cold at horizon 0
	t := 0.0
	for !b.Feasible(t) {
		if b.Iterations == maxNewtonSteps {
			return 0, fmt.Errorf("maxflow: minimum horizon did not converge in %d Newton steps", maxNewtonSteps)
		}
		r, f := b.cutLine()
		next := (b.Demand - f) / r
		if r <= 0 || math.IsInf(next, 1) {
			// Byte budgets alone, or rates too small to matter at any
			// finite horizon, cap this cut below the demand.
			return 0, ErrInfeasible
		}
		if !(next > t) {
			// From horizon 0 the factor cannot move; step by the horizon
			// at which this cut gains Feasible's slack instead.
			next = math.Max(t*(1+tol), t+relEps(b.Demand)/r)
		}
		if err := b.canceled(); err != nil {
			return 0, err
		}
		b.Iterations++
		t = next
	}
	return t, nil
}

// markRates indexes the registered rates by forward edge for cutLine.
func (b *TimeBisector) markRates() {
	m := len(b.G.to) / 2
	if cap(b.rateOf) < m {
		b.rateOf = make([]float64, m)
	}
	b.rateOf = b.rateOf[:m]
	for i := range b.rateOf {
		b.rateOf[i] = -1
	}
	for i, e := range b.rateEdges {
		b.rateOf[e>>1] = b.rates[i]
	}
}

// cutLine reads the minimum cut of the flow on the graph, with MinCut's
// source side (residualReach), and returns its line: at horizon T the cut
// carries r·T + f bytes, r summing the rates of its rate edges and f the
// capacities of its other edges.
func (b *TimeBisector) cutLine() (r, f float64) {
	g := b.G
	if cap(b.side) < g.n {
		b.side = make([]bool, g.n)
		b.queue = make([]int, 0, g.n)
	}
	side := b.side[:g.n]
	clear(side)
	g.residualReach(b.S, side, b.queue)
	for e := 0; e < len(g.to); e += 2 {
		if !side[g.to[e^1]] || side[g.to[e]] {
			continue
		}
		if rate := b.rateOf[e>>1]; rate >= 0 {
			r += rate
		} else {
			f += g.cap[e]
		}
	}
	return r, f
}

// Throughput returns demand/minTime in bytes/second, the aggregate delivery
// rate the paper reports as a placement candidate's predicted throughput.
func (b *TimeBisector) Throughput(tol float64) (float64, error) {
	t, err := b.MinTime(tol)
	if err != nil {
		return 0, err
	}
	if t == 0 {
		return math.Inf(1), nil
	}
	return b.Demand / t, nil
}
