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

	// Probes counts max-flow solves (MinTime's probes, the horizon-0 solve
	// included, and Feasible calls) and Iterations counts MinTime's Newton
	// steps; both reset at the start of each MinTime. Plain ints:
	// bisectors are not shared across goroutines, and callers report them
	// to an observer after the solve rather than paying atomics inside it.
	Probes     int
	Iterations int
	// WarmStarts counts MinTime's probes that continued the previous
	// probe's flow instead of solving cold: every probe after a solve's
	// first. Unlike Probes and Iterations it accumulates across MinTime
	// calls; Reinit resets it.
	WarmStarts int

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

// Reinit rebinds the bisector to a rebuilt graph, dropping every registered
// edge and counter while retaining slice capacity — the bisector half of
// the graph arena reuse API (see Graph.Clear).
func (b *TimeBisector) Reinit(g *Graph, s, t int, demand float64) {
	b.G, b.S, b.T, b.Demand = g, s, t, demand
	b.Ctx = nil
	b.rateEdges = b.rateEdges[:0]
	b.rates = b.rates[:0]
	b.fixedEdges = b.fixedEdges[:0]
	b.fixed = b.fixed[:0]
	b.Probes, b.Iterations, b.WarmStarts = 0, 0, 0
}

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

// patch raises every registered edge to its horizon-t capacity in place,
// preserving the flow on the graph. t must be at least the horizon the
// capacities were last set for, so no capacity shrinks.
func (b *TimeBisector) patch(t float64) {
	for i, e := range b.rateEdges {
		b.G.RaiseCapacity(e, b.target(i, t))
	}
	for i, e := range b.fixedEdges {
		b.G.RaiseCapacity(e, b.fixed[i])
	}
}

// Feasible reports whether all demand can be delivered within horizon t,
// solving cold and leaving the corresponding flow on the graph. A horizon
// at or below zero probes horizon 0, where finite-rate edges carry nothing.
func (b *TimeBisector) Feasible(t float64) bool {
	return b.delivers(b.coldFlow(math.Max(t, 0)))
}

// coldFlow sets every registered capacity for horizon t and returns the
// maximum flow solved from an empty graph, counting the probe.
func (b *TimeBisector) coldFlow(t float64) float64 {
	b.Probes++
	b.apply(t)
	return b.G.MaxFlow(b.S, b.T)
}

// warmFlow raises every registered capacity to horizon t, which must not
// be below the last probe's, and returns the flow Augment adds to the one
// already on the graph, counting the probe as a warm start.
func (b *TimeBisector) warmFlow(t float64) float64 {
	b.Probes++
	b.WarmStarts++
	b.patch(t)
	return b.G.Augment(b.S, b.T)
}

// delivers reports whether a flow of the given value meets the demand,
// within a relative slack that absorbs the solver's Eps.
func (b *TimeBisector) delivers(flow float64) bool {
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
// after the first raises the capacities in place and augments the previous
// flow (Graph.Augment) instead of solving cold. The first feasible probe
// is T* to within Feasible's acceptance slack. A cut with R = 0 is
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
	t := 0.0
	flow := b.coldFlow(t)
	for !b.delivers(flow) {
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
		flow += b.warmFlow(t)
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
