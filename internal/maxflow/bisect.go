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
// the paper's "time-bisection Ford–Fulkerson" (§3.2, Problem Solving).
//
// Edge capacities come in two flavors:
//   - rate edges: physical links whose capacity is a bandwidth; at horizon T
//     they can carry rate·T bytes;
//   - fixed edges: byte budgets independent of T (per-GPU demand arcs into
//     the sink, or per-storage supply arcs out of the source).
//
// Feasible(T) asks whether max-flow at horizon T moves all Demand bytes;
// MinTime binary-searches the smallest such T.
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

	// Ctx, when non-nil, lets an abandoned caller stop a bisection early:
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

	// Probes counts Feasible evaluations (each one max-flow solve) and
	// Iterations counts halving steps of the bisection loop, excluding the
	// doubling phase; both reset at the start of each MinTime. Plain ints:
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
}

// NewTimeBisector wraps g for bisection between terminals s and t.
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
// leaving the corresponding flow on the graph.
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
	if t <= 0 {
		// Nothing moves at a zero horizon. Still apply the horizon-0
		// capacities and clear any flow so callers reading Flow() or
		// Capacity() afterwards don't see stale state from an earlier
		// probe at a different horizon.
		b.apply(0)
		b.G.Reset()
		b.warmOK = false
		return b.Demand <= Eps
	}
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

// MinTime returns the smallest horizon (within relative tolerance tol, e.g.
// 1e-4) at which the demand is feasible. It doubles an initial guess until
// feasible (up to maxDoublings), then bisects. On return the graph holds a
// feasible flow for the reported horizon.
func (b *TimeBisector) MinTime(tol float64) (float64, error) {
	b.Probes, b.Iterations = 0, 0
	if err := b.canceled(); err != nil {
		return 0, err
	}
	if b.Demand <= Eps {
		// Same hygiene as Feasible(0): leave the graph in the consistent
		// zero-horizon state rather than whatever a previous probe wrote.
		b.apply(0)
		b.G.Reset()
		b.warmOK = false
		return 0, nil
	}
	if tol <= 0 {
		tol = 1e-4
	}
	// Initial guess: demand over the sum of source-side rates, a lower
	// bound on the completion time if the source edges are the bottleneck.
	rateSum := 0.0
	for _, r := range b.rates {
		if !math.IsInf(r, 1) {
			rateSum += r
		}
	}
	lo := 0.0
	hi := 1.0
	if rateSum > 0 {
		hi = b.Demand / rateSum * 2
		if hi <= 0 {
			hi = 1
		}
	}
	const maxDoublings = 80
	d := 0
	for ; d < maxDoublings && !b.Feasible(hi); d++ {
		if err := b.canceled(); err != nil {
			return 0, err
		}
		lo = hi
		hi *= 2
	}
	if d == maxDoublings {
		return 0, ErrInfeasible
	}
	for hi-lo > tol*hi {
		if err := b.canceled(); err != nil {
			return 0, err
		}
		b.Iterations++
		mid := (lo + hi) / 2
		if b.Feasible(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	// Leave a feasible flow on the graph for the reported horizon.
	if !b.Feasible(hi) {
		return 0, ErrInfeasible
	}
	return hi, nil
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
