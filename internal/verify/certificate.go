package verify

import (
	"fmt"
	"math"

	"moment/internal/maxflow"
)

// tol is the absolute slack allowed for a quantity of the given scale.
// Solvers compare residuals against maxflow.Eps and accumulate float error
// over many augmentations, so certificates accept Eps plus a small relative
// term; planner quantities are bytes (~1e9..1e12), where 1e-7 relative is
// far below anything a real bug would produce.
func tol(scale float64) float64 {
	return maxflow.Eps + 1e-7*math.Abs(scale)
}

// capSlack is the float-noise floor for flow arithmetic against capacities
// of the given total magnitude: residual updates (resid -= d) round at
// ulp(cap) ≈ 2e-16·cap per operation, and a solve performs many of them.
// 1e-14·cap masks only sub-ulp-accumulation noise — a real conservation or
// duality bug strands at least one path's bottleneck, which on a network of
// scale cap is many orders of magnitude larger.
func capSlack(capSum float64) float64 {
	return 1e-14 * capSum
}

// Certificate is the evidence that a flow is a valid maximum flow: its
// value together with the minimum cut whose crossing capacity matches it.
type Certificate struct {
	// Value is the certified flow value (net flow out of the source).
	Value float64
	// CutEdges are the forward edges crossing the verified minimum cut.
	CutEdges []maxflow.EdgeID
	// SourceSide marks the nodes on the source side of that cut.
	SourceSide []bool
}

// CheckFlow verifies that the flow currently recorded on g is a valid
// maximum s→t flow:
//
//  1. conservation — at every node besides s and t, inflow equals outflow;
//  2. capacity — no edge carries more than its capacity (Eps semantics);
//  3. duality — no augmenting path remains in the residual graph, and the
//     capacity crossing the source-reachable cut equals the flow value
//     (the max-flow = min-cut certificate).
//
// On success it returns the certificate; any violation is an error naming
// the node or edge at fault.
func CheckFlow(g *maxflow.Graph, s, t int) (*Certificate, error) {
	if s < 0 || s >= g.N() || t < 0 || t >= g.N() || s == t {
		return nil, fmt.Errorf("verify: bad terminals s=%d t=%d n=%d", s, t, g.N())
	}
	totalCap := 0.0
	for i := 0; i < g.M(); i++ {
		if c := g.Capacity(maxflow.EdgeID(2 * i)); !math.IsInf(c, 1) {
			totalCap += c
		}
	}
	in := make([]float64, g.N())
	out := make([]float64, g.N())
	incidentCap := make([]float64, g.N())
	for i := 0; i < g.M(); i++ {
		e := maxflow.EdgeID(2 * i)
		f := g.Flow(e)
		c := g.Capacity(e)
		u, v := g.Endpoints(e)
		if f < 0 || math.IsNaN(f) {
			return nil, fmt.Errorf("verify: edge %d (%d→%d) carries invalid flow %v", e, u, v, f)
		}
		scale := c
		if math.IsInf(c, 1) {
			// Infinite arcs can carry up to the total finite capacity, so
			// their flow readings carry noise at that magnitude.
			scale = totalCap
		} else if f > c+tol(c) {
			return nil, fmt.Errorf("verify: edge %d (%d→%d) over capacity: flow %v > cap %v", e, u, v, f, c)
		}
		incidentCap[u] += scale
		incidentCap[v] += scale
		out[u] += f
		in[v] += f
	}
	for v := 0; v < g.N(); v++ {
		if v == s || v == t {
			continue
		}
		if d := math.Abs(in[v] - out[v]); d > tol(in[v]+out[v])+capSlack(incidentCap[v]) {
			return nil, fmt.Errorf("verify: conservation violated at node %d (%s): in %v, out %v",
				v, g.Label(v), in[v], out[v])
		}
	}
	value := out[s] - in[s]
	if sv := in[t] - out[t]; math.Abs(value-sv) > tol(value)+tol(sv)+capSlack(totalCap) {
		return nil, fmt.Errorf("verify: source emits %v but sink absorbs %v", value, sv)
	}

	cutEdges, side := g.MinCut(s)
	if side[t] {
		return nil, fmt.Errorf("verify: flow not maximum: augmenting path from %d to %d remains", s, t)
	}
	cutCap := 0.0
	for _, e := range cutEdges {
		c := g.Capacity(e)
		if math.IsInf(c, 1) {
			u, v := g.Endpoints(e)
			return nil, fmt.Errorf("verify: infinite-capacity edge %d (%d→%d) crosses the min cut of a finite flow", e, u, v)
		}
		if f := g.Flow(e); f < c-tol(c) {
			u, v := g.Endpoints(e)
			return nil, fmt.Errorf("verify: cut edge %d (%d→%d) unsaturated: flow %v < cap %v", e, u, v, f, c)
		}
		cutCap += c
	}
	// Each residual comparison contributes up to Eps of slack, so the
	// duality gap tolerance scales with the edge count (plus the float
	// noise floor of the network's capacity magnitude).
	if gap := math.Abs(cutCap - value); gap > tol(math.Max(cutCap, value))+float64(g.M())*maxflow.Eps+capSlack(totalCap) {
		return nil, fmt.Errorf("verify: duality gap: min-cut capacity %v vs flow value %v", cutCap, value)
	}
	return &Certificate{Value: value, CutEdges: cutEdges, SourceSide: side}, nil
}

// CheckDecompose verifies the path-decomposition round trip for the flow
// currently on g: the returned paths all run s→t along connected forward
// edges, each path's edges carry at least the path amount, and the amounts
// sum back to the flow value.
func CheckDecompose(g *maxflow.Graph, s, t int, value float64) error {
	paths := g.Decompose(s, t)
	sum := 0.0
	totalCap := 0.0
	for i := 0; i < g.M(); i++ {
		if c := g.Capacity(maxflow.EdgeID(2 * i)); !math.IsInf(c, 1) {
			totalCap += c
		}
	}
	for pi, p := range paths {
		if p.Amount <= 0 || math.IsInf(p.Amount, 0) || math.IsNaN(p.Amount) {
			return fmt.Errorf("verify: path %d has invalid amount %v", pi, p.Amount)
		}
		if len(p.Nodes) != len(p.Edges)+1 {
			return fmt.Errorf("verify: path %d has %d nodes for %d edges", pi, len(p.Nodes), len(p.Edges))
		}
		if p.Nodes[0] != s || p.Nodes[len(p.Nodes)-1] != t {
			return fmt.Errorf("verify: path %d runs %d→%d, want %d→%d",
				pi, p.Nodes[0], p.Nodes[len(p.Nodes)-1], s, t)
		}
		for j, e := range p.Edges {
			u, v := g.Endpoints(e)
			if u != p.Nodes[j] || v != p.Nodes[j+1] {
				return fmt.Errorf("verify: path %d edge %d is (%d→%d), nodes say (%d→%d)",
					pi, j, u, v, p.Nodes[j], p.Nodes[j+1])
			}
			if f := g.Flow(e); f < p.Amount-tol(f) {
				return fmt.Errorf("verify: path %d routes %v over edge %d carrying only %v",
					pi, p.Amount, e, f)
			}
		}
		sum += p.Amount
	}
	if math.Abs(sum-value) > tol(value)+float64(len(paths))*maxflow.Eps+capSlack(totalCap) {
		return fmt.Errorf("verify: decomposition sums to %v, flow value is %v (%d paths)",
			sum, value, len(paths))
	}
	return nil
}
