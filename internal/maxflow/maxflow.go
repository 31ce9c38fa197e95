// Package maxflow implements maximum flow on capacity-constrained directed
// graphs, the optimization core of Moment's communication planner (paper
// §3.2): one solver (Dinic's blocking flows, with warm continuation from an
// existing flow), minimum-cut extraction, flow decomposition into
// source→sink paths (used to turn a flow into per-link traffic
// assignments), and the minimum demand-feasible horizon that scores
// hardware placement candidates. The paper finds that horizon by time
// bisection; TimeBisector.MinTime computes it exactly by Newton steps on
// the min-cut line, in a handful of max-flow solves. The package's tests
// keep Edmonds–Karp, the paper's Ford–Fulkerson, as the oracle Dinic is
// checked against, and the time bisection as the oracle MinTime is checked
// against.
//
// Capacities are float64 (bytes or bytes/second); comparisons use a small
// epsilon so profiled bandwidths compose without spurious infeasibility.
package maxflow

import (
	"fmt"
	"math"
)

// Eps is the capacity comparison tolerance. Capacities in Moment are link
// bandwidths (~1e9..1e11), so 1e-6 absolute slack is far below measurement
// noise while still catching genuine zero-capacity residuals.
const Eps = 1e-6

// Inf is the capacity used for virtual (unbounded) edges.
var Inf = math.Inf(1)

// EdgeID identifies an edge returned by AddEdge. The reverse (residual)
// companion of edge e is e^1.
type EdgeID int

// Graph is a directed flow network. The zero value is unusable; construct
// with New. Graph is not safe for concurrent mutation; Clone before sharing.
type Graph struct {
	n     int
	head  [][]EdgeID // adjacency: node -> incident edge ids (both directions)
	to    []int32
	cap   []float64 // original capacity
	resid []float64 // remaining (residual) capacity
	label []string  // optional node labels for diagnostics
	stats SolveStats
	// Dinic scratch, reused across solves so a solve allocates nothing;
	// Clone starts without it.
	level []int32
	iter  []int
	queue []int
}

// SolveStats counts the work done by this graph's solver, cumulative over
// every MaxFlow call (graphs are per-goroutine, so plain ints suffice; the
// increments cost nothing measurable even with observability disabled).
type SolveStats struct {
	// AugmentingPaths counts blocking-flow augmentations.
	AugmentingPaths int64
	// Solves counts MaxFlow and Augment invocations.
	Solves int64
}

// Stats returns the cumulative solver work counters.
func (g *Graph) Stats() SolveStats { return g.stats }

// New returns an empty flow network with n nodes, numbered 0..n-1.
func New(n int) *Graph {
	if n < 0 {
		panic("maxflow: negative node count")
	}
	return &Graph{
		n:     n,
		head:  make([][]EdgeID, n),
		label: make([]string, n),
	}
}

// AddNode appends a node and returns its index.
func (g *Graph) AddNode(label string) int {
	if n := len(g.head); n < cap(g.head) {
		// Arena reuse after Clear: re-expose the retained adjacency bucket
		// (truncated, so no stale edge ids leak) instead of appending nil,
		// which would discard its backing array.
		g.head = g.head[:n+1]
		g.head[n] = g.head[n][:0]
	} else {
		g.head = append(g.head, nil)
	}
	g.label = append(g.label, label)
	g.n++
	return g.n - 1
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of directed edges added via AddEdge (excluding the
// implicit residual companions).
func (g *Graph) M() int { return len(g.to) / 2 }

// SetLabel attaches a diagnostic label to node v.
func (g *Graph) SetLabel(v int, label string) { g.label[v] = label }

// Label returns node v's diagnostic label.
func (g *Graph) Label(v int) string { return g.label[v] }

// AddEdge inserts a directed edge u→v with the given capacity and returns
// its id. Capacity must be non-negative (Inf allowed for virtual edges).
func (g *Graph) AddEdge(u, v int, capacity float64) EdgeID {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("maxflow: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	if capacity < 0 || math.IsNaN(capacity) {
		panic(fmt.Sprintf("maxflow: invalid capacity %v on edge (%d,%d)", capacity, u, v))
	}
	id := EdgeID(len(g.to))
	g.to = append(g.to, int32(v), int32(u))
	g.cap = append(g.cap, capacity, 0)
	g.resid = append(g.resid, capacity, 0)
	g.head[u] = append(g.head[u], id)
	g.head[v] = append(g.head[v], id^1)
	return id
}

// SetCapacity resets edge e's capacity and clears any flow on it.
// Typically used between bisection probes; call Reset to clear all flow.
// Only forward edge ids returned by AddEdge are accepted: writing through a
// residual companion (odd id) would desynchronize cap/resid bookkeeping and
// silently corrupt every subsequent solve.
func (g *Graph) SetCapacity(e EdgeID, capacity float64) {
	g.checkForwardEdge(e, "SetCapacity")
	if capacity < 0 || math.IsNaN(capacity) {
		panic(fmt.Sprintf("maxflow: invalid capacity %v", capacity))
	}
	g.cap[e] = capacity
	g.resid[e] = capacity
	g.resid[e^1] = 0
}

// checkForwardEdge panics when e is out of range or names a residual
// companion (odd id) rather than a forward edge from AddEdge.
func (g *Graph) checkForwardEdge(e EdgeID, op string) {
	if e < 0 || int(e) >= len(g.to) {
		panic(fmt.Sprintf("maxflow: %s: edge %d out of range [0,%d)", op, e, len(g.to)))
	}
	if e&1 != 0 {
		panic(fmt.Sprintf("maxflow: %s: edge %d is a residual companion (odd id); use forward edge %d", op, e, e^1))
	}
}

// Capacity returns edge e's original capacity.
func (g *Graph) Capacity(e EdgeID) float64 { return g.cap[e] }

// Flow returns the flow currently routed on edge e (cap - residual).
// Flow on infinite-capacity edges is tracked via their reverse residual.
func (g *Graph) Flow(e EdgeID) float64 {
	if math.IsInf(g.cap[e], 1) {
		return g.resid[e^1]
	}
	f := g.cap[e] - g.resid[e]
	if f < 0 {
		return 0
	}
	return f
}

// Endpoints returns (u, v) for edge e.
func (g *Graph) Endpoints(e EdgeID) (int, int) {
	return int(g.to[e^1]), int(g.to[e])
}

// RaiseCapacity increases edge e's capacity without disturbing the flow
// currently routed on it (SetCapacity clears the edge's flow). Decreases
// are rejected: shrinking a capacity under live flow could leave negative
// residuals, so lowering requires SetCapacity (which resets flow). New
// capacities within Eps of the current one are a no-op.
func (g *Graph) RaiseCapacity(e EdgeID, capacity float64) {
	g.checkForwardEdge(e, "RaiseCapacity")
	if capacity < 0 || math.IsNaN(capacity) {
		panic(fmt.Sprintf("maxflow: invalid capacity %v", capacity))
	}
	cur := g.cap[e]
	if math.IsInf(cur, 1) {
		if !math.IsInf(capacity, 1) {
			panic(fmt.Sprintf("maxflow: RaiseCapacity would lower edge %d from +Inf to %v", e, capacity))
		}
		return
	}
	if capacity < cur-Eps {
		panic(fmt.Sprintf("maxflow: RaiseCapacity would lower edge %d from %v to %v", e, cur, capacity))
	}
	if math.IsInf(capacity, 1) {
		// Flow on an infinite edge is tracked via the reverse residual,
		// which already holds the routed amount; only the forward side
		// becomes unbounded.
		g.cap[e] = capacity
		g.resid[e] = capacity
		return
	}
	if delta := capacity - cur; delta > 0 {
		g.cap[e] = capacity
		g.resid[e] += delta
	}
}

// Reset clears all flow, restoring every edge's residual to its capacity.
func (g *Graph) Reset() {
	for e := 0; e < len(g.cap); e += 2 {
		g.resid[e] = g.cap[e]
		g.resid[e+1] = 0
	}
}

// Clear empties the graph — zero nodes, zero edges — while retaining every
// backing array: a subsequent rebuild of a similarly sized network through
// AddNode/AddEdge allocates nothing. The work counters survive (they are
// cumulative per arena, and callers meter them by before/after deltas).
func (g *Graph) Clear() {
	for v := range g.head {
		g.head[v] = g.head[v][:0]
	}
	g.head = g.head[:0]
	g.to = g.to[:0]
	g.cap = g.cap[:0]
	g.resid = g.resid[:0]
	g.label = g.label[:0]
	g.n = 0
}

// Clone returns a deep copy of the graph including current flow.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		n:     g.n,
		head:  make([][]EdgeID, g.n),
		to:    append([]int32(nil), g.to...),
		cap:   append([]float64(nil), g.cap...),
		resid: append([]float64(nil), g.resid...),
		label: append([]string(nil), g.label...),
		stats: g.stats,
	}
	for v := range g.head {
		c.head[v] = append([]EdgeID(nil), g.head[v]...)
	}
	return c
}

// MaxFlow computes the maximum s→t flow with Dinic's algorithm, leaving the
// flow recorded on the graph's edges. Any pre-existing flow is cleared.
func (g *Graph) MaxFlow(s, t int) float64 {
	g.checkTerminals(s, t)
	g.stats.Solves++
	g.Reset()
	return g.dinic(s, t)
}

// Augment extends whatever valid flow currently sits on the graph to a
// maximum flow, without clearing it first, and returns only the additional
// amount routed. This is the warm-start primitive: a feasible flow plus the
// absence of augmenting paths is a maximum flow (Ford–Fulkerson), so
// continuing from a previous solve after capacities were raised (see
// RaiseCapacity) yields the same value as a cold solve. The starting state
// must be a valid flow — conservation at every internal node — which every
// completed MaxFlow/Augment leaves behind.
func (g *Graph) Augment(s, t int) float64 {
	g.checkTerminals(s, t)
	g.stats.Solves++
	return g.dinic(s, t)
}

// checkTerminals panics unless s and t are distinct nodes of g.
func (g *Graph) checkTerminals(s, t int) {
	if s < 0 || s >= g.n || t < 0 || t >= g.n {
		panic(fmt.Sprintf("maxflow: terminal out of range: s=%d t=%d n=%d", s, t, g.n))
	}
	if s == t {
		panic("maxflow: source equals sink")
	}
}

func (g *Graph) dinic(s, t int) float64 {
	if cap(g.level) < g.n {
		g.level = make([]int32, g.n)
		g.iter = make([]int, g.n)
		g.queue = make([]int, 0, g.n)
	}
	level, iter := g.level[:g.n], g.iter[:g.n]
	total := 0.0
	for {
		// Build level graph. Each node is queued at most once, so the
		// queue never outgrows its n slots.
		for i := range level {
			level[i] = -1
		}
		level[s] = 0
		queue := append(g.queue[:0], s)
		for i := 0; i < len(queue); i++ {
			u := queue[i]
			for _, e := range g.head[u] {
				v := int(g.to[e])
				if level[v] < 0 && g.resid[e] > Eps {
					level[v] = level[u] + 1
					queue = append(queue, v)
				}
			}
		}
		if level[t] < 0 {
			return total
		}
		clear(iter)
		for {
			f := g.dinicDFS(s, t, Inf, level, iter)
			if f <= Eps {
				break
			}
			g.stats.AugmentingPaths++
			total += f
		}
	}
}

func (g *Graph) dinicDFS(u, t int, limit float64, level []int32, iter []int) float64 {
	if u == t {
		return limit
	}
	for ; iter[u] < len(g.head[u]); iter[u]++ {
		e := g.head[u][iter[u]]
		v := int(g.to[e])
		if level[v] != level[u]+1 || g.resid[e] <= Eps {
			continue
		}
		d := g.dinicDFS(v, t, math.Min(limit, g.resid[e]), level, iter)
		if d > Eps {
			g.resid[e] -= d
			g.resid[e^1] += d
			return d
		}
	}
	return 0
}

// MinCut returns the edges crossing the minimum s-side cut after MaxFlow has
// run, plus the set of nodes on the source side. The sum of the returned
// edges' capacities equals the max-flow value (max-flow min-cut theorem).
func (g *Graph) MinCut(s int) (edges []EdgeID, sourceSide []bool) {
	sourceSide = make([]bool, g.n)
	g.residualReach(s, sourceSide, make([]int, 0, g.n))
	for e := EdgeID(0); int(e) < len(g.to); e += 2 {
		u, v := g.Endpoints(e)
		if sourceSide[u] && !sourceSide[v] {
			edges = append(edges, e)
		}
	}
	return edges, sourceSide
}

// residualReach marks in side, which must hold n false entries, the nodes
// s reaches over edges with residual above Eps: the source side of a
// minimum cut once a maximum flow is on the graph. queue is scratch with
// room for n nodes, so the search allocates nothing.
func (g *Graph) residualReach(s int, side []bool, queue []int) {
	side[s] = true
	queue = append(queue[:0], s)
	for i := 0; i < len(queue); i++ {
		for _, e := range g.head[queue[i]] {
			if v := int(g.to[e]); !side[v] && g.resid[e] > Eps {
				side[v] = true
				queue = append(queue, v)
			}
		}
	}
}

// Path is one source→sink flow path with the amount routed along it.
type Path struct {
	Nodes  []int
	Edges  []EdgeID
	Amount float64
}

// Decompose breaks the current flow into at most M source→sink paths
// (cycles in the flow, which the solver never produces for DAG-shaped
// communication graphs, are dropped). The graph's flow state is preserved.
func (g *Graph) Decompose(s, t int) []Path {
	// Work on a copy of per-edge flow.
	flow := make([]float64, len(g.to))
	for e := 0; e < len(g.to); e += 2 {
		flow[e] = g.Flow(EdgeID(e))
	}
	var paths []Path
	for {
		// Greedy DFS over positive-flow edges from s to t.
		parent := make([]EdgeID, g.n)
		for i := range parent {
			parent[i] = -1
		}
		parent[s] = -2
		stack := []int{s}
		found := false
		for len(stack) > 0 && !found {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range g.head[u] {
				if e%2 != 0 {
					continue
				}
				v := int(g.to[e])
				if parent[v] == -1 && flow[e] > Eps {
					parent[v] = e
					if v == t {
						found = true
						break
					}
					stack = append(stack, v)
				}
			}
		}
		if !found {
			return paths
		}
		var p Path
		p.Amount = Inf
		for v := t; v != s; {
			e := parent[v]
			if flow[e] < p.Amount {
				p.Amount = flow[e]
			}
			p.Edges = append(p.Edges, e)
			p.Nodes = append(p.Nodes, v)
			v, _ = g.Endpoints(e)
		}
		p.Nodes = append(p.Nodes, s)
		reverseInts(p.Nodes)
		reverseEdges(p.Edges)
		for _, e := range p.Edges {
			flow[e] -= p.Amount
		}
		paths = append(paths, p)
	}
}

func reverseInts(a []int) {
	for i, j := 0, len(a)-1; i < j; i, j = i+1, j-1 {
		a[i], a[j] = a[j], a[i]
	}
}

func reverseEdges(a []EdgeID) {
	for i, j := 0, len(a)-1; i < j; i, j = i+1, j-1 {
		a[i], a[j] = a[j], a[i]
	}
}
