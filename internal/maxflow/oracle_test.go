package maxflow

import "math"

// edmondsKarp is the test oracle Dinic is checked against: Ford–Fulkerson
// with shortest (BFS) augmenting paths, the procedure the paper names,
// run on the same residual bookkeeping. Like MaxFlow it clears any flow
// first and leaves the maximum flow on the graph; it does not touch the
// graph's work counters.
func edmondsKarp(g *Graph, s, t int) float64 {
	g.checkTerminals(s, t)
	g.Reset()
	total := 0.0
	parent := make([]EdgeID, g.n)
	queue := make([]int, 0, g.n)
	for {
		for i := range parent {
			parent[i] = -1
		}
		parent[s] = -2
		queue = append(queue[:0], s)
		found := false
	bfs:
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, e := range g.head[u] {
				v := int(g.to[e])
				if parent[v] == -1 && g.resid[e] > Eps {
					parent[v] = e
					if v == t {
						found = true
						break bfs
					}
					queue = append(queue, v)
				}
			}
		}
		if !found {
			return total
		}
		bottleneck := Inf
		for v := t; v != s; {
			e := parent[v]
			if g.resid[e] < bottleneck {
				bottleneck = g.resid[e]
			}
			v, _ = g.Endpoints(e)
		}
		for v := t; v != s; {
			e := parent[v]
			g.resid[e] -= bottleneck
			g.resid[e^1] += bottleneck
			v, _ = g.Endpoints(e)
		}
		total += bottleneck
	}
}

// solvers lists the max-flow routines every solver test runs: the
// production solver and the Edmonds–Karp oracle.
var solvers = []struct {
	name string
	run  func(g *Graph, s, t int) float64
}{
	{"dinic", (*Graph).MaxFlow},
	{"edmonds-karp", edmondsKarp},
}

// bisectMinTime is the oracle MinTime's Newton steps are checked against:
// the paper's time bisection. It doubles a guess until a probe is
// feasible, then halves the bracket until it is within relative tolerance
// tol, and returns the bracket's feasible upper end with a feasible flow
// for it on the graph. It answers 0 up front when the demand fits at
// horizon 0: bisecting there drives the upper end into the subnormals,
// where the midpoint rounds to zero and the loop never ends.
func bisectMinTime(b *TimeBisector, tol float64) (float64, error) {
	if b.Feasible(0) {
		return 0, nil
	}
	// Initial guess: demand over the sum of finite rates, a lower bound on
	// the completion time if the rate edges out of the source bind.
	rateSum := 0.0
	for _, r := range b.rates {
		if !math.IsInf(r, 1) {
			rateSum += r
		}
	}
	lo, hi := 0.0, 1.0
	if rateSum > 0 {
		hi = b.Demand / rateSum * 2
	}
	const maxDoublings = 80
	d := 0
	for ; d < maxDoublings && !b.Feasible(hi); d++ {
		lo = hi
		hi *= 2
	}
	if d == maxDoublings {
		return 0, ErrInfeasible
	}
	for hi-lo > tol*hi {
		mid := (lo + hi) / 2
		if b.Feasible(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	if !b.Feasible(hi) {
		return 0, ErrInfeasible
	}
	return hi, nil
}
