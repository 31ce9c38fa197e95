package maxflow

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
