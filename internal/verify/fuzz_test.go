package verify

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"moment/internal/maxflow"
)

// randomNetwork deterministically derives a pseudo-random flow network from
// rng: a layered DAG (2–5 layers, 1–4 nodes wide) with dense inter-layer
// edges, occasional parallel duplicates and layer-skipping shortcuts, plus
// virtual source/sink arcs that are sometimes infinite — the same shape as
// the planner's augmented communication graphs. Capacities mix three
// regimes (O(100) uniform, near-Eps, and bandwidth-scale 1e9..1e11) to
// exercise the comparison-epsilon semantics. Every s→t path traverses at
// least one finite inter-layer edge, so the maximum flow is always finite.
//
// The same rng state always yields the same network; seed rand.NewSource
// explicitly for reproducible fuzzing.
func randomNetwork(rng *rand.Rand) (g *maxflow.Graph, s, t int) {
	layers := 2 + rng.Intn(4)
	width := 1 + rng.Intn(4)
	g = maxflow.New(2 + layers*width)
	s, t = 0, 1
	node := func(l, w int) int { return 2 + l*width + w }

	capOf := func() float64 {
		switch rng.Intn(10) {
		case 0:
			return maxflow.Eps * (0.1 + 10*rng.Float64()) // near the comparison epsilon
		case 1, 2:
			return 1e9 * (1 + 100*rng.Float64()) // profiled-bandwidth scale
		default:
			return 100 * rng.Float64()
		}
	}
	// Virtual arcs may be infinite, like the planner's SSD-pool arcs.
	virtualCap := func() float64 {
		if rng.Intn(4) == 0 {
			return maxflow.Inf
		}
		return capOf()
	}

	for w := 0; w < width; w++ {
		if rng.Float64() < 0.8 {
			g.AddEdge(s, node(0, w), virtualCap())
		}
	}
	for l := 0; l+1 < layers; l++ {
		for a := 0; a < width; a++ {
			for b := 0; b < width; b++ {
				if rng.Float64() < 0.75 {
					g.AddEdge(node(l, a), node(l+1, b), capOf())
					if rng.Float64() < 0.2 {
						g.AddEdge(node(l, a), node(l+1, b), capOf()) // parallel edge
					}
				}
			}
			if l+2 < layers && rng.Float64() < 0.15 {
				g.AddEdge(node(l, a), node(l+2, rng.Intn(width)), capOf())
			}
		}
	}
	for w := 0; w < width; w++ {
		if rng.Float64() < 0.8 {
			g.AddEdge(node(layers-1, w), t, virtualCap())
		}
	}
	return g, s, t
}

// certifyMaxFlow solves a clone of g and certifies the flow: CheckFlow's
// min-cut certificate must hold and agree with the solver's value, and the
// flow must survive the Decompose round trip. Returns the certified
// value. Agreement with the Edmonds–Karp oracle is checked in maxflow's own
// tests.
func certifyMaxFlow(g *maxflow.Graph, s, t int) (float64, error) {
	totalCap := 0.0
	for i := 0; i < g.M(); i++ {
		if c := g.Capacity(maxflow.EdgeID(2 * i)); !math.IsInf(c, 1) {
			totalCap += c
		}
	}
	c := g.Clone()
	v := c.MaxFlow(s, t)
	cert, err := CheckFlow(c, s, t)
	if err != nil {
		return 0, err
	}
	if math.Abs(cert.Value-v) > tol(v)+float64(g.M())*maxflow.Eps+capSlack(totalCap) {
		return 0, fmt.Errorf("solver reported %v but edges carry %v", v, cert.Value)
	}
	if err := CheckDecompose(c, s, t, v); err != nil {
		return 0, err
	}
	return v, nil
}

// The seeded fuzzer: 250 random networks (layered DAGs with parallel
// edges, Inf virtual arcs, and near-Eps capacities), each solved by Dinic
// and certified. Seeds are fixed: a failure here reproduces exactly.
func TestDifferentialSolverAgreement(t *testing.T) {
	positive := 0
	for seed := int64(0); seed < 250; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, s, sink := randomNetwork(rng)
		v, err := certifyMaxFlow(g, s, sink)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if v > maxflow.Eps {
			positive++
		}
	}
	// The generator must actually exercise the solver, not produce a pile
	// of disconnected zero-flow instances.
	if positive < 150 {
		t.Fatalf("only %d/250 networks had positive flow; generator too sparse", positive)
	}
}

func TestRandomNetworkDeterministic(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		g1, s1, t1 := randomNetwork(rand.New(rand.NewSource(seed)))
		g2, s2, t2 := randomNetwork(rand.New(rand.NewSource(seed)))
		if g1.N() != g2.N() || g1.M() != g2.M() || s1 != s2 || t1 != t2 {
			t.Fatalf("seed %d: shapes differ: n=%d/%d m=%d/%d", seed, g1.N(), g2.N(), g1.M(), g2.M())
		}
		v1 := g1.MaxFlow(s1, t1)
		v2 := g2.MaxFlow(s2, t2)
		if v1 != v2 {
			t.Fatalf("seed %d: values differ: %v vs %v", seed, v1, v2)
		}
	}
}

func TestRandomNetworkCoversCapacityRegimes(t *testing.T) {
	var nearEps, inf, large int
	for seed := int64(0); seed < 100; seed++ {
		g, _, _ := randomNetwork(rand.New(rand.NewSource(seed)))
		for i := 0; i < g.M(); i++ {
			c := g.Capacity(maxflow.EdgeID(2 * i))
			switch {
			case math.IsInf(c, 1):
				inf++
			case c < maxflow.Eps*100:
				nearEps++
			case c >= 1e9:
				large++
			}
		}
	}
	if nearEps == 0 || inf == 0 || large == 0 {
		t.Fatalf("capacity regimes not covered: nearEps=%d inf=%d large=%d", nearEps, inf, large)
	}
}
