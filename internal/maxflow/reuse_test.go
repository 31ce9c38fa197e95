package maxflow

import (
	"math"
	"math/rand"
	"testing"
)

// buildInto constructs a deterministic seeded network in g (which may be a
// fresh New(0) or a Clear()ed arena) and returns source, sink, and the
// forward edge list. Shapes vary with the seed so arena reuse is exercised
// across differently sized rebuilds.
func buildInto(g *Graph, seed int64) (s, t int, edges []EdgeID) {
	r := rand.New(rand.NewSource(seed))
	n := 6 + r.Intn(10)
	s = g.AddNode("s")
	t = g.AddNode("t")
	mid := make([]int, n)
	for i := range mid {
		mid[i] = g.AddNode("mid")
	}
	for i, v := range mid {
		e := g.AddEdge(s, v, float64(1+r.Intn(50)))
		edges = append(edges, e)
		if i+1 < n {
			edges = append(edges, g.AddEdge(v, mid[i+1], float64(1+r.Intn(50))))
		}
		edges = append(edges, g.AddEdge(v, t, float64(1+r.Intn(50))))
	}
	return s, t, edges
}

// sameGraph cross-checks every observable of two graphs: node/edge counts,
// labels, endpoints, capacities, residuals, and flows.
func sameGraph(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("shape mismatch: got %d nodes/%d edges, want %d/%d",
			got.N(), got.M(), want.N(), want.M())
	}
	for v := 0; v < want.N(); v++ {
		if got.Label(v) != want.Label(v) {
			t.Fatalf("node %d label %q, want %q", v, got.Label(v), want.Label(v))
		}
	}
	for e := EdgeID(0); int(e) < 2*want.M(); e += 2 {
		gu, gv := got.Endpoints(e)
		wu, wv := want.Endpoints(e)
		if gu != wu || gv != wv {
			t.Fatalf("edge %d endpoints (%d,%d), want (%d,%d)", e, gu, gv, wu, wv)
		}
		if got.Capacity(e) != want.Capacity(e) {
			t.Fatalf("edge %d capacity %v, want %v", e, got.Capacity(e), want.Capacity(e))
		}
		if math.Abs(got.Flow(e)-want.Flow(e)) > Eps {
			t.Fatalf("edge %d flow %v, want %v", e, got.Flow(e), want.Flow(e))
		}
	}
}

// TestClearRebuildMatchesFresh is the satellite reuse table: for several
// seeds, rebuilding into a Clear()ed arena must be observationally
// identical to a fresh New+AddEdge construction — same labels, edge ids,
// capacities, flows, and max-flow value, with no stale state leaking from
// the previous occupant.
func TestClearRebuildMatchesFresh(t *testing.T) {
	arena := New(0)
	for _, tc := range []struct {
		name  string
		prep  func() // dirties the arena before the rebuild under test
		seed  int64
		solve bool
	}{
		{name: "after-empty", prep: func() {}, seed: 1, solve: true},
		{name: "after-smaller-net", prep: func() { buildInto(arena, 99) }, seed: 2, solve: true},
		{name: "after-solved-net", prep: func() {
			s, tt, _ := buildInto(arena, 42)
			arena.MaxFlow(s, tt)
		}, seed: 3, solve: true},
		{name: "after-larger-net", prep: func() {
			s, tt, _ := buildInto(arena, 77) // seed 77 builds a bigger shape than 4
			arena.MaxFlow(s, tt)
		}, seed: 4, solve: true},
		{name: "unsolved", prep: func() { buildInto(arena, 5) }, seed: 6, solve: false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			arena.Clear()
			tc.prep()
			arena.Clear()
			if arena.N() != 0 || arena.M() != 0 {
				t.Fatalf("Clear left %d nodes / %d edges", arena.N(), arena.M())
			}

			as, at, aEdges := buildInto(arena, tc.seed)
			fresh := New(0)
			fs, ft, fEdges := buildInto(fresh, tc.seed)
			if as != fs || at != ft || len(aEdges) != len(fEdges) {
				t.Fatalf("arena build diverged: terminals (%d,%d)/(%d,%d), %d vs %d edges",
					as, at, fs, ft, len(aEdges), len(fEdges))
			}
			for i := range aEdges {
				if aEdges[i] != fEdges[i] {
					t.Fatalf("edge id %d: arena %d, fresh %d", i, aEdges[i], fEdges[i])
				}
			}
			if tc.solve {
				fa := arena.MaxFlow(as, at)
				ff := fresh.MaxFlow(fs, ft)
				if math.Abs(fa-ff) > Eps {
					t.Fatalf("max flow %v on arena, %v on fresh graph", fa, ff)
				}
			}
			sameGraph(t, arena, fresh)
		})
	}
}

// TestArenaRebuildAllocs is the AllocsPerRun bound from the satellite: once
// the arena's arrays have grown to size, a Clear+rebuild (plus capacity
// re-application, the per-probe bisection pattern) performs zero
// allocations — the measurable point of the reuse API. The structure is
// precomputed outside the measured loop so the harness itself doesn't
// allocate.
func TestArenaRebuildAllocs(t *testing.T) {
	proto := New(0)
	_, _, protoEdges := buildInto(proto, 21)
	type arc struct {
		u, v int
		c    float64
	}
	arcs := make([]arc, 0, len(protoEdges))
	for _, e := range protoEdges {
		u, v := proto.Endpoints(e)
		arcs = append(arcs, arc{u, v, proto.Capacity(e)})
	}
	nodes := proto.N()

	arena := New(0)
	rebuild := func() {
		arena.Clear()
		for i := 0; i < nodes; i++ {
			arena.AddNode("n")
		}
		for _, a := range arcs {
			e := arena.AddEdge(a.u, a.v, a.c)
			arena.RaiseCapacity(e, a.c+1)
		}
	}
	rebuild() // grow the arrays once
	if avg := testing.AllocsPerRun(200, rebuild); avg != 0 {
		t.Errorf("arena rebuild allocates %.1f times per run, want 0", avg)
	}
}
