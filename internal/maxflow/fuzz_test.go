package maxflow

import (
	"math"
	"sort"
	"testing"
)

// FuzzTimeBisector checks MinTime against the closed form of fuzz-generated
// two-layer networks (source → rate edges → mid nodes → fixed byte budgets
// → sink), whose max-flow at horizon T is Σ min(rate_i·T, budget_i):
//
//  1. the returned minimum time is exact — feasible, and at most
//     T*·(1+1e-9) where T* solves the closed form to float precision;
//  2. every probe after MinTime's cold horizon-0 solve continues the
//     previous flow warm, so it warm-starts exactly Probes−1 times;
//  3. feasibility is monotone in the horizon — if all demand fits in t
//     seconds it fits in any longer horizon.
//
// Minimality is checked against T*, not as "infeasible at min·(1−δ)":
// Feasible accepts relEps(Demand) bytes of slack, which on a 1 B/s
// critical edge keeps min·(1−1e-5) feasible (corpus entry seed8).
func FuzzTimeBisector(f *testing.F) {
	f.Add([]byte{1, 10, 100}, uint8(50))
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6}, uint8(200))
	f.Add([]byte{8, 255, 1, 128, 7, 90, 13, 60, 2, 2, 2, 40, 80, 160, 240, 3, 9}, uint8(120))
	f.Add([]byte{2, 0, 0, 0, 0}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, probeByte uint8) {
		if len(data) == 0 {
			t.Skip()
		}
		nMid := 1 + int(data[0])%4
		byteAt := func(k int) float64 {
			if len(data) == 1 {
				return 0
			}
			return float64(data[1+k%(len(data)-1)])
		}
		g := New(2 + nMid)
		s, sink := 0, 1
		b := NewTimeBisector(g, s, sink, 0)
		rates := make([]float64, nMid)
		budgets := make([]float64, nMid)
		totalFixed := 0.0
		for i := 0; i < nMid; i++ {
			mid := 2 + i
			rates[i] = 1 + byteAt(2*i) // >= 1 B/s so every budget eventually drains
			budgets[i] = 1 + byteAt(2*i+1)
			b.AddRateEdge(g.AddEdge(s, mid, 0), rates[i])
			b.AddFixedEdge(g.AddEdge(mid, sink, 0), budgets[i])
			totalFixed += budgets[i]
		}
		// Demand below the fixed-budget sum keeps the instance feasible at
		// some horizon; the interesting question is where the boundary is.
		b.Demand = totalFixed * 0.9
		const tol = 1e-4
		min, err := b.MinTime(tol)
		if err != nil {
			t.Fatalf("feasible-by-construction instance failed: %v", err)
		}
		if b.WarmStarts != b.Probes-1 {
			t.Fatalf("%d warm starts in %d probes, want %d", b.WarmStarts, b.Probes, b.Probes-1)
		}
		if min <= 0 || math.IsInf(min, 1) || math.IsNaN(min) {
			t.Fatalf("MinTime = %v for positive demand %v", min, b.Demand)
		}
		if !b.Feasible(min) {
			t.Fatalf("MinTime %v not feasible", min)
		}
		if want := exactMinTime(rates, budgets, b.Demand); min > want*(1+1e-9) {
			t.Fatalf("MinTime = %v, exact minimum %v", min, want)
		}
		// Monotonicity at a fuzz-chosen probe point.
		probe := min * (0.5 + float64(probeByte)/128)
		if b.Feasible(probe) && !b.Feasible(2*probe) {
			t.Fatalf("feasibility not monotone: ok at %v, not at %v", probe, 2*probe)
		}
	})
}

// exactMinTime returns the smallest T with Σ min(rates[i]·T, budgets[i]) ≥
// demand, for demand below Σ budgets. The sum is concave and piecewise
// linear with a breakpoint where each edge saturates; walking the
// breakpoints in order finds the piece that meets the demand, and that
// piece's line is solved directly.
func exactMinTime(rates, budgets []float64, demand float64) float64 {
	order := make([]int, len(rates))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return budgets[order[a]]/rates[order[a]] < budgets[order[b]]/rates[order[b]]
	})
	saturated, slope := 0.0, 0.0
	for _, r := range rates {
		slope += r
	}
	for _, i := range order {
		if saturated+slope*(budgets[i]/rates[i]) >= demand {
			break
		}
		saturated += budgets[i]
		slope -= rates[i]
	}
	return (demand - saturated) / slope
}
