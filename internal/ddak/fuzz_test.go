package ddak

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzPlaceItemsDelta is the delta-vs-full differential: over fuzz-chosen
// item sets, bin shapes and drift permutations it checks that the
// incremental re-solve
//
//  1. produces a valid assignment over exactly the input bins (same
//     capacities, accounting consistent, nothing over capacity);
//  2. bills migration honestly (MovedItems/MovedBytes match an
//     element-wise diff against the previous layout, and a fallback
//     result is bit-identical to the full PlaceItems solve);
//  3. stays within a bounded fast-tier hit-rate gap of the full
//     re-solve — the delta trades layout optimality for migration
//     bytes, but never collapses;
//  4. equals the oracle (placeItemsDeltaOracle, and its full solve for
//     PlaceItems) bit for bit.
func FuzzPlaceItemsDelta(f *testing.F) {
	f.Add(int64(1), uint16(200), uint8(0), uint8(10), uint8(10), uint8(0))
	f.Add(int64(2), uint16(500), uint8(1), uint8(50), uint8(1), uint8(1))
	f.Add(int64(3), uint16(1000), uint8(2), uint8(200), uint8(100), uint8(4))
	f.Add(int64(4), uint16(64), uint8(3), uint8(255), uint8(7), uint8(2))
	f.Add(int64(5), uint16(300), uint8(1), uint8(0), uint8(0), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, driftKind, magRaw, poolRaw, scaleRaw uint8) {
		n := int(nRaw)%2000 + 20
		r := rand.New(rand.NewSource(seed))

		// Items: zipf-ish hotness, sizes in [1,8] so capacity repair has
		// real work to do without making fit impossible.
		items := make([]Item, n)
		var totalBytes float64
		for i := range items {
			items[i] = Item{
				Hot:   1 / math.Pow(float64(i+1), 0.5+r.Float64()),
				Bytes: float64(1 + r.Intn(8)),
			}
			totalBytes += items[i].Bytes
		}
		r.Shuffle(n, func(i, j int) { items[i], items[j] = items[j], items[i] })

		// Bins: one GPU, one CPU, two SSDs; total capacity 1.5x the item
		// bytes so placement is feasible but caches stay contended.
		gpuCap := totalBytes * (0.02 + 0.1*r.Float64())
		cpuCap := totalBytes * (0.1 + 0.2*r.Float64())
		ssdCap := totalBytes * 1.5
		bins := []Bin{
			{Name: "g", Tier: TierGPU, Capacity: gpuCap, Traffic: 100 + r.Float64()*900},
			{Name: "c", Tier: TierCPU, Capacity: cpuCap, Traffic: 50 + r.Float64()*500},
			{Name: "s0", Tier: TierSSD, Capacity: ssdCap / 2, Traffic: 10 + r.Float64()*100},
			{Name: "s1", Tier: TierSSD, Capacity: ssdCap / 2, Traffic: 10 + r.Float64()*100},
		}
		pool := int(poolRaw)%100 + 1
		var trafficScale float64
		if scaleRaw%2 == 1 {
			trafficScale = float64(scaleRaw)
		}

		prev, err := PlaceItems(items, bins, pool, trafficScale)
		if err != nil {
			t.Skip() // infeasible shape; not the contract under test
		}

		// Drift: a hotness permutation of fuzz-chosen kind and magnitude.
		drifted := append([]Item(nil), items...)
		mag := int(magRaw)%n + 1
		switch driftKind % 4 {
		case 0: // no drift
		case 1: // random swaps
			for k := 0; k < mag; k++ {
				i, j := r.Intn(n), r.Intn(n)
				drifted[i].Hot, drifted[j].Hot = drifted[j].Hot, drifted[i].Hot
			}
		case 2: // rotate hotness by mag
			hots := make([]float64, n)
			for i := range drifted {
				hots[i] = drifted[(i+mag)%n].Hot
			}
			for i := range drifted {
				drifted[i].Hot = hots[i]
			}
		case 3: // rescale a random prefix (rank flip without permutation)
			for i := 0; i < mag; i++ {
				drifted[i].Hot *= r.Float64()
			}
		}

		res, err := PlaceItemsDelta(items, prev, drifted, bins, pool, trafficScale, DeltaOptions{})
		if err != nil {
			t.Fatalf("delta failed on feasible instance: %v", err)
		}
		a := res.Assignment

		// (1) validity over exactly the input bins.
		if len(a.Bins) != len(bins) {
			t.Fatalf("bin count changed: %d", len(a.Bins))
		}
		for i := range bins {
			if a.Bins[i] != bins[i] {
				t.Fatalf("bin %d mutated: %+v vs %+v", i, a.Bins[i], bins[i])
			}
		}
		used := make([]float64, len(bins))
		access := make([]float64, len(bins))
		for v, b := range a.Of {
			if b < 0 || int(b) >= len(bins) {
				t.Fatalf("item %d in bin %d out of range", v, b)
			}
			used[b] += drifted[v].Bytes
			access[b] += drifted[v].Hot
		}
		for i := range bins {
			if used[i] > bins[i].Capacity*(1+1e-9)+1e-6 {
				t.Fatalf("bin %s over capacity: %.1f > %.1f", bins[i].Name, used[i], bins[i].Capacity)
			}
			if math.Abs(used[i]-a.Used[i]) > 1e-6+1e-9*used[i] {
				t.Fatalf("bin %s used accounting off: %.3f vs %.3f", bins[i].Name, used[i], a.Used[i])
			}
			if math.Abs(access[i]-a.Access[i]) > 1e-6+1e-9*math.Abs(access[i]) {
				t.Fatalf("bin %s access accounting off: %.6f vs %.6f", bins[i].Name, access[i], a.Access[i])
			}
		}

		// (2) honest migration bill.
		moved, movedBytes := 0, 0.0
		for i := range a.Of {
			if a.Of[i] != prev.Of[i] {
				moved++
				movedBytes += drifted[i].Bytes
			}
		}
		if moved != res.MovedItems || math.Abs(movedBytes-res.MovedBytes) > 1e-6 {
			t.Fatalf("migration bill off: reported %d/%.1f, actual %d/%.1f",
				res.MovedItems, res.MovedBytes, moved, movedBytes)
		}
		if !res.FellBack && res.MovedBytes > 0.5*totalBytes+1e-6 {
			t.Fatalf("non-fallback delta moved %.1f of %.1f bytes, over the default budget", res.MovedBytes, totalBytes)
		}

		full, err := PlaceItems(drifted, bins, pool, trafficScale)
		if err != nil {
			t.Fatalf("full solve failed after drift: %v", err)
		}
		if res.FellBack {
			for i := range a.Of {
				if a.Of[i] != full.Of[i] {
					t.Fatalf("fallback result differs from full solve at item %d", i)
				}
			}
		}

		// (3) bounded fast-tier gap vs the full re-solve.
		dHit := a.HitRateItems(TierGPU) + a.HitRateItems(TierCPU)
		fHit := full.HitRateItems(TierGPU) + full.HitRateItems(TierCPU)
		if fHit-dHit > 0.25 {
			t.Fatalf("delta fast-tier hit %.4f trails full %.4f by more than 0.25", dHit, fHit)
		}

		// No drift at all must be a zero-move no-op.
		if driftKind%4 == 0 && res.MovedItems != 0 {
			t.Fatalf("no-drift delta moved %d items", res.MovedItems)
		}

		// (4) the oracle.
		inst := deltaInstance{prevItems: items, items: drifted, prevBins: bins, bins: bins,
			pool: pool, scale: trafficScale}
		if _, d := matchOracle(inst, prev); d != "" {
			t.Fatalf("differs from the oracle: %s", d)
		}
	})
}
