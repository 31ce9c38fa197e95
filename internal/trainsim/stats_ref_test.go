package trainsim

import (
	"fmt"
	"math"
	"testing"

	"moment/internal/graph"
)

// refComputeStats is ComputeStats as first written: one rank grid per
// distinctCount call, every probability recomputed per hop and per grid.
// TestComputeStatsBitIdentical holds the shared-grid version to it bit
// for bit.
func refComputeStats(w Workload, nVirtual int) (*Stats, error) {
	w = w.Defaults()
	if w.BatchSize <= 0 || w.NumGPUs <= 0 {
		return nil, fmt.Errorf("trainsim: bad workload %+v", w)
	}
	if len(w.Fanouts) == 0 {
		return nil, fmt.Errorf("trainsim: no fanouts")
	}
	if nVirtual <= 0 {
		nVirtual = 50_000
	}
	d := w.Dataset
	if d.Vertices <= 0 || d.Skew <= 0 {
		return nil, fmt.Errorf("trainsim: dataset %q lacks scale/skew parameters", d.Name)
	}
	n := d.Vertices
	s := d.Skew
	harmonic := generalizedHarmonic(n, s)
	batch := float64(w.BatchSize)
	draws := 0.0
	frontier := batch
	totalEdges := 0.0
	for _, f := range w.Fanouts {
		hopDraws := frontier * float64(f)
		totalEdges += hopDraws
		draws += hopDraws * w.DedupFactor
		frontier = refDistinctCount(n, s, harmonic, hopDraws*w.DedupFactor)
	}
	ranks, counts := refRankBuckets(n, nVirtual)
	perBatch := make([]float64, len(ranks))
	uniq := 0.0
	for i, r := range ranks {
		p := math.Pow(r, -s) / harmonic
		q := refSaturate(p, draws)
		perBatch[i] = q * counts[i]
		uniq += perBatch[i]
	}
	for i := range perBatch {
		perBatch[i] += batch * counts[i] / float64(n)
	}
	uniq += batch
	rowBytes := float64(d.FeatureBytesPerVertex())
	stats := &Stats{
		UniquePerBatch:  uniq,
		EdgesPerBatch:   totalEdges,
		FetchBytesBatch: uniq * rowBytes,
		VirtualHot:      make([]float64, len(ranks)),
		VirtualBytes:    make([]float64, len(ranks)),
	}
	train := float64(d.TrainVertices())
	stats.BatchesPerEpoch = int(math.Ceil(train / batch))
	if w.EpochBatches > 0 {
		stats.BatchesPerEpoch = w.EpochBatches
	}
	if stats.BatchesPerEpoch == 0 {
		stats.BatchesPerEpoch = 1
	}
	stats.FetchBytesEpoch = stats.FetchBytesBatch * float64(stats.BatchesPerEpoch)
	mass := 0.0
	for _, q := range perBatch {
		mass += q
	}
	for i := range ranks {
		stats.VirtualHot[i] = perBatch[i] / mass
		stats.VirtualBytes[i] = counts[i] * rowBytes
	}
	return stats, nil
}

func refRankBuckets(n int64, nVirtual int) (ranks, counts []float64) {
	head := int64(hotDetail)
	if head > n {
		head = n
	}
	for r := int64(1); r <= head; r++ {
		ranks = append(ranks, float64(r))
		counts = append(counts, 1)
	}
	if head == n {
		return ranks, counts
	}
	lo := float64(head)
	hi := float64(n)
	ratio := math.Pow(hi/lo, 1/float64(nVirtual))
	prev := lo
	for i := 0; i < nVirtual; i++ {
		next := prev * ratio
		if i == nVirtual-1 {
			next = hi
		}
		cnt := math.Floor(next) - math.Floor(prev)
		if cnt < 1 {
			continue
		}
		ranks = append(ranks, math.Sqrt(prev*next))
		counts = append(counts, cnt)
		prev = next
	}
	return ranks, counts
}

func refDistinctCount(n int64, s, harmonic, draws float64) float64 {
	ranks, counts := refRankBuckets(n, 2000)
	total := 0.0
	for i, r := range ranks {
		p := math.Pow(r, -s) / harmonic
		total += counts[i] * refSaturate(p, draws)
	}
	return total
}

func refSaturate(p, draws float64) float64 {
	if p <= 0 || draws <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	return -math.Expm1(draws * math.Log1p(-p))
}

// sameBits reports whether two float slices agree bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestComputeStatsBitIdentical pins ComputeStats bit for bit against the
// reference formulas over the dataset catalog, a small graph whose ranks
// all fit the exact head, several batch sizes and fanouts, and the bucket
// counts 0 (the default), 10, 2000 and 50000.
func TestComputeStatsBitIdentical(t *testing.T) {
	small := graph.Catalog()[0]
	small.Name, small.Vertices = "small", 5000
	datasets := append(graph.Catalog(), small)
	workloads := []Workload{
		{BatchSize: 1000},
		{BatchSize: 8000},
		{BatchSize: 6007, Fanouts: []int{15, 10, 5}, EpochBatches: 40},
	}
	for _, d := range datasets {
		for _, w := range workloads {
			w.Dataset = d
			for _, nv := range []int{0, 10, 2000, 50_000} {
				name := fmt.Sprintf("%s/batch=%d/fanouts=%v/buckets=%d", d.Name, w.BatchSize, w.Fanouts, nv)
				got, err := ComputeStats(w, nv)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, err := refComputeStats(w, nv)
				if err != nil {
					t.Fatalf("%s: reference: %v", name, err)
				}
				scalars := [][2]float64{
					{got.UniquePerBatch, want.UniquePerBatch},
					{got.EdgesPerBatch, want.EdgesPerBatch},
					{got.FetchBytesBatch, want.FetchBytesBatch},
					{got.FetchBytesEpoch, want.FetchBytesEpoch},
				}
				for k, v := range scalars {
					if math.Float64bits(v[0]) != math.Float64bits(v[1]) {
						t.Errorf("%s: scalar %d = %v, reference %v", name, k, v[0], v[1])
					}
				}
				if got.BatchesPerEpoch != want.BatchesPerEpoch {
					t.Errorf("%s: %d batches, reference %d", name, got.BatchesPerEpoch, want.BatchesPerEpoch)
				}
				if !sameBits(got.VirtualHot, want.VirtualHot) || !sameBits(got.VirtualBytes, want.VirtualBytes) {
					t.Errorf("%s: virtual buckets differ from the reference", name)
				}
			}
		}
	}
}
