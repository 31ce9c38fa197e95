// Package trainsim simulates end-to-end multi-GPU out-of-core GNN training
// epochs at paper scale: it derives the per-epoch feature-access workload
// analytically from the dataset's access skew (the stand-in for running
// pre-sampling on a terabyte graph), plans data placement with DDAK (or the
// hash baseline), predicts epoch I/O time with the max-flow network
// (flownet), measures it with the flow-level fabric simulator (simnet), and
// combines I/O with the GNN compute and sampling cost models into a
// pipelined epoch time (paper §3.1 System Runtime).
package trainsim

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"moment/internal/gnn"
	"moment/internal/graph"
	"moment/internal/sample"
)

// Workload fixes the training job the paper evaluates (§4.1): a dataset,
// a model, batch size 8000, and 2-hop fan-outs [25, 10].
type Workload struct {
	Dataset   graph.Dataset
	Model     gnn.ModelKind
	BatchSize int
	Fanouts   []int
	NumGPUs   int

	// DedupFactor corrects the independent-draw assumption of the
	// analytic distinct-vertex estimator: sampled neighborhoods of a
	// batch overlap heavily on real community-structured graphs, so the
	// effective number of independent draws is DedupFactor × raw draws.
	// Calibrated to the per-batch unique counts GNNLab/Legion report for
	// 8000×[25,10] sampling (default 0.5).
	DedupFactor float64

	// EpochBatches overrides the number of mini-batches per epoch
	// (default: ceil(TrainVertices/BatchSize)). Multi-node runs use it to
	// hand each node its shard of the epoch.
	EpochBatches int
}

// Defaults fills unset fields with the paper's configuration.
func (w Workload) Defaults() Workload {
	if w.BatchSize == 0 {
		w.BatchSize = 8000
	}
	if w.Fanouts == nil {
		w.Fanouts = sample.DefaultFanouts
	}
	if w.NumGPUs == 0 {
		w.NumGPUs = 4
	}
	if w.DedupFactor == 0 {
		w.DedupFactor = 0.5
	}
	return w
}

// Stats is the analytically derived per-epoch access profile. It is
// read-only once derived: the long-horizon loop shares one between its runs
// of a workload (see statsMemo), and no caller writes to a Stats or to its
// slices.
type Stats struct {
	BatchesPerEpoch int     // total mini-batches per epoch
	UniquePerBatch  float64 // expected distinct vertices fetched per batch
	EdgesPerBatch   float64 // sampled edges per batch (compute cost input)
	FetchBytesBatch float64 // feature bytes fetched per batch (all GPUs' share)
	FetchBytesEpoch float64 // feature bytes fetched per epoch (whole job)

	// Virtual vertices: rank buckets of the dataset's vertices, hot
	// first. Hot carries the expected per-epoch fetch mass (normalized to
	// sum 1); Bytes the embedding storage of the bucket.
	VirtualHot   []float64
	VirtualBytes []float64
}

// defaultVirtual is the rank-bucket count ComputeStats uses for nVirtual
// <= 0.
const defaultVirtual = 50_000

// hotDetail is the number of head ranks modeled individually before
// bucketing; the saturation zone of 1-(1-p)^D lives here.
const hotDetail = 1 << 14

// ComputeStats derives the epoch access profile for a workload over
// nVirtual rank buckets (default 50000). The access distribution is
// Zipf(skew) over vertex ranks (what pre-sampling measures, §3.3); the
// expected number of distinct fetches of a vertex with access probability
// p after D neighbor draws is 1-(1-p)^D, which saturates for the hot head
// — exactly the effect that caps cache benefits.
func ComputeStats(w Workload, nVirtual int) (*Stats, error) {
	w = w.Defaults()
	if w.BatchSize <= 0 || w.NumGPUs <= 0 {
		return nil, fmt.Errorf("trainsim: bad workload %+v", w)
	}
	if len(w.Fanouts) == 0 {
		return nil, fmt.Errorf("trainsim: no fanouts")
	}
	if nVirtual <= 0 {
		nVirtual = defaultVirtual
	}
	d := w.Dataset
	if d.Vertices <= 0 || d.Skew <= 0 {
		return nil, fmt.Errorf("trainsim: dataset %q lacks scale/skew parameters", d.Name)
	}
	n := d.Vertices
	s := d.Skew
	harmonic := generalizedHarmonic(n, s)

	// Draw counts per hop: hop 0 draws batch×f0 neighbors; subsequent
	// hops expand the (distinct) frontier by their fanout. Frontier
	// distinctness uses the same saturation form, over a coarse grid built
	// once for every hop.
	coarse := newRankGrid(n, distinctBuckets, s, harmonic)
	batch := float64(w.BatchSize)
	draws := 0.0
	frontier := batch
	totalEdges := 0.0
	for _, f := range w.Fanouts {
		hopDraws := frontier * float64(f)
		totalEdges += hopDraws
		draws += hopDraws * w.DedupFactor
		frontier = coarse.distinct(hopDraws * w.DedupFactor)
	}

	// Per-rank fetch probability per batch: head ranks exactly, tail in
	// geometric buckets. Both grids start with the same head ranks, so the
	// coarse grid's probabilities serve the head here. hot holds the
	// per-batch fetch mass until it is normalized in place.
	ranks, counts := rankBuckets(n, nVirtual)
	nHead := min(int64(hotDetail), n)
	hot := make([]float64, len(ranks))
	uniq := 0.0
	for i, r := range ranks {
		var q float64
		if int64(i) < nHead {
			q = saturateLog(coarse.p[i], coarse.log1mp[i], draws)
		} else {
			q = saturate(math.Pow(r, -s)/harmonic, draws)
		}
		hot[i] = q * counts[i]
		uniq += hot[i]
	}
	// Seeds are drawn uniformly from the 1% training set and always
	// fetched; spread their mass uniformly over ranks.
	for i := range hot {
		hot[i] += batch * counts[i] / float64(n)
	}
	uniq += batch

	rowBytes := float64(d.FeatureBytesPerVertex())
	stats := &Stats{
		UniquePerBatch:  uniq,
		EdgesPerBatch:   totalEdges,
		FetchBytesBatch: uniq * rowBytes,
		VirtualHot:      hot,
		VirtualBytes:    counts,
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
	for _, q := range hot {
		mass += q
	}
	for i := range hot {
		hot[i] /= mass
		counts[i] *= rowBytes
	}
	return stats, nil
}

// statsMemo holds the last workload stats planStats derived. The
// long-horizon loop (SimulateEpochs, SimulateDriftEpochs) is its only
// user: it plans its configuration on every call, so a caller that runs one
// configuration over and over derives the stats once. It holds one entry
// because an entry is about 1 MB. The planning entry points (PlanWorkload,
// SimulateEpoch) derive their stats uncached: their callers plan distinct
// problems (a placement sweep, a daemon whose plan cache already serves
// repeats), so an entry would only keep 1 MB alive that no call reads.
var statsMemo struct {
	mu    sync.Mutex
	key   statsKey
	stats *Stats // nil until a derivation succeeds
}

// statsKey is every input ComputeStats reads once Defaults has run, with
// the bucket count defaulted too. NumGPUs is left out: ComputeStats reads
// it only to reject a count under 1, which planStats checks itself.
type statsKey struct {
	dataset      graph.Dataset
	batchSize    int
	dedup        float64
	epochBatches int
	nVirtual     int
	fanouts      []int // the entry's own copy: a caller may reuse its slice
}

// matches reports whether k and o are the same inputs. Floats compare
// with ==: a NaN input never hits, and no input ComputeStats reads tells
// -0 from +0.
func (k *statsKey) matches(o *statsKey) bool {
	return k.dataset == o.dataset && k.batchSize == o.batchSize && k.dedup == o.dedup &&
		k.epochBatches == o.epochBatches && k.nVirtual == o.nVirtual && slices.Equal(k.fanouts, o.fanouts)
}

// planStats is ComputeStats(w, nVirtual) served from statsMemo when the
// last successful derivation had the same inputs. A hit returns the very
// Stats a miss would compute; misses compute outside the lock, and errors
// are never stored.
func planStats(w Workload, nVirtual int) (*Stats, error) {
	w = w.Defaults()
	if nVirtual <= 0 {
		nVirtual = defaultVirtual
	}
	key := statsKey{
		dataset:      w.Dataset,
		batchSize:    w.BatchSize,
		dedup:        w.DedupFactor,
		epochBatches: w.EpochBatches,
		nVirtual:     nVirtual,
		fanouts:      w.Fanouts,
	}
	if w.NumGPUs > 0 {
		statsMemo.mu.Lock()
		stats := statsMemo.stats
		hit := stats != nil && statsMemo.key.matches(&key)
		statsMemo.mu.Unlock()
		if hit {
			return stats, nil
		}
	}
	// Derive from the copy the entry keeps, so the key names exactly the
	// fan-outs the stats came from.
	key.fanouts = slices.Clone(w.Fanouts)
	w.Fanouts = key.fanouts
	stats, err := ComputeStats(w, nVirtual)
	if err != nil {
		return nil, err
	}
	statsMemo.mu.Lock()
	statsMemo.key, statsMemo.stats = key, stats
	statsMemo.mu.Unlock()
	return stats, nil
}

// rankBuckets returns representative ranks and vertex counts: ranks
// 1..hotDetail individually, then nVirtual geometric buckets to n.
func rankBuckets(n int64, nVirtual int) (ranks, counts []float64) {
	head := min(int64(hotDetail), n)
	size := int(head)
	if head < n {
		size += nVirtual
	}
	ranks = make([]float64, 0, size)
	counts = make([]float64, 0, size)
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
		// Geometric-mean representative rank of the bucket.
		ranks = append(ranks, math.Sqrt(prev*next))
		counts = append(counts, cnt)
		prev = next
	}
	return ranks, counts
}

// distinctBuckets is the tail resolution of the grid distinctCount sums
// over.
const distinctBuckets = 2000

// rankGrid is a rank-bucket grid with each representative rank's access
// probability p and log1p(-p), so that 1-(1-p)^D can be evaluated at many
// draw counts D without recomputing either.
type rankGrid struct {
	counts, p, log1mp []float64
}

// newRankGrid builds rankBuckets(n, nVirtual) under Zipf(s) with
// normalizer harmonic.
func newRankGrid(n int64, nVirtual int, s, harmonic float64) *rankGrid {
	ranks, counts := rankBuckets(n, nVirtual)
	g := &rankGrid{counts: counts, p: ranks, log1mp: make([]float64, len(ranks))}
	for i, r := range ranks {
		p := math.Pow(r, -s) / harmonic
		g.p[i] = p
		g.log1mp[i] = math.Log1p(-p)
	}
	return g
}

// distinct estimates the expected number of distinct vertices among
// `draws` Zipf draws over the grid's ranks.
func (g *rankGrid) distinct(draws float64) float64 {
	total := 0.0
	for i, c := range g.counts {
		total += c * saturateLog(g.p[i], g.log1mp[i], draws)
	}
	return total
}

// saturate computes 1-(1-p)^D stably.
func saturate(p, draws float64) float64 {
	return saturateLog(p, math.Log1p(-p), draws)
}

// saturateLog is saturate with log1p(-p) supplied by the caller.
func saturateLog(p, log1mp, draws float64) float64 {
	if p <= 0 || draws <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	return -math.Expm1(draws * log1mp)
}

// generalizedHarmonic approximates H(n, s) = Σ_{r=1..n} r^-s with exact
// head terms plus an integral tail.
func generalizedHarmonic(n int64, s float64) float64 {
	head := int64(1000)
	if head > n {
		head = n
	}
	sum := 0.0
	for r := int64(1); r <= head; r++ {
		sum += math.Pow(float64(r), -s)
	}
	if head == n {
		return sum
	}
	a, b := float64(head), float64(n)
	if s == 1 {
		sum += math.Log(b / a)
	} else {
		sum += (math.Pow(b, 1-s) - math.Pow(a, 1-s)) / (1 - s)
	}
	return sum
}
