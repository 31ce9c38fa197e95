// Package placement enumerates feasible hardware placements (which slots
// hold the GPUs and SSDs), prunes symmetry- and rotation-equivalent
// candidates by isomorphic reduction, and searches for the placement whose
// max-flow-predicted epoch I/O time is minimal (paper §3.2, Problem
// Solving).
//
// Devices of the same kind are interchangeable, so a candidate is a count
// vector (GPUs and SSDs per attach point) — PCIe-switch symmetry (devices
// on the same switch are equivalent) is therefore structural. Topological
// symmetry (mirrored subtrees, as in Machine A's two sockets) and
// rotation-invariant re-orderings are removed by canonical tree encoding:
// two candidates whose rooted-forest encodings coincide after sorting
// equivalent subtrees are the same physical configuration.
package placement

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"moment/internal/flownet"
	"moment/internal/obs"
	"moment/internal/scorecache"
	"moment/internal/topology"
	"moment/internal/units"
)

// Enumerate lists every slot-feasible placement of m's device inventory,
// honoring physical slot constraints (x16 dual-width for GPUs, U.2 bays
// for SSDs). The result is not symmetry-reduced; see Dedupe.
func Enumerate(m *topology.Machine) ([]*topology.Placement, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	gpuDists, ssdDists := dists(m)
	var out []*topology.Placement
	emit(m, gpuDists, ssdDists, func(c cand) bool {
		out = append(out, c.p)
		return true
	})
	return out, nil
}

// FirstCandidate returns the first placement Enumerate lists ("cand0")
// without building the rest. Demand formulation needs some valid placement
// and does not depend on which, so planners take this one.
func FirstCandidate(m *topology.Machine) (*topology.Placement, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	gpuDists, ssdDists := dists(m)
	var first *topology.Placement
	emit(m, gpuDists, ssdDists, func(c cand) bool {
		first = c.p
		return false
	})
	if first == nil {
		return nil, fmt.Errorf("placement: no feasible candidates for machine %s", m.Name)
	}
	return first, nil
}

// dists returns every per-attach-point GPU count vector and every SSD count
// vector that fits m's slots; their cross product is the enumeration.
func dists(m *topology.Machine) (gpuDists, ssdDists [][]int) {
	gpuCaps := make([]int, len(m.Points))
	ssdCaps := make([]int, len(m.Points))
	for i, p := range m.Points {
		gpuCaps[i] = p.GPUSlots
		ssdCaps[i] = p.Bays
	}
	return compositions(m.NumGPUs, gpuCaps), compositions(m.NumSSDs, ssdCaps)
}

// compositions returns all ways to write total as a sum over len(caps)
// non-negative parts with parts[i] <= caps[i].
func compositions(total int, caps []int) [][]int {
	var out [][]int
	cur := make([]int, len(caps))
	var rec func(i, left int)
	rec = func(i, left int) {
		if i == len(caps) {
			if left == 0 {
				out = append(out, append([]int(nil), cur...))
			}
			return
		}
		maxHere := caps[i]
		if left < maxHere {
			maxHere = left
		}
		for v := 0; v <= maxHere; v++ {
			cur[i] = v
			rec(i+1, left-v)
		}
		cur[i] = 0
	}
	rec(0, total)
	return out
}

// CanonicalKey computes an isomorphism-invariant encoding of a placed
// machine. Each attach point is encoded as
// (kind, uplinkGiBps, bays, gpuSlots, placedGPUs, placedSSDs, children...)
// with children sorted by their encodings; the forest of root complexes is
// sorted likewise (root complexes peer symmetrically over QPI). Placements
// that differ only by swapping equivalent subtrees share a key.
func CanonicalKey(m *topology.Machine, p *topology.Placement) (string, error) {
	if err := p.Validate(m); err != nil {
		return "", err
	}
	gpus, ssds := p.Counts()
	children := map[string][]string{}
	for _, pt := range m.Points {
		if pt.Kind == topology.Switch {
			children[pt.Parent] = append(children[pt.Parent], pt.ID)
		}
	}
	var encode func(id string) string
	encode = func(id string) string {
		pt, _ := m.Point(id)
		var kids []string
		for _, c := range children[id] {
			kids = append(kids, encode(c))
		}
		sort.Strings(kids)
		return fmt.Sprintf("(%d,%.3f,%d,%d,g%d,s%d;%s)",
			int(pt.Kind), pt.UplinkBW.GiBpsf(), pt.Bays, pt.GPUSlots,
			gpus[id], ssds[id], strings.Join(kids, ""))
	}
	var roots []string
	for _, rc := range m.RootComplexes() {
		roots = append(roots, encode(rc))
	}
	sort.Strings(roots)
	return strings.Join(roots, "|"), nil
}

// Dedupe removes symmetry-equivalent placements, keeping the first
// representative of each canonical class (the isomorphic graph reduction
// of §3.2).
func Dedupe(m *topology.Machine, ps []*topology.Placement) ([]*topology.Placement, error) {
	seen := make(map[string]bool, len(ps))
	var out []*topology.Placement
	for _, p := range ps {
		key, err := CanonicalKey(m, p)
		if err != nil {
			return nil, err
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, p)
	}
	return out, nil
}

// Options tunes the placement search.
type Options struct {
	// Tolerance is the relative bisection tolerance (default 1e-4).
	Tolerance float64
	// Parallelism bounds concurrent candidate evaluations
	// (default GOMAXPROCS).
	Parallelism int
	// SkipDedupe disables isomorphic reduction (ablation).
	SkipDedupe bool
	// KeepScores records every candidate's predicted time in the result.
	KeepScores bool
	// Cache, when non-nil, memoizes candidate scores across searches and
	// fault-triggered replans. Keys combine the canonical placement class
	// with machine-rate and demand fingerprints, so a shared cache is safe
	// across machines and demands.
	Cache *scorecache.Scores
	// FaultsKey folds an injected fault schedule into the score-cache key
	// (callers pass faults.Format output). Two searches over identical
	// machine/demand fingerprints but different fault schedules must not
	// share memoized scores: leave it empty only when scores are
	// schedule-independent (the healthy-machine planner).
	FaultsKey string
	// Observer receives spans and metrics for the search (nil falls back
	// to the process default observer; both nil = no instrumentation).
	Observer *obs.Observer
	// Explain, when non-nil, receives a per-decision provenance trail:
	// candidates pruned (with reasons), score-cache hits, per-candidate
	// bisection work, and run-level summaries. Steps carry the candidate's
	// enumeration index, so the rendered trail is deterministic for a fixed
	// machine/demand at any Parallelism. Nil (the default) costs nothing on
	// the hot path.
	Explain *obs.Explain
	// Ctx, when non-nil, cancels an in-flight search: enumeration stops,
	// scoring workers abandon their current bisection at the next probe
	// (see maxflow.TimeBisector.Ctx), and Search returns the context's
	// error. An abandoned caller — a disconnected planning request, a
	// timed-out RPC — therefore stops consuming CPU instead of running the
	// search to completion. Canceled evaluations are never written to
	// Cache, so a shared cache cannot be poisoned with partial results.
	Ctx context.Context
}

// Scored pairs a candidate with its predicted epoch I/O time.
type Scored struct {
	Placement *topology.Placement
	Time      units.Duration
	Err       error
}

// Result summarizes a search.
type Result struct {
	Best       *topology.Placement
	Time       units.Duration  // predicted epoch I/O completion time
	Throughput units.Bandwidth // total demand / Time
	Enumerated int             // candidates before reduction
	Evaluated  int             // candidates scored after reduction
	CacheHits  int             // evaluations short-circuited by Options.Cache
	Scores     []Scored        // per-candidate results when KeepScores
	Demand     *flownet.Demand // the demand the search optimized for
	Machine    *topology.Machine
}

// cand is one enumerated placement handed to a scoring worker. seq is its
// enumeration index (also its "cand%d" name); key is filled by the dedupe
// stage when canonicalization ran.
type cand struct {
	seq int
	p   *topology.Placement
	key string
}

// scoredSeq is a scored candidate tagged with its enumeration index (the
// deterministic tiebreaker) and whether the score came from the cache.
type scoredSeq struct {
	Scored
	seq int
	hit bool
}

// CacheKey returns the score-cache key under which Search and replans
// memoize candidate p's predicted time: the canonical placement
// class prefixed with machine-rate and demand fingerprints plus the
// bisection tolerance, so one shared cache serves different machines,
// demands, and tolerances without collisions.
func CacheKey(m *topology.Machine, p *topology.Placement, d *flownet.Demand, tol float64) (string, error) {
	return CacheKeyFaults(m, p, d, tol, "")
}

// CacheKeyFaults is CacheKey for searches run under an injected fault
// schedule: faultsKey (Options.FaultsKey, typically faults.Format output)
// joins the prefix so schedules with identical machine/demand fingerprints
// occupy disjoint cache keyspaces.
func CacheKeyFaults(m *topology.Machine, p *topology.Placement, d *flownet.Demand, tol float64, faultsKey string) (string, error) {
	key, err := CanonicalKey(m, p)
	if err != nil {
		return "", err
	}
	return cachePrefix(m, d, tol, faultsKey) + key, nil
}

// cachePrefix fingerprints everything that determines a candidate's score
// besides its canonical placement class: the machine's link rates and
// device counts (CanonicalKey covers attach-point structure but not fabric
// bandwidths — two machines can differ only in QPIBW), the demand vector,
// the tolerance, and the fault schedule the scores were computed under.
func cachePrefix(m *topology.Machine, d *flownet.Demand, tol float64, faultsKey string) string {
	h := scorecache.NewHasher()
	h.Float(float64(m.QPIBW)).Float(float64(m.DRAMBW))
	h.Float(float64(m.PCIeX16)).Float(float64(m.PCIeX4))
	h.Float(float64(m.SSDBW)).Float(float64(m.NVLinkBW))
	h.Uint(uint64(m.NumGPUs)).Uint(uint64(m.NumSSDs))
	h.Uint(uint64(len(m.NVLinks)))
	for _, nv := range m.NVLinks {
		h.Uint(uint64(nv.A)).Uint(uint64(nv.B))
	}
	h.Float(tol)
	h.String(faultsKey)
	return fmt.Sprintf("%x|%x|", h.Sum(), d.Fingerprint())
}

// searchState carries the per-search context shared by the dispatch loop
// and the scoring workers.
type searchState struct {
	m      *topology.Machine
	d      *flownet.Demand
	opt    Options
	o      *obs.Observer
	sp     *obs.Span
	ex     *obs.Explain // nil when the caller asked for no provenance
	prefix string       // cache key prefix; "" when no cache

	// Written by the dispatch loop alone, read after it returns.
	enumerated int
	pruned     int
}

// collector folds scored candidates into a Result deterministically: the
// best is the minimum (time, enumeration index) pair, so the order in which
// workers finish never shows through. Each worker owns one; they merge
// after the workers drain.
type collector struct {
	best   scoredSeq
	found  bool
	count  int
	hits   int
	scores []scoredSeq
	keep   bool
}

func (c *collector) add(s scoredSeq) {
	c.count++
	if s.hit {
		c.hits++
	}
	if c.keep {
		c.scores = append(c.scores, s)
	}
	if s.Err == nil {
		c.consider(s)
	}
}

// consider makes s the best if it beats the current one on (time, seq).
func (c *collector) consider(s scoredSeq) {
	if !c.found || s.Time < c.best.Time || (s.Time == c.best.Time && s.seq < c.best.seq) {
		c.best, c.found = s, true
	}
}

// merge folds another worker's collector into c.
func (c *collector) merge(o *collector) {
	c.count += o.count
	c.hits += o.hits
	c.scores = append(c.scores, o.scores...)
	if o.found {
		c.consider(o.best)
	}
}

// Search enumerates placements, reduces symmetry, scores every survivor by
// time-bisection max-flow under demand d, and returns the fastest.
//
// The caller's goroutine enumerates and dedupes (canonical-key isomorphic
// reduction), handing survivors in enumeration order to min(Parallelism,
// enumeration size) scoring workers. Each worker rebuilds candidate
// networks into its own scratch network and folds its scores into its own
// collector; the collectors merge once the workers drain, so the result is
// the same at any Parallelism. Candidates whose networks are infeasible
// (disconnected demand) are skipped; with Options.Cache, previously seen
// candidates skip the max-flow solve entirely.
func Search(m *topology.Machine, d *flownet.Demand, opt Options) (*Result, error) {
	if opt.Tolerance <= 0 {
		opt.Tolerance = 1e-4
	}
	if opt.Parallelism <= 0 {
		opt.Parallelism = runtime.GOMAXPROCS(0)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if opt.Ctx != nil {
		if err := opt.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	o := obs.Active(opt.Observer)
	sp := o.Begin("placement.search")
	sp.SetStr("machine", m.Name)
	defer sp.End()

	// The composition lists are small; their product is the enumeration
	// size, known before any candidate is built — it bounds the workers
	// without materializing candidates.
	gpuDists, ssdDists := dists(m)
	total := len(gpuDists) * len(ssdDists)
	if total == 0 {
		return nil, fmt.Errorf("placement: no feasible candidates for machine %s", m.Name)
	}

	st := &searchState{m: m, d: d, opt: opt, o: o, sp: sp, ex: opt.Explain}
	if opt.Cache != nil {
		st.prefix = cachePrefix(m, d, opt.Tolerance, opt.FaultsKey)
	}

	cols := make([]collector, min(opt.Parallelism, total))
	// One slot per worker: a worker that finishes a candidate finds the
	// next one waiting instead of waiting on canonicalization.
	candc := make(chan cand, len(cols))
	var wg sync.WaitGroup
	for w := range cols {
		col := &cols[w]
		col.keep = opt.KeepScores
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch *flownet.Network
			for c := range candc {
				if evalHook != nil {
					evalHook()
				}
				var s scoredSeq
				s, scratch = scoreCached(st, c, scratch)
				col.add(s)
			}
		}()
	}
	err := st.dispatch(gpuDists, ssdDists, candc)
	close(candc)
	wg.Wait()
	if err == nil && opt.Ctx != nil {
		// A cancellation that landed after the last dispatch still voids
		// the scores solved under it.
		err = opt.Ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	col := &cols[0]
	for w := 1; w < len(cols); w++ {
		col.merge(&cols[w])
	}

	o.Counter("placement_candidates_enumerated_total").Add(float64(st.enumerated))
	o.Counter("placement_candidates_pruned_total").Add(float64(st.pruned))

	res := &Result{
		Enumerated: st.enumerated,
		Evaluated:  col.count,
		CacheHits:  col.hits,
		Demand:     d,
		Machine:    m,
	}
	if !col.found {
		return nil, fmt.Errorf("placement: every candidate infeasible on machine %s", m.Name)
	}
	res.Time = col.best.Time
	if res.Time > 0 {
		res.Throughput = units.Bandwidth(d.TotalDemand() / res.Time.Sec())
	}
	st.ex.Add(obs.ExplainStep{Seq: obs.SeqSummary, Stage: "search", Reason: "enumerated", Count: st.enumerated})
	st.ex.Add(obs.ExplainStep{Seq: obs.SeqSummary, Stage: "search", Reason: "pruned", Count: st.pruned})
	st.ex.Add(obs.ExplainStep{Seq: obs.SeqSummary, Stage: "search", Reason: "evaluated", Count: col.count})
	st.ex.Add(obs.ExplainStep{Seq: obs.SeqSummary, Stage: "search", Reason: "score-cache-hits", Count: col.hits})
	st.ex.Add(obs.ExplainStep{Seq: obs.SeqSummary, Stage: "result", Subject: col.best.Placement.Name, Value: res.Time.Sec()})
	if opt.KeepScores {
		sort.Slice(col.scores, func(a, b int) bool {
			sa, sb := col.scores[a], col.scores[b]
			if (sa.Err == nil) != (sb.Err == nil) {
				return sa.Err == nil
			}
			if sa.Time != sb.Time {
				return sa.Time < sb.Time
			}
			return sa.seq < sb.seq
		})
		res.Scores = make([]Scored, len(col.scores))
		for i, s := range col.scores {
			res.Scores[i] = s.Scored
		}
	}
	best := col.best.Placement.Clone()
	best.Name = fmt.Sprintf("%s(moment)", m.Name)
	res.Best = best
	sp.SetInt("evaluated", res.Evaluated)
	sp.SetInt("cache_hits", res.CacheHits)
	sp.SetFloat("best_seconds", res.Time.Sec())
	if Check != nil {
		if err := Check(m, d, opt, res); err != nil {
			return nil, fmt.Errorf("placement: self-check failed: %w", err)
		}
	}
	return res, nil
}

// emit streams the candidate cross product in enumeration order, calling
// yield for each; a false return stops the walk. Candidate seq is named
// "cand<seq>".
func emit(m *topology.Machine, gpuDists, ssdDists [][]int, yield func(c cand) bool) {
	seq := 0
	for _, gd := range gpuDists {
		for _, sd := range ssdDists {
			p := &topology.Placement{Name: fmt.Sprintf("cand%d", seq)}
			for i, pt := range m.Points {
				for k := 0; k < gd[i]; k++ {
					p.GPUAt = append(p.GPUAt, pt.ID)
				}
				for k := 0; k < sd[i]; k++ {
					p.SSDAt = append(p.SSDAt, pt.ID)
				}
			}
			if !yield(cand{seq: seq, p: p}) {
				return
			}
			seq++
		}
	}
}

// dispatch runs the enumerate and dedupe stages on the caller's goroutine
// and sends each surviving candidate to the scoring workers. It stops at
// the first canonicalization error or caller cancellation and returns it.
func (st *searchState) dispatch(gpuDists, ssdDists [][]int, candc chan<- cand) error {
	// Both stages run in this one loop, so the enumerate and prune spans
	// both cover it; their attributes carry the per-stage counts.
	esp := st.sp.Fork("enumerate")
	psp := st.sp.Fork("prune")
	needKey := !st.opt.SkipDedupe || st.opt.Cache != nil
	seen := make(map[string]struct{})
	var err error
	kept := 0
	emit(st.m, gpuDists, ssdDists, func(c cand) bool {
		st.enumerated++
		if st.opt.Ctx != nil {
			if err = st.opt.Ctx.Err(); err != nil {
				return false
			}
		}
		if needKey {
			if c.key, err = CanonicalKey(st.m, c.p); err != nil {
				return false
			}
			if !st.opt.SkipDedupe {
				if _, dup := seen[c.key]; dup {
					st.pruned++
					st.ex.Add(obs.ExplainStep{Seq: c.seq, Stage: "prune", Subject: c.p.Name, Reason: "isomorphic-duplicate"})
					return true
				}
				seen[c.key] = struct{}{}
			}
		}
		kept++
		candc <- c
		return true
	})
	esp.SetInt("candidates", st.enumerated)
	esp.End()
	psp.SetInt("kept", kept)
	psp.SetInt("pruned", st.pruned)
	psp.End()
	return err
}

// Check, when non-nil, audits every Search result before it is returned
// (winner re-scores to the reported time, throughput consistent, placement
// valid). Installed by internal/verify when self-verification is enabled;
// declared here rather than imported so placement does not depend on the
// verification subsystem.
var Check func(m *topology.Machine, d *flownet.Demand, opt Options, res *Result) error

// evalHook, when non-nil, is invoked at the start of every candidate
// evaluation (test instrumentation for the concurrency bound).
var evalHook func()

// scoreCached scores one candidate, consulting the score cache first when
// the search has one, and returns the (possibly newly built) scratch
// network for the worker to reuse on its next candidate.
func scoreCached(st *searchState, c cand, scratch *flownet.Network) (scoredSeq, *flownet.Network) {
	useCache := st.opt.Cache != nil && c.key != ""
	if useCache {
		if hit, ok := st.opt.Cache.Get(st.prefix + c.key); ok {
			st.o.Counter("placement_cache_hits_total").Inc()
			out := scoredSeq{seq: c.seq, hit: true}
			out.Placement = c.p
			if hit.Infeasible {
				out.Err = errors.New(hit.Err)
				st.o.Counter("placement_candidates_infeasible_total").Inc()
				st.ex.Add(obs.ExplainStep{Seq: c.seq, Stage: "score", Subject: c.p.Name, Reason: "cache-hit-infeasible"})
			} else {
				out.Time = units.Seconds(hit.Seconds)
				st.o.Counter("placement_candidates_scored_total").Inc()
				st.ex.Add(obs.ExplainStep{Seq: c.seq, Stage: "score", Subject: c.p.Name, Reason: "cache-hit", Value: hit.Seconds})
			}
			return out, scratch
		}
		st.o.Counter("placement_cache_misses_total").Inc()
	}
	var s Scored
	s, scratch = score(st, c, scratch)
	// A canceled evaluation reflects the caller, not the candidate: never
	// memoize it.
	if useCache && !isCanceled(s.Err) {
		entry := scorecache.Score{Seconds: s.Time.Sec()}
		if s.Err != nil {
			entry = scorecache.Score{Infeasible: true, Err: s.Err.Error()}
		}
		st.opt.Cache.Put(st.prefix+c.key, entry)
	}
	return scoredSeq{Scored: s, seq: c.seq}, scratch
}

// isCanceled reports whether err stems from caller cancellation rather than
// a property of the candidate — such scores are transient and must not be
// cached as infeasible or reported as candidate failures.
func isCanceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// score evaluates one candidate by time-bisection max-flow, rebuilding into
// the worker's scratch network (flownet.BuildReuse) to keep the hot loop
// out of the allocator. It returns the network used so the caller can
// thread it into the next evaluation.
func score(st *searchState, c cand, scratch *flownet.Network) (Scored, *flownet.Network) {
	candP, o := c.p, st.o
	sp := st.sp.Fork("maxflow-score")
	sp.SetStr("candidate", candP.Name)
	defer sp.End()
	n, err := flownet.BuildReuse(st.m, candP, st.d, scratch)
	if err != nil {
		sp.SetStr("error", err.Error())
		o.Counter("placement_candidates_infeasible_total").Inc()
		o.Logf("placement: candidate %s infeasible: %v", candP.Name, err)
		st.ex.Add(obs.ExplainStep{Seq: c.seq, Stage: "score", Subject: candP.Name, Reason: "infeasible-build"})
		return Scored{Placement: candP, Err: err}, scratch
	}
	n.SetObserver(o)
	n.SetContext(st.opt.Ctx)
	t, err := n.SolveTol(st.opt.Tolerance)
	probes, iters, _, _ := n.SolveCounters()
	if err != nil {
		sp.SetStr("error", err.Error())
		if isCanceled(err) {
			o.Event(obs.Event{Kind: obs.EvProbeAbort, Name: "probe-abort", Subject: candP.Name, V1: float64(probes)})
		} else {
			o.Counter("placement_candidates_infeasible_total").Inc()
			o.Logf("placement: candidate %s unsolvable: %v", candP.Name, err)
			st.ex.Add(obs.ExplainStep{Seq: c.seq, Stage: "score", Subject: candP.Name, Reason: "unsolvable"})
		}
		return Scored{Placement: candP, Err: err}, n
	}
	sp.SetFloat("predicted_seconds", t.Sec())
	o.Counter("placement_candidates_scored_total").Inc()
	st.ex.Add(obs.ExplainStep{Seq: c.seq, Stage: "score", Subject: candP.Name, Reason: "solved", Value: t.Sec()})
	st.ex.Add(obs.ExplainStep{Seq: c.seq, Stage: "bisect", Subject: candP.Name, Reason: "probes", Count: probes})
	st.ex.Add(obs.ExplainStep{Seq: c.seq, Stage: "bisect", Subject: candP.Name, Reason: "iterations", Count: iters})
	return Scored{Placement: candP, Time: t}, n
}
