package placement

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"moment/internal/flownet"
	"moment/internal/obs"
	"moment/internal/scorecache"
	"moment/internal/topology"
	"moment/internal/units"
)

// scaledDemand is demand(n) with every budget multiplied by f, a second
// demand point for the differential grid.
func scaledDemand(n int, f float64) *flownet.Demand {
	d := demand(n)
	for i := range d.PerGPU {
		d.PerGPU[i] *= f
		d.HBMPeer[i] *= f
	}
	for k := range d.DRAM {
		d.DRAM[k] *= f
	}
	d.SSDTotal *= f
	return d
}

func degradedB() *topology.Machine {
	m := topology.MachineB()
	m.QPIBW = topology.QPIRate / 4
	return m
}

// fasterUplinkB is machine B with sw0's uplink 0.0004 GiB/s faster: a
// different flow network whose CanonicalKey text would match machine B's
// if uplinks printed to three decimals.
func fasterUplinkB() *topology.Machine {
	m := topology.MachineB()
	for i := range m.Points {
		if m.Points[i].ID == "sw0" {
			m.Points[i].UplinkBW += units.GiBps(0.0004)
		}
	}
	return m
}

// Dedupe removes symmetry-equivalent placements, keeping the first
// representative of each CanonicalKey class: the text-keyed isomorphic
// reduction Search's integer classes must reproduce.
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

// oracleResult is what the serial oracle knows about a search: the
// winner, every score in (time, enumeration index) order, and the counts
// behind the placement_candidates_* counters.
type oracleResult struct {
	best                  *topology.Placement
	time                  units.Duration
	scores                []Scored
	enumerated, evaluated int
	pruned                int
	scored, infeasible    int
}

// serialOracle is the reference the search is tested against: a plain
// loop over Enumerate → Dedupe → flownet.Build → SolveTol that keeps the
// minimum (time, enumeration index) pair. It shares no code with Search's
// pipeline. Solver work is metered to o through the network, so the
// maxflow_* counters can be compared too.
func serialOracle(t *testing.T, m *topology.Machine, d *flownet.Demand, skipDedupe bool, o *obs.Observer) oracleResult {
	t.Helper()
	all, err := Enumerate(m)
	if err != nil {
		t.Fatal(err)
	}
	kept := all
	if !skipDedupe {
		if kept, err = Dedupe(m, all); err != nil {
			t.Fatal(err)
		}
	}
	index := make(map[*topology.Placement]int, len(all))
	for i, p := range all {
		index[p] = i
	}
	type scored struct {
		Scored
		seq int
	}
	var list []scored
	r := oracleResult{enumerated: len(all), evaluated: len(kept), pruned: len(all) - len(kept)}
	bestSeq := -1
	for _, p := range kept {
		s := scored{Scored: Scored{Placement: p}, seq: index[p]}
		n, err := flownet.Build(m, p, d)
		if err == nil {
			n.SetObserver(o)
			s.Time, err = n.SolveTol(1e-4)
		}
		s.Err = err
		list = append(list, s)
		if err != nil {
			r.infeasible++
			continue
		}
		r.scored++
		if bestSeq < 0 || s.Time < r.time || (s.Time == r.time && s.seq < bestSeq) {
			r.best, r.time, bestSeq = p, s.Time, s.seq
		}
	}
	sort.SliceStable(list, func(a, b int) bool {
		sa, sb := list[a], list[b]
		if (sa.Err == nil) != (sb.Err == nil) {
			return sa.Err == nil
		}
		if sa.Time != sb.Time {
			return sa.Time < sb.Time
		}
		return sa.seq < sb.seq
	})
	for _, s := range list {
		r.scores = append(r.scores, s.Scored)
	}
	return r
}

// checkAgainstOracle runs Search at GOMAXPROCS 1, 2, 4 and 8 and requires
// it to equal the serial oracle exactly: the winner, the best time, every
// kept score in order, the enumeration and evaluation counts, and the
// placement and maxflow counters. Run under -race this also exercises the
// dispatch and merge synchronization.
func checkAgainstOracle(t *testing.T, name string, m *topology.Machine, d *flownet.Demand, skipDedupe bool) {
	t.Helper()
	oracleObs := obs.New()
	want := serialOracle(t, m, d, skipDedupe, oracleObs)
	wantCounters := map[string]float64{
		"placement_candidates_enumerated_total": float64(want.enumerated),
		"placement_candidates_pruned_total":     float64(want.pruned),
		"placement_candidates_scored_total":     float64(want.scored),
		"placement_candidates_infeasible_total": float64(want.infeasible),
		"maxflow_solves_total":                  oracleObs.Counter("maxflow_solves_total").Value(),
		"maxflow_augmenting_paths_total":        oracleObs.Counter("maxflow_augmenting_paths_total").Value(),
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		run := fmt.Sprintf("%s/procs=%d", name, procs)
		o := obs.New()
		got, err := Search(m, d, Options{KeepScores: true, SkipDedupe: skipDedupe, Observer: o})
		if err != nil {
			t.Fatalf("%s: %v", run, err)
		}
		if got.Time != want.time {
			t.Errorf("%s: best %v, oracle %v", run, got.Time, want.time)
		}
		if !reflect.DeepEqual(got.Best.GPUAt, want.best.GPUAt) || !reflect.DeepEqual(got.Best.SSDAt, want.best.SSDAt) {
			t.Errorf("%s: winner %v, oracle %s %v", run, got.Best, want.best.Name, want.best)
		}
		if got.Enumerated != want.enumerated || got.Evaluated != want.evaluated {
			t.Errorf("%s: counts %d/%d, oracle %d/%d", run,
				got.Enumerated, got.Evaluated, want.enumerated, want.evaluated)
		}
		if len(got.Scores) != len(want.scores) {
			t.Errorf("%s: %d scores, oracle %d", run, len(got.Scores), len(want.scores))
		} else {
			for i, s := range got.Scores {
				w := want.scores[i]
				if s.Placement.Name != w.Placement.Name || s.Time != w.Time || (s.Err == nil) != (w.Err == nil) {
					t.Errorf("%s: score[%d] %s %v (err %v), oracle %s %v (err %v)", run, i,
						s.Placement.Name, s.Time, s.Err, w.Placement.Name, w.Time, w.Err)
					break
				}
			}
		}
		for c, v := range wantCounters {
			if gv := o.Counter(c).Value(); gv != v {
				t.Errorf("%s: counter %s = %v, oracle %v", run, c, gv, v)
			}
		}
	}
}

// TestStreamingMatchesSerial is the search's differential: across seeded
// machines × demands, the single scoring path must equal the serial oracle
// at every GOMAXPROCS.
func TestStreamingMatchesSerial(t *testing.T) {
	machines := []struct {
		name string
		mk   func() *topology.Machine
	}{
		{"A", topology.MachineA},
		{"B", topology.MachineB},
		{"B-degraded", degradedB},
		{"A-3gpu", func() *topology.Machine { return topology.MachineA().WithGPUs(3) }},
	}
	demands := []struct {
		name string
		mk   func(*topology.Machine) *flownet.Demand
	}{
		{"base", func(m *topology.Machine) *flownet.Demand { return demand(m.NumGPUs) }},
		{"scaled", func(m *topology.Machine) *flownet.Demand { return scaledDemand(m.NumGPUs, 1.7) }},
	}
	for _, mc := range machines {
		for _, dc := range demands {
			m := mc.mk()
			checkAgainstOracle(t, mc.name+"/"+dc.name, m, dc.mk(m), false)
		}
	}
}

// TestStreamingMatchesSerialSkipDedupe covers the ablation path where every
// enumerated candidate is scored. Mirror images then tie exactly on
// machine A, so the winner and the score order pin the (time, index)
// tiebreak.
func TestStreamingMatchesSerialSkipDedupe(t *testing.T) {
	for _, m := range []*topology.Machine{topology.MachineA(), topology.MachineB()} {
		checkAgainstOracle(t, m.Name+"/skip-dedupe", m, demand(m.NumGPUs), true)
	}
	res, err := Search(topology.MachineA(), demand(4), Options{SkipDedupe: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != res.Enumerated {
		t.Errorf("skip-dedupe evaluated %d != enumerated %d", res.Evaluated, res.Enumerated)
	}
}

// TestSearchCacheShortCircuits reruns an identical search through a shared
// cache: the second run must hit on every evaluation and agree exactly.
func TestSearchCacheShortCircuits(t *testing.T) {
	m := topology.MachineB()
	d := demand(4)
	cache := scorecache.NewScores(4096)
	cold, err := Search(m, d, Options{Cache: cache, KeepScores: true})
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHits != 0 {
		t.Fatalf("cold search reported %d hits", cold.CacheHits)
	}
	warm, err := Search(m, d, Options{Cache: cache, KeepScores: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits != warm.Evaluated {
		t.Errorf("warm search hit %d of %d evaluations", warm.CacheHits, warm.Evaluated)
	}
	if warm.Time != cold.Time || !reflect.DeepEqual(warm.Best, cold.Best) {
		t.Errorf("cache changed result: %v/%v vs %v/%v", warm.Time, warm.Best, cold.Time, cold.Best)
	}
	for i := range warm.Scores {
		if warm.Scores[i].Time != cold.Scores[i].Time {
			t.Errorf("score[%d] %v warm vs %v cold", i, warm.Scores[i].Time, cold.Scores[i].Time)
			break
		}
	}
	// A single worker shares the same keys.
	oneWarm, err := Search(m, d, Options{Cache: cache, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if oneWarm.CacheHits != oneWarm.Evaluated {
		t.Errorf("single-worker warm search hit %d of %d", oneWarm.CacheHits, oneWarm.Evaluated)
	}
}

// TestSearchCacheKeySeparation shares one cache across a healthy machine,
// a QPI-degraded one and one whose switch uplink differs by 0.0004 GiB/s
// (same attach-point structure, different fabric rates), and across two
// demands: nothing may cross-hit, and every kept score must equal its
// cache-free baseline exactly.
func TestSearchCacheKeySeparation(t *testing.T) {
	cache := scorecache.NewScores(4096)
	type run struct {
		m *topology.Machine
		d *flownet.Demand
	}
	runs := []run{
		{topology.MachineB(), demand(4)},
		{degradedB(), demand(4)},                  // same keys structurally, different QPI rate
		{topology.MachineB(), scaledDemand(4, 2)}, // same machine, different demand
		{fasterUplinkB(), demand(4)},              // uplinks equal to three decimals
	}
	for i, r := range runs {
		cached, err := Search(r.m, r.d, Options{Cache: cache, KeepScores: true})
		if err != nil {
			t.Fatal(err)
		}
		if cached.CacheHits != 0 {
			t.Errorf("run %d: %d cross-hits from a different machine/demand", i, cached.CacheHits)
		}
		plain, err := Search(r.m, r.d, Options{KeepScores: true})
		if err != nil {
			t.Fatal(err)
		}
		if cached.Time != plain.Time {
			t.Errorf("run %d: cached %v vs plain %v", i, cached.Time, plain.Time)
		}
		differ := 0
		for j := range plain.Scores {
			if cached.Scores[j].Time != plain.Scores[j].Time {
				differ++
			}
		}
		if differ > 0 {
			t.Errorf("run %d: %d of %d kept scores differ from the cache-free search", i, differ, len(plain.Scores))
		}
	}
}

// TestFaultsKeyIsolatesSharedCache shares one cache between a healthy
// search (empty FaultsKey) and a fault-aware one over the *same* machine
// and demand. The fault schedule degrades the scoring picture outside the
// machine/demand fingerprint, so without the FaultsKey component the
// second search would be served the first one's scores wholesale.
func TestFaultsKeyIsolatesSharedCache(t *testing.T) {
	m := topology.MachineB()
	d := demand(4)
	cache := scorecache.NewScores(4096)
	healthy, err := Search(m, d, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if healthy.CacheHits != 0 {
		t.Fatalf("cold healthy search reported %d hits", healthy.CacheHits)
	}
	faulted, err := Search(m, d, Options{Cache: cache, FaultsKey: "kill:ssd0@5"})
	if err != nil {
		t.Fatal(err)
	}
	if faulted.CacheHits != 0 {
		t.Errorf("fault-aware search took %d hits from the healthy run", faulted.CacheHits)
	}
	// Same schedule revisiting is still fully memoized...
	again, err := Search(m, d, Options{Cache: cache, FaultsKey: "kill:ssd0@5"})
	if err != nil {
		t.Fatal(err)
	}
	if again.CacheHits != again.Evaluated {
		t.Errorf("same-schedule rerun hit %d of %d evaluations", again.CacheHits, again.Evaluated)
	}
	// ...and a different schedule is isolated again.
	other, err := Search(m, d, Options{Cache: cache, FaultsKey: "kill:ssd0@90"})
	if err != nil {
		t.Fatal(err)
	}
	if other.CacheHits != 0 {
		t.Errorf("schedule B search took %d hits from schedule A", other.CacheHits)
	}
	// Isolation must not change what gets planned.
	plain, err := Search(m, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range []*Result{healthy, faulted, again, other} {
		if r.Time != plain.Time || !reflect.DeepEqual(r.Best, plain.Best) {
			t.Errorf("run %d: %v/%v vs cache-free %v/%v", i, r.Time, r.Best, plain.Time, plain.Best)
		}
	}
}

// TestSearchCacheInfeasibleMemoized ensures infeasible candidates are
// remembered too — a warm search repeats the infeasibility verdict without
// re-solving, and a fully infeasible search still errors.
func TestSearchCacheInfeasibleMemoized(t *testing.T) {
	m := topology.MachineA()
	d := &flownet.Demand{PerGPU: []float64{gb, gb, gb, gb}, SSDTotal: gb}
	cache := scorecache.NewScores(1024)
	if _, err := Search(m, d, Options{Cache: cache}); err == nil {
		t.Fatal("expected infeasible search to fail")
	}
	if cache.Len() == 0 {
		t.Fatal("infeasible scores not cached")
	}
	if _, err := Search(m, d, Options{Cache: cache}); err == nil {
		t.Fatal("warm infeasible search must still fail")
	}
	h, _, _ := cache.Stats()
	if h == 0 {
		t.Error("warm infeasible search did not use the cache")
	}
}

// TestCacheKeyHoldsWinner checks the score-cache key layout, cachePrefix
// followed by the canonical class, against the keys Search writes.
func TestCacheKeyHoldsWinner(t *testing.T) {
	m := topology.MachineA()
	d := demand(4)
	cache := scorecache.NewScores(1024)
	res, err := Search(m, d, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	class, err := CanonicalKey(m, res.Best)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := cache.Get(cachePrefix(m, d, "") + class)
	if !ok {
		t.Fatal("winner's cache key not present in cache")
	}
	if s.Infeasible {
		t.Fatal("winner cached as infeasible")
	}
	got := s.Seconds
	want := res.Time.Sec()
	if got != want {
		t.Errorf("cached %v, result %v", got, want)
	}
}
