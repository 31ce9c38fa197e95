package placement

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"moment/internal/flownet"
	"moment/internal/scorecache"
	"moment/internal/topology"
	"moment/internal/units"
)

const gb = 1 << 30

func demand(numGPU int) *flownet.Demand {
	per := make([]float64, numGPU)
	hbm := make([]float64, numGPU)
	for i := range per {
		per[i] = 100 * gb
		hbm[i] = 10 * gb
	}
	total := float64(numGPU) * 100 * gb
	return &flownet.Demand{
		PerGPU:   per,
		HBMPeer:  hbm,
		DRAM:     map[string]float64{"rc0": 25 * gb, "rc1": 25 * gb},
		SSDTotal: total - 50*gb - float64(numGPU)*10*gb,
	}
}

func TestEnumerateCountsMachineA(t *testing.T) {
	m := topology.MachineA()
	ps, err := Enumerate(m)
	if err != nil {
		t.Fatal(err)
	}
	// GPUs: 4 into caps (0,0,4,4) -> 5 ways; SSDs: 8 into (8,8,0,0) -> 9.
	if len(ps) != 45 {
		t.Errorf("enumerated %d, want 45", len(ps))
	}
	for _, p := range ps {
		if err := p.Validate(m); err != nil {
			t.Errorf("invalid candidate %v: %v", p, err)
		}
	}
}

func TestEnumerateRespectsSlotCaps(t *testing.T) {
	m := topology.MachineB()
	ps, err := Enumerate(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		gpus, ssds := p.Counts()
		for at, n := range gpus {
			pt, _ := m.Point(at)
			if n > pt.GPUSlots {
				t.Fatalf("candidate overfills %s with %d GPUs", at, n)
			}
		}
		for at, n := range ssds {
			pt, _ := m.Point(at)
			if n > pt.Bays {
				t.Fatalf("candidate overfills %s with %d SSDs", at, n)
			}
		}
	}
}

// TestEnumerateNames pins Enumerate's naming: cand<i> in enumeration
// order.
func TestEnumerateNames(t *testing.T) {
	for _, m := range []*topology.Machine{topology.MachineA(), topology.MachineB(),
		topology.Supermicro420GP(), topology.H3Falcon4016()} {
		all, err := Enumerate(m)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range all {
			if want := fmt.Sprintf("cand%d", i); p.Name != want {
				t.Fatalf("%s: candidate %d named %q, want %q", m.Name, i, p.Name, want)
			}
		}
	}
	bad := topology.MachineA()
	bad.Points = nil
	if _, err := Enumerate(bad); err == nil {
		t.Error("invalid machine accepted")
	}
}

func TestCompositions(t *testing.T) {
	cs := compositions(3, []int{2, 2})
	// (1,2),(2,1) are both allowed; (3,0),(0,3) exceed caps.
	if len(cs) != 2 {
		t.Fatalf("compositions(3,[2,2]) = %v", cs)
	}
	if len(compositions(0, []int{2, 2})) != 1 {
		t.Error("zero total should have exactly the empty composition")
	}
	if len(compositions(5, []int{2, 2})) != 0 {
		t.Error("infeasible total should have no compositions")
	}
}

func TestDedupeMachineAMirrorSymmetry(t *testing.T) {
	m := topology.MachineA()
	all, err := Enumerate(m)
	if err != nil {
		t.Fatal(err)
	}
	ded, err := Dedupe(m, all)
	if err != nil {
		t.Fatal(err)
	}
	if len(ded) >= len(all) {
		t.Fatalf("dedupe removed nothing: %d -> %d", len(all), len(ded))
	}
	// Machine A's sockets mirror each other, so roughly half the
	// candidates are redundant (diagonal ones are self-symmetric).
	if len(ded) > len(all)*2/3 {
		t.Errorf("dedupe too weak: %d -> %d", len(all), len(ded))
	}
}

// TestSearchExactUplinkClasses raises SM420GP's sw1 uplink by 0.0004
// GiB/s. sw0 and sw1 then carry different flow networks, so placements
// that swap their contents are no longer isomorphic: 3,087 classes, where
// a key that printed uplinks to three decimals would keep 847 and never
// score the rest.
func TestSearchExactUplinkClasses(t *testing.T) {
	for _, tc := range []struct {
		raise float64
		want  int
	}{{0, 847}, {0.0004, 3087}} {
		m := topology.Supermicro420GP()
		for i := range m.Points {
			if m.Points[i].ID == "sw1" {
				m.Points[i].UplinkBW += units.GiBps(tc.raise)
			}
		}
		all, err := Enumerate(m)
		if err != nil {
			t.Fatal(err)
		}
		kept, err := Dedupe(m, all)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Search(m, demand(4), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != 5719 || res.Enumerated != len(all) {
			t.Errorf("raise %v: enumerated %d (Search %d), want 5719", tc.raise, len(all), res.Enumerated)
		}
		if len(kept) != tc.want || res.Evaluated != tc.want {
			t.Errorf("raise %v: Dedupe keeps %d, Search evaluates %d, want %d classes",
				tc.raise, len(kept), res.Evaluated, tc.want)
		}
	}
}

// TestSkipDedupeCacheSharesClassKeys runs the ablation through a score
// cache: every enumerated candidate is scored, members of one class share
// their representative's key, so the cache holds one entry per class and
// a warm rerun hits on every candidate.
func TestSkipDedupeCacheSharesClassKeys(t *testing.T) {
	m := topology.MachineA()
	all, err := Enumerate(m)
	if err != nil {
		t.Fatal(err)
	}
	kept, err := Dedupe(m, all)
	if err != nil {
		t.Fatal(err)
	}
	cache := scorecache.NewScores(1024)
	opt := Options{SkipDedupe: true, Cache: cache}
	if _, err := Search(m, demand(4), opt); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != len(kept) {
		t.Errorf("cache holds %d keys, want one per class (%d)", cache.Len(), len(kept))
	}
	warm, err := Search(m, demand(4), opt)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Evaluated != len(all) || warm.CacheHits != len(all) {
		t.Errorf("warm skip-dedupe search evaluated %d with %d hits, want %d of each",
			warm.Evaluated, warm.CacheHits, len(all))
	}
}

func TestCanonicalKeyInvariantUnderMirror(t *testing.T) {
	m := topology.MachineA()
	// 3 GPUs on sw0 + 1 on sw1, SSDs 5 rc0 + 3 rc1 — and its mirror.
	p1 := &topology.Placement{
		GPUAt: []string{"sw0", "sw0", "sw0", "sw1"},
		SSDAt: []string{"rc0", "rc0", "rc0", "rc0", "rc0", "rc1", "rc1", "rc1"},
	}
	p2 := &topology.Placement{
		GPUAt: []string{"sw1", "sw1", "sw1", "sw0"},
		SSDAt: []string{"rc1", "rc1", "rc1", "rc1", "rc1", "rc0", "rc0", "rc0"},
	}
	k1, err := CanonicalKey(m, p1)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := CanonicalKey(m, p2)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("mirror placements got different keys:\n%s\n%s", k1, k2)
	}
	// A genuinely different placement must differ.
	p3 := &topology.Placement{
		GPUAt: []string{"sw0", "sw0", "sw1", "sw1"},
		SSDAt: p1.SSDAt,
	}
	k3, err := CanonicalKey(m, p3)
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Error("different placements share a key")
	}
}

func TestCanonicalKeyNotInvariantOnAsymmetricB(t *testing.T) {
	// Machine B's sockets are NOT symmetric (rc1 has bays, rc0 hosts the
	// switch cascade), so "mirrored" placements must stay distinct.
	m := topology.MachineB()
	p1 := &topology.Placement{
		GPUAt: []string{"rc0", "sw0", "sw0", "sw1"},
		SSDAt: []string{"rc1", "rc1", "rc1", "rc1", "sw0", "sw0", "sw1", "sw1"},
	}
	p2 := &topology.Placement{
		GPUAt: []string{"rc1", "sw0", "sw0", "sw1"},
		SSDAt: p1.SSDAt,
	}
	k1, err := CanonicalKey(m, p1)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := CanonicalKey(m, p2)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Error("asymmetric sockets collapsed by canonical key")
	}
}

func TestCanonicalKeyPermutationProperty(t *testing.T) {
	// Shuffling device order within a placement never changes the key
	// (PCIe switch symmetry: same-point devices are interchangeable).
	m := topology.MachineB()
	r := rand.New(rand.NewSource(3))
	base := &topology.Placement{
		GPUAt: []string{"rc0", "sw0", "sw1", "sw1"},
		SSDAt: []string{"rc1", "rc1", "sw0", "sw0", "rc1", "sw1", "sw1", "rc1"},
	}
	want, err := CanonicalKey(m, base)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		p := base.Clone()
		r.Shuffle(len(p.GPUAt), func(a, b int) { p.GPUAt[a], p.GPUAt[b] = p.GPUAt[b], p.GPUAt[a] })
		r.Shuffle(len(p.SSDAt), func(a, b int) { p.SSDAt[a], p.SSDAt[b] = p.SSDAt[b], p.SSDAt[a] })
		got, err := CanonicalKey(m, p)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("shuffle %d changed key", i)
		}
	}
}

func TestSearchMachineABeatsClassics(t *testing.T) {
	m := topology.MachineA()
	d := demand(4)
	res, err := Search(m, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || res.Time <= 0 {
		t.Fatalf("bad result %+v", res)
	}
	for _, l := range []topology.ClassicLayout{topology.LayoutA, topology.LayoutB, topology.LayoutC, topology.LayoutD} {
		p, err := topology.ClassicPlacement(m, l)
		if err != nil {
			t.Fatal(err)
		}
		n, err := flownet.Build(m, p, d)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := n.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if res.Time.Sec() > ct.Sec()*1.001 {
			t.Errorf("search result %.3fs worse than classic %v %.3fs", res.Time.Sec(), l, ct.Sec())
		}
	}
}

func TestSearchMachineBBeatsClassics(t *testing.T) {
	m := topology.MachineB()
	d := demand(4)
	res, err := Search(m, d, Options{KeepScores: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []topology.ClassicLayout{topology.LayoutA, topology.LayoutB, topology.LayoutC, topology.LayoutD} {
		p, err := topology.ClassicPlacement(m, l)
		if err != nil {
			t.Fatal(err)
		}
		n, err := flownet.Build(m, p, d)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := n.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if res.Time.Sec() > ct.Sec()*1.001 {
			t.Errorf("search result %.3fs worse than classic %v %.3fs", res.Time.Sec(), l, ct.Sec())
		}
	}
	if len(res.Scores) != res.Evaluated {
		t.Errorf("scores %d != evaluated %d", len(res.Scores), res.Evaluated)
	}
	// Scores must be sorted ascending among the error-free prefix.
	for i := 1; i < len(res.Scores); i++ {
		if res.Scores[i].Err != nil {
			break
		}
		if res.Scores[i].Time < res.Scores[i-1].Time {
			t.Error("scores not sorted")
			break
		}
	}
}

func TestSearchDedupeConsistency(t *testing.T) {
	// Skipping symmetry reduction must not change the optimum.
	m := topology.MachineA()
	d := demand(4)
	withDedupe, err := Search(m, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Search(m, d, Options{SkipDedupe: true})
	if err != nil {
		t.Fatal(err)
	}
	rel := (withDedupe.Time - without.Time).Sec() / without.Time.Sec()
	if rel > 0.001 || rel < -0.001 {
		t.Errorf("dedupe changed optimum: %.4fs vs %.4fs", withDedupe.Time.Sec(), without.Time.Sec())
	}
	if withDedupe.Evaluated >= without.Evaluated {
		t.Errorf("dedupe did not shrink evaluations: %d vs %d",
			withDedupe.Evaluated, without.Evaluated)
	}
}

func TestSearchReducedGPUCounts(t *testing.T) {
	for _, mk := range []func() *topology.Machine{topology.MachineA, topology.MachineB} {
		for n := 1; n <= 4; n++ {
			m := mk().WithGPUs(n)
			res, err := Search(m, demand(n), Options{})
			if err != nil {
				t.Fatalf("%s n=%d: %v", m.Name, n, err)
			}
			if len(res.Best.GPUAt) != n {
				t.Errorf("%s n=%d: best has %d GPUs", m.Name, n, len(res.Best.GPUAt))
			}
		}
	}
}

func TestSearchParallelismDeterministicOptimum(t *testing.T) {
	m := topology.MachineB()
	d := demand(4)
	r1, err := Search(m, d, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Search(m, d, Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	rel := (r1.Time - r8.Time).Sec() / r1.Time.Sec()
	if rel > 1e-6 || rel < -1e-6 {
		t.Errorf("optimum depends on parallelism: %v vs %v", r1.Time, r8.Time)
	}
}

func TestSearchInfeasible(t *testing.T) {
	m := topology.MachineA()
	// Demand exceeding any storage supply is rejected at Build time for
	// every candidate, so the search must fail cleanly.
	d := &flownet.Demand{PerGPU: []float64{gb, gb, gb, gb}, SSDTotal: gb}
	if _, err := Search(m, d, Options{}); err == nil {
		t.Fatal("expected search failure")
	}
}

func TestSearchAdaptsToDegradedQPI(t *testing.T) {
	// Profiling-driven planning (§3.1): if the measured QPI rate is low,
	// the chosen placement must avoid cross-socket traffic harder — its
	// predicted time under the degraded fabric must beat the placement
	// chosen assuming a healthy fabric.
	healthy := topology.MachineB()
	degraded := topology.MachineB()
	degraded.QPIBW = topology.QPIRate / 4
	d := demand(4)
	onHealthy, err := Search(healthy, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	onDegraded, err := Search(degraded, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Score the healthy-fabric choice on the degraded machine.
	n, err := flownet.Build(degraded, onHealthy.Best, d)
	if err != nil {
		t.Fatal(err)
	}
	tHealthyChoice, err := n.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if onDegraded.Time.Sec() > tHealthyChoice.Sec()*1.001 {
		t.Errorf("degraded-aware search %.3fs worse than naive choice %.3fs",
			onDegraded.Time.Sec(), tHealthyChoice.Sec())
	}
}

// Regression: Search used to spawn one goroutine per candidate before
// acquiring the semaphore, so a large enumeration launched thousands of
// goroutines at once. The worker pool must run at most Parallelism
// concurrent evaluations and allocate at most Parallelism worker
// goroutines.
func TestSearchWorkerPoolBounded(t *testing.T) {
	const parallelism = 2
	var cur, peak, calls int64
	evalHook = func() {
		n := atomic.AddInt64(&cur, 1)
		for {
			p := atomic.LoadInt64(&peak)
			if n <= p || atomic.CompareAndSwapInt64(&peak, p, n) {
				break
			}
		}
		atomic.AddInt64(&calls, 1)
		time.Sleep(100 * time.Microsecond) // widen the overlap window
		atomic.AddInt64(&cur, -1)
	}
	defer func() { evalHook = nil }()

	before := runtime.NumGoroutine()
	m := topology.MachineB()
	res, err := Search(m, demand(4), Options{Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no best placement")
	}
	if int(calls) != res.Evaluated {
		t.Errorf("hook saw %d evaluations, want %d", calls, res.Evaluated)
	}
	if peak > parallelism {
		t.Errorf("%d concurrent evaluations, Parallelism=%d", peak, parallelism)
	}
	// All workers must have exited; no goroutine leak either.
	after := runtime.NumGoroutine()
	if after > before+1 {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

// The pool must also cap itself at the candidate count (no idle workers
// blocking on an empty channel) and finish with a huge Parallelism.
func TestSearchWorkerPoolMoreWorkersThanCandidates(t *testing.T) {
	m := topology.MachineA().WithGPUs(1)
	res, err := Search(m, demand(1), Options{Parallelism: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || res.Time <= 0 {
		t.Fatalf("bad result %+v", res)
	}
}
