package simnet

import (
	"math"
	"testing"

	"moment/internal/faults"
)

// chatterbox is a FaultLookup that reports a fault boundary every second
// but never changes any link factor — the shape of a schedule whose events
// all target GPUs or SSD error rates. A correct delta loop reuses the
// previous rate allocation at every one of its boundaries.
type chatterbox struct{ horizon float64 }

func (c chatterbox) LinkFactor(string, float64) float64 { return 1 }
func (c chatterbox) Segment(t float64) int              { return int(math.Min(math.Floor(t), c.horizon)) }
func (c chatterbox) NextChange(t float64) float64 {
	next := math.Floor(t) + 1
	if next > c.horizon {
		return math.Inf(1)
	}
	return next
}

func TestRateReuseAtQuietFaultBoundaries(t *testing.T) {
	build := func(f FaultLookup) *Net {
		n := New()
		a, _ := n.AddLink("a", 10)
		b, _ := n.AddLink("b", 7)
		n.AddFlow("f1", []LinkID{a, b}, 100, 0)
		n.AddFlow("f2", []LinkID{b}, 50, 3)
		if f != nil {
			n.SetFaults(f)
		}
		return n
	}
	quiet, err := build(nil).Run()
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := build(chatterbox{horizon: 100}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if quiet.Makespan != noisy.Makespan {
		t.Errorf("quiet boundaries changed makespan: %v vs %v", noisy.Makespan, quiet.Makespan)
	}
	for i := range quiet.FlowDone {
		if quiet.FlowDone[i] != noisy.FlowDone[i] {
			t.Errorf("flow %d done drifted: %v vs %v", i, noisy.FlowDone[i], quiet.FlowDone[i])
		}
	}
	// Every per-second boundary that coincides with no admission or
	// completion must be a reuse, and the solve count must match the
	// boundary-free run exactly.
	if noisy.RateSolves != quiet.RateSolves {
		t.Errorf("noisy run solved rates %d times, quiet run %d — boundaries should all reuse",
			noisy.RateSolves, quiet.RateSolves)
	}
	if noisy.RateReuses == 0 {
		t.Error("no rate reuses across ~15 quiet fault boundaries")
	}
	if quiet.RateReuses != 0 {
		t.Errorf("quiet run reports %d reuses, want 0 (every event changes the active set)", quiet.RateReuses)
	}
}

func TestRateRecomputeWhenLinkFactorMoves(t *testing.T) {
	// Same scenario as TestThrottleMidFlow: the t=5 boundary changes the
	// trunk's factor, so it must trigger a recompute, not a reuse.
	n := New()
	l, _ := n.AddLink("trunk", 100)
	n.AddFlow("f", []LinkID{l}, 1000, 0)
	in, err := faults.NewInjector(&faults.Schedule{Events: []faults.Event{
		faults.Downtrain("trunk", 5, 0.5, 0),
	}})
	if err != nil {
		t.Fatal(err)
	}
	n.SetFaults(in)
	res, err := n.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-15) > 1e-6 {
		t.Errorf("makespan %v, want 15", res.Makespan)
	}
	if res.RateSolves < 2 {
		t.Errorf("rate solves %d, want >= 2 (admission + factor change)", res.RateSolves)
	}
}

func TestClearFlowsReusesFabric(t *testing.T) {
	n := New()
	a, _ := n.AddLink("a", 10)
	b, _ := n.AddLink("b", 7)
	n.AddFlow("f1", []LinkID{a, b}, 100, 0)
	first, err := n.Run()
	if err != nil {
		t.Fatal(err)
	}

	n.ClearFlows()
	if n.NumFlows() != 0 {
		t.Fatalf("ClearFlows left %d flows", n.NumFlows())
	}
	if n.NumLinks() != 2 {
		t.Fatalf("ClearFlows dropped links: %d left", n.NumLinks())
	}
	// Re-add the same flow; the rerun must match the first epoch exactly.
	n.AddFlow("f1", []LinkID{a, b}, 100, 0)
	second, err := n.Run()
	if err != nil {
		t.Fatal(err)
	}
	if first.Makespan != second.Makespan {
		t.Errorf("fabric reuse drifted: %v vs %v", second.Makespan, first.Makespan)
	}
	if first.FlowDone[0] != second.FlowDone[0] {
		t.Errorf("flow done drifted: %v vs %v", second.FlowDone[0], first.FlowDone[0])
	}
}

// countingLookup counts the link-factor reads a run makes and the fault
// segments it enters. With fresh set, every Segment call reports a new
// segment, so the Net re-reads every factor at every event: the uncached
// reference.
type countingLookup struct {
	*faults.Injector
	fresh         bool
	reads         int
	entered, last int
	calls         int
}

func (c *countingLookup) LinkFactor(name string, t float64) float64 {
	c.reads++
	return c.Injector.LinkFactor(name, t)
}

func (c *countingLookup) Segment(t float64) int {
	c.calls++
	seg := c.Injector.Segment(t)
	if c.fresh {
		seg = c.calls
	}
	if c.entered == 0 || seg != c.last {
		c.entered++
		c.last = seg
	}
	return seg
}

// The Net reads link factors once per fault segment it enters, and the
// cache changes nothing a run reports.
func TestLinkFactorReadOncePerSegment(t *testing.T) {
	in, err := faults.NewInjector(&faults.Schedule{Events: []faults.Event{
		faults.ThrottleSSD(0, 1, 0.5, 3),
		faults.Burst(1, 2, 0.2, 4),
		faults.Straggle(0, 2.5, 0.5, 1), // touches no link: a reuse
		faults.Downtrain("trunk", 4, 0.25, 0),
		faults.Downtrain("trunk", 4+1e-13, 0.5, 2), // inside NextChange's slack
		faults.Burst(0, 7, 0.3, 0.5),
		faults.Kill(3, 9), // a link no flow crosses
	}})
	if err != nil {
		t.Fatal(err)
	}
	run := func(f *countingLookup) (*Result, int) {
		n := New()
		var ids []LinkID
		for _, l := range []struct {
			name string
			rate float64
		}{{"ssd0", 40}, {"ssd1", 30}, {"ssd3", 30}, {"trunk", 50}, {"gpu0:in", 60}} {
			id, err := n.AddLink(l.name, l.rate)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		ssd0, ssd1, trunk, gpu := ids[0], ids[1], ids[3], ids[4]
		n.AddFlow("a", []LinkID{ssd0, trunk, gpu}, 300, 0)
		n.AddFlow("b", []LinkID{ssd1, trunk, gpu}, 200, 0.5)
		n.AddFlow("c", []LinkID{ssd1, gpu}, 150, 3)
		n.SetFaults(f)
		res, err := n.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, n.NumLinks()
	}
	ref, _ := run(&countingLookup{Injector: in, fresh: true})
	cached := &countingLookup{Injector: in}
	got, links := run(cached)
	if cached.reads > links*cached.entered {
		t.Errorf("%d LinkFactor reads over %d segments entered, want at most %d links each", cached.reads, cached.entered, links)
	}
	if cached.entered < 5 {
		t.Errorf("the run entered %d fault segments; the scenario needs several", cached.entered)
	}
	if got.Makespan != ref.Makespan || got.RateSolves != ref.RateSolves || got.RateReuses != ref.RateReuses {
		t.Errorf("cached run: makespan %v, %d solves, %d reuses; uncached %v, %d, %d",
			got.Makespan, got.RateSolves, got.RateReuses, ref.Makespan, ref.RateSolves, ref.RateReuses)
	}
	if got.RateReuses == 0 {
		t.Error("no rate reuse at the straggler's boundaries")
	}
	for i := range ref.FlowDone {
		if got.FlowDone[i] != ref.FlowDone[i] {
			t.Errorf("flow %d done at %v, uncached %v", i, got.FlowDone[i], ref.FlowDone[i])
		}
	}
	for l := range ref.LinkBytes {
		if got.LinkBytes[l] != ref.LinkBytes[l] {
			t.Errorf("link %d carried %v bytes, uncached %v", l, got.LinkBytes[l], ref.LinkBytes[l])
		}
	}
}
