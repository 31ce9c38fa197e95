package faults

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Injector answers the simulators' time-indexed fault queries for one
// schedule. All factors are piecewise constant between event boundaries;
// NextChange exposes the boundaries so event-driven simulators can segment
// time exactly, and Segment names the stretch between two boundaries. An
// Injector is immutable and safe for concurrent readers.
//
// NewInjector compiles the schedule into one step table per target, so
// every query is a binary search. Each table entry multiplies the events
// active over its stretch in schedule order, the order a scan of the whole
// schedule would multiply them in, so a factor is the same float whichever
// way it is computed.
//
// WithBase shifts the injector's clock: queries at local time t read the
// schedule at absolute time base+t, which lets a simulation that restarts
// its clock mid-epoch (e.g. the post-failure fabric re-run in trainsim)
// keep consuming one absolute schedule.
type Injector struct {
	seed   int64
	events []Event   // sorted by At
	bounds []float64 // every event start and finite end, sorted, distinct
	base   float64

	ssds  map[int]*ssdSteps
	gpus  map[int]*steps    // straggle factors
	links map[string]*steps // downtrain factors
}

// ssdSteps holds one SSD's fault state.
type ssdSteps struct {
	service steps   // product of active throttles
	errProb steps   // composed error-burst probability
	kill    float64 // first fail-stop time, +Inf if none
}

// factor returns the SSD's service-rate fraction at absolute time at.
func (st *ssdSteps) factor(at float64) float64 {
	if at >= st.kill {
		return 0
	}
	return st.service.value(at, 1)
}

// steps is a piecewise-constant value: val[i] holds from at[i] until
// at[i+1], and the identity holds before at[0].
type steps struct {
	at, val []float64
}

// value returns the step value at absolute time t, or none before the
// first step.
func (s *steps) value(t, none float64) float64 {
	if s == nil {
		return none
	}
	if i := countLE(s.at, t); i > 0 {
		return s.val[i-1]
	}
	return none
}

// countLE returns the number of elements of the sorted slice a that are
// <= x.
func countLE(a []float64, x float64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// buildSteps sweeps one target's events (in schedule order) across their
// own boundaries. At each boundary the value is the product of term(e)
// over the events active there, multiplied in schedule order starting
// from 1.
func buildSteps(evs []Event, term func(Event) float64) steps {
	var s steps
	for _, e := range evs {
		s.at = append(s.at, e.At)
		if end := e.end(); !math.IsInf(end, 1) {
			s.at = append(s.at, end)
		}
	}
	s.at = sortedDistinct(s.at)
	s.val = make([]float64, len(s.at))
	// active holds the started events' ends and terms in schedule order:
	// starts at b come after every event already active, so appending
	// keeps the order.
	type span struct{ end, term float64 }
	var active []span
	next := 0
	for i, b := range s.at {
		for ; next < len(evs) && evs[next].At <= b; next++ {
			active = append(active, span{evs[next].end(), term(evs[next])})
		}
		kept, f := active[:0], 1.0
		for _, a := range active {
			if b < a.end {
				kept = append(kept, a)
				f *= a.term
			}
		}
		active = kept
		s.val[i] = f
	}
	return s
}

// sortedDistinct sorts v in place and drops repeated values.
func sortedDistinct(v []float64) []float64 {
	sort.Float64s(v)
	out := v[:0]
	for i, x := range v {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// NewInjector validates a schedule and compiles its step tables. A nil
// schedule yields an injector that reports a perfect machine.
func NewInjector(s *Schedule) (*Injector, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{}
	if s != nil {
		in.seed = s.Seed
		in.events = s.sorted()
	}
	var (
		throttles, bursts = map[int][]Event{}, map[int][]Event{}
		stragglers        = map[int][]Event{}
		downtrains        = map[string][]Event{}
	)
	in.ssds = map[int]*ssdSteps{}
	ssd := func(i int) *ssdSteps {
		st := in.ssds[i]
		if st == nil {
			st = &ssdSteps{kill: math.Inf(1)}
			in.ssds[i] = st
		}
		return st
	}
	for _, e := range in.events {
		in.bounds = append(in.bounds, e.At)
		if end := e.end(); !math.IsInf(end, 1) {
			in.bounds = append(in.bounds, end)
		}
		switch e.Kind {
		case FailStop:
			if st := ssd(e.SSD); math.IsInf(st.kill, 1) {
				st.kill = e.At
			}
		case Throttle:
			ssd(e.SSD)
			throttles[e.SSD] = append(throttles[e.SSD], e)
		case ErrorBurst:
			ssd(e.SSD)
			bursts[e.SSD] = append(bursts[e.SSD], e)
		case Straggler:
			stragglers[e.GPU] = append(stragglers[e.GPU], e)
		case LinkDowntrain:
			downtrains[e.Link] = append(downtrains[e.Link], e)
		}
	}
	in.bounds = sortedDistinct(in.bounds)
	factor := func(e Event) float64 { return e.Factor }
	for i, st := range in.ssds {
		st.service = buildSteps(throttles[i], factor)
		// The table holds the probability that a request sees no error.
		st.errProb = buildSteps(bursts[i], func(e Event) float64 { return 1 - e.Prob })
		for k, ok := range st.errProb.val {
			st.errProb.val[k] = 1 - ok
		}
	}
	in.gpus = make(map[int]*steps, len(stragglers))
	for g, evs := range stragglers {
		s := buildSteps(evs, factor)
		in.gpus[g] = &s
	}
	in.links = make(map[string]*steps, len(downtrains))
	for name, evs := range downtrains {
		s := buildSteps(evs, factor)
		in.links[name] = &s
	}
	return in, nil
}

// WithBase returns a view whose local time 0 is absolute time base.
func (in *Injector) WithBase(base float64) *Injector {
	if in == nil {
		return nil
	}
	cp := *in
	cp.base = in.base + base
	return &cp
}

// Base returns the injector's absolute-clock offset.
func (in *Injector) Base() float64 {
	if in == nil {
		return 0
	}
	return in.base
}

// Events returns the schedule's events sorted by start time.
func (in *Injector) Events() []Event {
	if in == nil {
		return nil
	}
	return in.events
}

// abs converts a local query time to schedule time.
func (in *Injector) abs(t float64) float64 { return in.base + t }

// SSDFailed reports whether a fail-stop event has hit the SSD by time t.
func (in *Injector) SSDFailed(ssd int, t float64) bool {
	if in == nil {
		return false
	}
	return in.abs(t) >= in.SSDFailTime(ssd)
}

// SSDFailTime returns the absolute time the SSD fail-stops, or +Inf.
func (in *Injector) SSDFailTime(ssd int) float64 {
	if in == nil {
		return math.Inf(1)
	}
	if st := in.ssds[ssd]; st != nil {
		return st.kill
	}
	return math.Inf(1)
}

// SSDFactor returns the SSD's remaining service-rate fraction at time t:
// 0 when failed, otherwise the product of all active throttles.
func (in *Injector) SSDFactor(ssd int, t float64) float64 {
	if in == nil {
		return 1
	}
	st := in.ssds[ssd]
	if st == nil {
		return 1
	}
	return st.factor(in.abs(t))
}

// ErrorProb returns the per-request transient-error probability on the
// SSD at time t (overlapping bursts compose independently).
func (in *Injector) ErrorProb(ssd int, t float64) float64 {
	if in == nil {
		return 0
	}
	st := in.ssds[ssd]
	if st == nil {
		return 0
	}
	return st.errProb.value(in.abs(t), 0)
}

// GPUFactor returns the GPU's remaining compute-rate fraction at time t.
func (in *Injector) GPUFactor(gpu int, t float64) float64 {
	if in == nil {
		return 1
	}
	return in.gpus[gpu].value(in.abs(t), 1)
}

// LinkFactor returns the capacity fraction of a named fabric link at time
// t. Two event classes apply: LinkDowntrain events naming the link
// exactly, and — because the fabric registers each SSD's egress link as
// "ssdN" — SSD fail/throttle/error-burst events for that device (an error
// burst scales capacity by its goodput factor, modeling retried requests
// re-occupying the link). This is the single query simnet needs to see
// every device-level fault.
func (in *Injector) LinkFactor(name string, t float64) float64 {
	ref, _ := in.Link(name)
	return in.LinkFactorAt(ref, t)
}

// LinkRef is a fabric link resolved against an injector's schedule by
// Link, so that LinkFactorAt reads its factor without a name lookup.
type LinkRef struct {
	down *steps    // downtrains naming the link, nil if none does
	ssd  *ssdSteps // faults of the SSD whose egress the link is, if any
}

// Link resolves a fabric link name once for LinkFactorAt. ok is false
// when no event of the schedule can move the link's factor off 1.
func (in *Injector) Link(name string) (ref LinkRef, ok bool) {
	if in == nil {
		return LinkRef{}, false
	}
	ref.down = in.links[name]
	if ssd, isSSD := ssdLinkIndex(name); isSSD {
		ref.ssd = in.ssds[ssd]
	}
	return ref, ref.down != nil || ref.ssd != nil
}

// LinkFactorAt is LinkFactor for a link resolved by Link on this injector
// or on a view of it (WithBase).
func (in *Injector) LinkFactorAt(ref LinkRef, t float64) float64 {
	if in == nil {
		return 1
	}
	at := in.abs(t)
	f := ref.down.value(at, 1)
	if st := ref.ssd; st != nil {
		f *= st.factor(at) * GoodputFactor(st.errProb.value(at, 0))
	}
	return f
}

// ssdLinkIndex parses the fabric's SSD egress link naming ("ssd3" → 3).
func ssdLinkIndex(name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, "ssd")
	if !ok || rest == "" {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// NextChange returns the earliest local time strictly after t at which any
// factor may change (+Inf when none remain). Event loops advance at most
// to this boundary so piecewise-constant factors are sampled exactly.
func (in *Injector) NextChange(t float64) float64 {
	if in == nil {
		return math.Inf(1)
	}
	if i := countLE(in.bounds, in.abs(t)+1e-12); i < len(in.bounds) {
		return in.bounds[i] - in.base
	}
	return math.Inf(1)
}

// Segment returns the number of event boundaries at or before local time
// t. Every factor is constant over a segment, so two times with equal
// Segment see equal factors; a simulator can re-read factors only when the
// segment changes.
func (in *Injector) Segment(t float64) int {
	if in == nil {
		return 0
	}
	return countLE(in.bounds, in.abs(t))
}

// InjectedBy counts events whose start time is <= local time t.
func (in *Injector) InjectedBy(t float64) int {
	if in == nil {
		return 0
	}
	at := in.abs(t)
	return sort.Search(len(in.events), func(i int) bool { return in.events[i].At > at })
}

// Bernoulli draws a deterministic error coin: true with probability p,
// as a pure function of (seed, stream, trial). Streams separate devices;
// trials separate (request, attempt) pairs. The generator is a
// splitmix64-style counter hash, so coins are independent across trials
// and identical across runs with the same seed.
func (in *Injector) Bernoulli(stream, trial uint64, p float64) bool {
	if in == nil || p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	x := uint64(in.seed)
	x ^= stream * 0x9e3779b97f4a7c15
	x ^= trial * 0xbf58476d1ce4e5b9
	x = splitmix64(x)
	// 53-bit uniform in [0,1).
	u := float64(x>>11) / (1 << 53)
	return u < p
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// CheckTargets validates the schedule's targets against a machine: its
// device counts (numSSDs, numGPUs) and the names of its fabric's links,
// which every downtrain must name.
func (in *Injector) CheckTargets(numSSDs, numGPUs int, links []string) error {
	if in == nil {
		return nil
	}
	for _, e := range in.events {
		if e.Kind == LinkDowntrain && !slices.Contains(links, e.Link) {
			return fmt.Errorf("faults: downtrain targets link %q, which the machine's fabric lacks", e.Link)
		}
		if e.SSD >= numSSDs && (e.Kind == FailStop || e.Kind == Throttle || e.Kind == ErrorBurst) {
			return fmt.Errorf("faults: %s targets ssd%d but machine has %d SSDs", e.Kind, e.SSD, numSSDs)
		}
		if e.Kind == Straggler && e.GPU >= numGPUs {
			return fmt.Errorf("faults: straggle targets gpu%d but machine has %d GPUs", e.GPU, numGPUs)
		}
	}
	return nil
}
