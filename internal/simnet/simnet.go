// Package simnet is a flow-level discrete-event network simulator: named
// links with byte/second capacities, flows that follow fixed link paths,
// and progressive-filling (max-min fair) bandwidth allocation recomputed at
// every flow arrival/completion. It plays the role of the real fabric in
// Moment's runtime: where flownet *predicts* epoch I/O time by max-flow,
// simnet *measures* it by simulating the actual transfers — the two
// quantities Fig 13 compares.
//
// The simulator is deterministic and single-threaded per Run; build one Net
// per goroutine for parallel experiments.
package simnet

import (
	"fmt"
	"math"
	"sort"

	"moment/internal/obs"
)

// LinkID names a link in the network.
type LinkID int

// FlowID names a flow.
type FlowID int

type link struct {
	name string
	rate float64 // bytes/second; +Inf allowed
}

type flow struct {
	name    string
	path    []LinkID
	bytes   float64
	start   float64
	done    float64 // completion time; NaN until finished
	remain  float64
	rate    float64 // current allocated rate
	started bool
}

// Net is a link-capacity network with flows.
type Net struct {
	links  []link
	flows  []flow
	ran    bool
	obsrv  *obs.Observer // nil = no instrumentation
	faults FaultLookup   // nil = perfect fabric

	// eff caches each link's effective rate under faults for fault
	// segment seg (-1: not read yet).
	eff []float64
	seg int

	// Scratch reused by every maxMinRates call.
	residual []float64
	countOn  []int
	frozen   []bool
}

// SetObserver attaches an observer so Run reports a span plus per-link
// utilization gauges. Nil detaches.
func (n *Net) SetObserver(o *obs.Observer) { n.obsrv = o }

// FaultLookup is the fault-injector view the simulator queries during the
// event loop: a piecewise-constant capacity factor per named link, the
// segment of the schedule a time falls in, and the next time any factor
// changes (so rate recomputation lands exactly on fault boundaries).
// faults.Injector implements it; the interface keeps simnet free of a
// package dependency.
type FaultLookup interface {
	// LinkFactor returns the capacity fraction of the named link at time
	// t (1 = healthy, 0 = dead).
	LinkFactor(name string, t float64) float64
	// NextChange returns the earliest time strictly after t at which any
	// factor may change, or +Inf.
	NextChange(t float64) float64
	// Segment numbers the stretch of constant factors that time t falls
	// in: two times with equal Segment see equal link factors.
	Segment(t float64) int
}

// SetFaults attaches a fault injector whose link factors scale capacities
// during Run. Nil detaches. Must be set before Run.
func (n *Net) SetFaults(f FaultLookup) {
	n.faults = f
	n.seg = -1
}

// syncRates brings the effective-rate cache to the fault segment of time
// now and reports whether any link's effective rate moved. It re-reads
// LinkFactor only when the segment changes. NextChange is no guide here:
// its slack can step a run over a boundary.
func (n *Net) syncRates(now float64) bool {
	if n.faults == nil {
		return false
	}
	seg := n.faults.Segment(now)
	if len(n.eff) != len(n.links) {
		n.eff = make([]float64, len(n.links))
	} else if seg == n.seg {
		return false
	}
	n.seg = seg
	moved := false
	for li, l := range n.links {
		r := l.rate * n.faults.LinkFactor(l.name, now)
		if r != n.eff[li] {
			moved = true
		}
		n.eff[li] = r
	}
	return moved
}

// New returns an empty network.
func New() *Net { return &Net{} }

// AddLink registers a link with the given capacity (bytes/second).
func (n *Net) AddLink(name string, rate float64) (LinkID, error) {
	if rate <= 0 || math.IsNaN(rate) {
		return 0, fmt.Errorf("simnet: link %q has invalid rate %v", name, rate)
	}
	n.links = append(n.links, link{name: name, rate: rate})
	return LinkID(len(n.links) - 1), nil
}

// AddFlow registers a transfer of the given bytes along path, starting at
// time start (seconds). An empty path means the flow completes instantly at
// start (purely local transfer, e.g. an HBM cache hit).
func (n *Net) AddFlow(name string, path []LinkID, bytes, start float64) (FlowID, error) {
	if bytes < 0 || math.IsNaN(bytes) {
		return 0, fmt.Errorf("simnet: flow %q has invalid size %v", name, bytes)
	}
	if start < 0 || math.IsNaN(start) {
		return 0, fmt.Errorf("simnet: flow %q has invalid start %v", name, start)
	}
	for _, l := range path {
		if l < 0 || int(l) >= len(n.links) {
			return 0, fmt.Errorf("simnet: flow %q references unknown link %d", name, l)
		}
	}
	// After ClearFlows, the slot's old path buffer takes the new path.
	var buf []LinkID
	if len(n.flows) < cap(n.flows) {
		buf = n.flows[:len(n.flows)+1][len(n.flows)].path[:0]
	}
	n.flows = append(n.flows, flow{
		name:   name,
		path:   append(buf, path...),
		bytes:  bytes,
		start:  start,
		remain: bytes,
		done:   math.NaN(),
	})
	return FlowID(len(n.flows) - 1), nil
}

// maxMinRates computes progressive-filling fair rates for the active flows
// (flow indices) under the link capacities in effect: the cached effective
// rates under faults, the nominal rates without. Rates are written into
// n.flows[i].rate.
func (n *Net) maxMinRates(active []int) {
	if cap(n.residual) < len(n.links) {
		n.residual = make([]float64, len(n.links))
		n.countOn = make([]int, len(n.links))
	}
	if cap(n.frozen) < len(n.flows) {
		n.frozen = make([]bool, len(n.flows))
	}
	residual, countOn, frozen := n.residual[:len(n.links)], n.countOn[:len(n.links)], n.frozen[:len(n.flows)]
	if n.faults != nil {
		copy(residual, n.eff)
	} else {
		for li, l := range n.links {
			residual[li] = l.rate
		}
	}
	clear(countOn)
	for _, fi := range active {
		n.flows[fi].rate = 0
		frozen[fi] = false
	}
	remaining := 0
	for _, fi := range active {
		if len(n.flows[fi].path) == 0 {
			// Pathless flows are infinitely fast; handled by caller.
			frozen[fi] = true
			n.flows[fi].rate = math.Inf(1)
			continue
		}
		remaining++
		for _, l := range n.flows[fi].path {
			countOn[l]++
		}
	}
	for remaining > 0 {
		// Find the tightest link.
		bottleneck := -1
		share := math.Inf(1)
		for li := range n.links {
			if countOn[li] == 0 {
				continue
			}
			s := residual[li] / float64(countOn[li])
			if s < share {
				share = s
				bottleneck = li
			}
		}
		if bottleneck == -1 {
			// Remaining flows traverse only infinite links.
			for _, fi := range active {
				if !frozen[fi] {
					n.flows[fi].rate = math.Inf(1)
					frozen[fi] = true
					remaining--
				}
			}
			break
		}
		// Freeze every unfrozen flow crossing the bottleneck at the share.
		for _, fi := range active {
			if frozen[fi] {
				continue
			}
			crosses := false
			for _, l := range n.flows[fi].path {
				if l == LinkID(bottleneck) {
					crosses = true
					break
				}
			}
			if !crosses {
				continue
			}
			n.flows[fi].rate = share
			frozen[fi] = true
			remaining--
			for _, l := range n.flows[fi].path {
				residual[l] -= share
				countOn[l]--
				if residual[l] < 0 {
					residual[l] = 0
				}
			}
		}
	}
}

// Result reports a completed (or truncated, see RunUntil) simulation.
type Result struct {
	// Makespan is the time the last flow finishes — or, for a truncated
	// run with work left, the stop time.
	Makespan float64
	// FlowDone holds each flow's completion time (NaN if unfinished).
	FlowDone []float64
	// LinkBytes holds the total bytes carried per link.
	LinkBytes []float64
	// FlowRemain holds each flow's undelivered bytes (all zero when the
	// simulation ran to completion).
	FlowRemain []float64
	// RateSolves counts max-min fair-rate recomputations the event loop
	// performed; RateReuses counts events where the previous allocation was
	// provably still valid (active set unchanged and no link's effective
	// capacity moved — e.g. a fault boundary that only touched GPU factors)
	// and the solve was skipped.
	RateSolves int
	RateReuses int
}

// Run simulates to completion and returns per-flow completion times,
// makespan, and per-link carried bytes. Run may be called once per Net.
func (n *Net) Run() (*Result, error) { return n.runUntil(math.Inf(1)) }

// RunUntil simulates up to the given stop time and returns the partial
// state: flows still in flight (or never started) report their
// undelivered bytes in FlowRemain and a NaN completion time, and Makespan
// is the stop time when work remains. Used to freeze the fabric at a
// fault boundary so a degraded continuation can be re-planned. Like Run,
// it may be called once per Net.
func (n *Net) RunUntil(stop float64) (*Result, error) {
	if stop < 0 || math.IsNaN(stop) {
		return nil, fmt.Errorf("simnet: invalid stop time %v", stop)
	}
	return n.runUntil(stop)
}

func (n *Net) runUntil(stop float64) (*Result, error) {
	if n.ran {
		return nil, fmt.Errorf("simnet: Run called twice")
	}
	n.ran = true
	sp := n.obsrv.Begin("simnet.run")
	sp.SetInt("links", len(n.links))
	sp.SetInt("flows", len(n.flows))
	defer sp.End()
	linkBytes := make([]float64, len(n.links))

	// Event times: flow starts (sorted) and completions (computed).
	now := 0.0
	pending := make([]int, 0, len(n.flows)) // not yet started, sorted by start
	for i := range n.flows {
		if n.flows[i].bytes == 0 || len(n.flows[i].path) == 0 {
			// Zero-byte or pathless (purely local) flows complete
			// instantly at their start time.
			n.flows[i].done = n.flows[i].start
			n.flows[i].remain = 0
			continue
		}
		pending = append(pending, i)
	}
	sort.Slice(pending, func(a, b int) bool {
		return n.flows[pending[a]].start < n.flows[pending[b]].start
	})
	var active []int

	// Incremental flow-delta evaluation: the fair-rate allocation only
	// depends on the active set and the links' effective capacities. Both
	// are piecewise-constant between events, so an event that changes
	// neither — typically a fault boundary whose factors touch GPUs but no
	// link — reuses the previous allocation instead of re-running
	// progressive filling. (An error burst does move a link: its SSD's
	// egress carries the goodput factor.)
	rateSolves, rateReuses := 0, 0
	ratesValid := false

	for len(pending) > 0 || len(active) > 0 {
		if now >= stop-1e-12 {
			break
		}
		// Admit flows that have started.
		for len(pending) > 0 && n.flows[pending[0]].start <= now+1e-12 {
			fi := pending[0]
			pending = pending[1:]
			n.flows[fi].started = true
			active = append(active, fi)
			ratesValid = false
		}
		if len(active) == 0 {
			// Jump to the next start (or the stop time, if sooner).
			next := n.flows[pending[0]].start
			if next >= stop {
				now = stop
				break
			}
			now = next
			continue
		}
		if n.syncRates(now) {
			ratesValid = false
		}
		if ratesValid {
			rateReuses++
		} else {
			n.maxMinRates(active)
			ratesValid = true
			rateSolves++
		}
		// Next event: earliest completion among active, next start, next
		// fault boundary, or the stop time.
		nextEvent := math.Inf(1)
		for _, fi := range active {
			f := &n.flows[fi]
			if f.rate <= 0 {
				continue
			}
			t := f.remain / f.rate
			if t < nextEvent {
				nextEvent = t
			}
		}
		if len(pending) > 0 {
			if dt := n.flows[pending[0]].start - now; dt < nextEvent {
				nextEvent = dt
			}
		}
		if n.faults != nil {
			if dt := n.faults.NextChange(now) - now; dt < nextEvent {
				nextEvent = dt
			}
		}
		if dt := stop - now; dt < nextEvent {
			nextEvent = dt
		}
		if math.IsInf(nextEvent, 1) {
			return nil, fmt.Errorf("simnet: %d flows starved (zero rate) at t=%.3f", len(active), now)
		}
		if nextEvent < 0 {
			nextEvent = 0
		}
		// Advance time, draining remain and accounting link bytes.
		for _, fi := range active {
			f := &n.flows[fi]
			moved := f.rate * nextEvent
			if math.IsInf(moved, 1) || moved > f.remain {
				moved = f.remain
			}
			f.remain -= moved
			for _, l := range f.path {
				linkBytes[l] += moved
			}
		}
		now += nextEvent
		// Retire completed flows.
		out := active[:0]
		for _, fi := range active {
			f := &n.flows[fi]
			if f.remain <= 1e-6 {
				f.done = now
				f.remain = 0
				ratesValid = false
			} else {
				out = append(out, fi)
			}
		}
		active = out
	}

	res := &Result{
		Makespan:   0,
		FlowDone:   make([]float64, len(n.flows)),
		LinkBytes:  linkBytes,
		FlowRemain: make([]float64, len(n.flows)),
	}
	left := false
	for i := range n.flows {
		res.FlowDone[i] = n.flows[i].done
		res.FlowRemain[i] = n.flows[i].remain
		if n.flows[i].remain > 0 {
			left = true
		}
		if n.flows[i].done > res.Makespan {
			res.Makespan = n.flows[i].done
		}
	}
	if left && now > res.Makespan {
		// Truncated with work in flight: the run "ends" at the stop time.
		res.Makespan = now
	}
	res.RateSolves = rateSolves
	res.RateReuses = rateReuses
	if o := n.obsrv; o != nil {
		sp.SetFloat("makespan_seconds", res.Makespan)
		sp.SetInt("rate_solves", rateSolves)
		sp.SetInt("rate_reuses", rateReuses)
		o.Counter("sim_delta_rate_solves_total").Add(float64(rateSolves))
		o.Counter("sim_delta_rate_reuses_total").Add(float64(rateReuses))
		o.Gauge("simnet_makespan_seconds").Set(res.Makespan)
		for li, l := range n.links {
			capBytes := l.rate * res.Makespan
			util := 0.0
			if capBytes > 0 && !math.IsInf(capBytes, 1) {
				util = linkBytes[li] / capBytes
			}
			o.Gauge("simnet_link_utilization", obs.L("link", l.name)).Set(util)
		}
	}
	return res, nil
}

// ClearFlows drops every flow but keeps the links, observer, and fault
// injector, and re-arms the net so it can Run again. Repeated epoch
// simulations over the same fabric reuse one Net instead of rebuilding
// links from the topology each time.
func (n *Net) ClearFlows() {
	n.flows = n.flows[:0]
	n.ran = false
}

// LinkName returns the registered name of a link.
func (n *Net) LinkName(l LinkID) string { return n.links[l].name }

// NumLinks returns the number of links.
func (n *Net) NumLinks() int { return len(n.links) }

// NumFlows returns the number of flows.
func (n *Net) NumFlows() int { return len(n.flows) }

// InitialRates returns the max-min fair rate each flow would receive if
// every flow were active simultaneously (start times ignored). Used as a
// fairness probe: the relative rates are the equilibrium service shares of
// the network, without running a full simulation. Pathless flows report
// +Inf. The Net is left unmodified and can still be Run.
func (n *Net) InitialRates() []float64 {
	active := make([]int, 0, len(n.flows))
	for i := range n.flows {
		active = append(active, i)
	}
	saved := make([]float64, len(n.flows))
	for i := range n.flows {
		saved[i] = n.flows[i].rate
	}
	n.syncRates(0)
	n.maxMinRates(active)
	out := make([]float64, len(n.flows))
	for i := range n.flows {
		out[i] = n.flows[i].rate
		n.flows[i].rate = saved[i]
	}
	return out
}
