// Package faults is the deterministic, seedable fault-injection subsystem
// for Moment's simulated I/O stack. Real multi-GPU storage servers lose
// SSDs, thermally throttle, downtrain PCIe links and develop straggler
// GPUs; the planner's max-flow prediction is only trustworthy if the
// runtime degrades gracefully when the machine stops matching the model.
// This package provides the shared vocabulary for those experiments:
//
//   - Schedule: a timed list of fault events (fail-stop, bandwidth
//     degradation, link downtraining, GPU slowdown, transient-error
//     bursts), fully determined by its literal contents plus a seed;
//   - Injector: the query interface the simulators consume — piecewise-
//     constant capacity factors per device/link/GPU, per-request error
//     probabilities, and the next time any factor changes (so event loops
//     can segment time exactly at fault boundaries);
//   - RetryPolicy: the retry/backoff/timeout semantics the I/O stack
//     applies to transient errors and dead devices;
//   - a spec grammar (Parse/Format) so whole degradation experiments can
//     be described on a command line.
//
// Determinism guarantee: every Injector query is a pure function of the
// schedule and its arguments. Per-request error coins are drawn from a
// counter-based hash of (seed, stream, trial) — no global RNG, no
// iteration-order dependence — so the same seed reproduces the same run
// byte for byte.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Kind classifies a fault event.
type Kind int

const (
	// FailStop kills an SSD permanently at Event.At (device drained and
	// excluded; its data must be re-routed to survivors).
	FailStop Kind = iota
	// Throttle degrades an SSD's service rate to Factor of spec (thermal
	// throttling, background GC) for Duration seconds (0 = permanent).
	Throttle
	// LinkDowntrain degrades a named fabric link to Factor of its trained
	// width (e.g. x16→x4 is Factor 0.25) for Duration seconds.
	LinkDowntrain
	// Straggler slows a GPU's compute to Factor of spec for Duration
	// seconds (0 = permanent).
	Straggler
	// ErrorBurst makes each request on an SSD fail independently with
	// probability Prob for Duration seconds; failed requests are retried
	// under the RetryPolicy.
	ErrorBurst
)

// String names the kind (also the spec-grammar verb).
func (k Kind) String() string {
	switch k {
	case FailStop:
		return "kill"
	case Throttle:
		return "throttle"
	case LinkDowntrain:
		return "downtrain"
	case Straggler:
		return "straggle"
	case ErrorBurst:
		return "errburst"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one timed fault.
type Event struct {
	Kind Kind
	// At is the event start time in seconds from the start of the run.
	At float64
	// Duration bounds transient events; 0 means "until the end of the
	// run". FailStop is always permanent regardless of Duration.
	Duration float64
	// SSD is the target device index for FailStop/Throttle/ErrorBurst
	// (-1 when the kind targets something else).
	SSD int
	// GPU is the target for Straggler (-1 otherwise).
	GPU int
	// Link is the target simnet link name for LinkDowntrain (the fabric
	// registers SSD egress as "ssdN", GPU slot ingress as "gpuN:in",
	// switch uplinks as "up:swN"/"down:swN").
	Link string
	// Factor is the remaining-throughput multiplier in (0,1) for
	// Throttle/LinkDowntrain/Straggler.
	Factor float64
	// Prob is the per-request error probability in (0,1) for ErrorBurst.
	Prob float64
}

// end returns the absolute end time of the event's effect.
func (e Event) end() float64 {
	if e.Kind == FailStop || e.Duration <= 0 {
		return math.Inf(1)
	}
	return e.At + e.Duration
}

// activeAt reports whether the event's effect covers time t.
func (e Event) activeAt(t float64) bool {
	return t >= e.At && t < e.end()
}

// Validate checks one event's fields.
func (e Event) Validate() error {
	if math.IsNaN(e.At) || math.IsInf(e.At, 0) || e.At < 0 {
		return fmt.Errorf("faults: %s event at invalid time %v", e.Kind, e.At)
	}
	if math.IsNaN(e.Duration) || e.Duration < 0 {
		return fmt.Errorf("faults: %s event has invalid duration %v", e.Kind, e.Duration)
	}
	switch e.Kind {
	case FailStop:
		if e.SSD < 0 {
			return fmt.Errorf("faults: kill event targets no SSD")
		}
		// A fail-stop is permanent: a duration, factor or probability on
		// it would be dropped by Format, silently turning an outage into
		// a permanent loss.
		if e.Duration != 0 || e.Factor != 0 || e.Prob != 0 {
			return fmt.Errorf("faults: kill event takes no duration, factor or probability")
		}
	case Throttle:
		if e.SSD < 0 {
			return fmt.Errorf("faults: throttle event targets no SSD")
		}
		if !(e.Factor > 0 && e.Factor < 1) {
			return fmt.Errorf("faults: throttle factor %v out of (0,1)", e.Factor)
		}
	case LinkDowntrain:
		if e.Link == "" {
			return fmt.Errorf("faults: downtrain event names no link")
		}
		if !(e.Factor > 0 && e.Factor < 1) {
			return fmt.Errorf("faults: downtrain factor %v out of (0,1)", e.Factor)
		}
	case Straggler:
		if e.GPU < 0 {
			return fmt.Errorf("faults: straggle event targets no GPU")
		}
		if !(e.Factor > 0 && e.Factor < 1) {
			return fmt.Errorf("faults: straggle factor %v out of (0,1)", e.Factor)
		}
	case ErrorBurst:
		if e.SSD < 0 {
			return fmt.Errorf("faults: errburst event targets no SSD")
		}
		if !(e.Prob > 0 && e.Prob < 1) {
			return fmt.Errorf("faults: errburst probability %v out of (0,1)", e.Prob)
		}
	default:
		return fmt.Errorf("faults: unknown event kind %d", int(e.Kind))
	}
	return nil
}

// Schedule is a seeded, time-ordered fault plan. The zero value (and nil)
// is a valid empty schedule: a perfect machine.
type Schedule struct {
	// Seed feeds the per-request error coins (and nothing else — event
	// times and targets are literal).
	Seed int64
	// Events need not be sorted; consumers order by At.
	Events []Event
}

// Validate checks every event.
func (s *Schedule) Validate() error {
	if s == nil {
		return nil
	}
	for i, e := range s.Events {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("%w (event %d)", err, i)
		}
	}
	return nil
}

// Empty reports whether the schedule injects nothing.
func (s *Schedule) Empty() bool { return s == nil || len(s.Events) == 0 }

// sorted returns the events ordered by start time (stable, input intact).
func (s *Schedule) sorted() []Event {
	out := append([]Event(nil), s.Events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Kill builds a fail-stop event.
func Kill(ssd int, at float64) Event {
	return Event{Kind: FailStop, SSD: ssd, GPU: -1, At: at}
}

// ThrottleSSD builds a bandwidth-degradation event (dur 0 = permanent).
func ThrottleSSD(ssd int, at, factor, dur float64) Event {
	return Event{Kind: Throttle, SSD: ssd, GPU: -1, At: at, Factor: factor, Duration: dur}
}

// Downtrain builds a link-degradation event (dur 0 = permanent).
func Downtrain(link string, at, factor, dur float64) Event {
	return Event{Kind: LinkDowntrain, SSD: -1, GPU: -1, Link: link, At: at, Factor: factor, Duration: dur}
}

// Straggle builds a GPU-slowdown event (dur 0 = permanent).
func Straggle(gpu int, at, factor, dur float64) Event {
	return Event{Kind: Straggler, SSD: -1, GPU: gpu, At: at, Factor: factor, Duration: dur}
}

// Burst builds a transient-error burst event.
func Burst(ssd int, at, prob, dur float64) Event {
	return Event{Kind: ErrorBurst, SSD: ssd, GPU: -1, At: at, Prob: prob, Duration: dur}
}

// RetryPolicy is the I/O stack's reaction to transient errors and dead
// devices: failed requests are retried with exponential backoff up to
// MaxRetries times; a request (or a whole device) that stays unresponsive
// for Timeout is declared dead and drained.
type RetryPolicy struct {
	// MaxRetries is the retry budget per request beyond the first attempt
	// (default 4).
	MaxRetries int
	// BaseBackoff is the delay before the first retry, doubling per
	// subsequent retry (default 100µs).
	BaseBackoff float64
	// Timeout is the per-request (and fail-stop detection) timeout in
	// seconds (default 1s).
	Timeout float64
}

// Defaults fills zero fields with the documented defaults.
func (p RetryPolicy) Defaults() RetryPolicy {
	if p.MaxRetries == 0 {
		p.MaxRetries = 4
	}
	if p.BaseBackoff == 0 {
		p.BaseBackoff = 100e-6
	}
	if p.Timeout == 0 {
		p.Timeout = 1
	}
	return p
}

// Backoff returns the delay before the given retry (0-indexed:
// Backoff(0) = BaseBackoff, doubling after).
func (p RetryPolicy) Backoff(retry int) float64 {
	return p.BaseBackoff * math.Pow(2, float64(retry))
}

// BackoffTotal sums the backoff delays across the whole retry budget —
// the worst-case stall one request can accumulate before being declared
// failed.
func (p RetryPolicy) BackoffTotal() float64 {
	total := 0.0
	for i := 0; i < p.MaxRetries; i++ {
		total += p.Backoff(i)
	}
	return total
}

// GoodputFactor is the fluid-model throughput multiplier under a
// per-request error probability: each attempt succeeds with probability
// 1-prob, so sustained goodput scales by 1-prob (retries occupy the
// device just like first attempts).
func GoodputFactor(prob float64) float64 {
	if prob <= 0 {
		return 1
	}
	if prob >= 1 {
		return 0
	}
	return 1 - prob
}

// Format renders a schedule in the spec grammar accepted by Parse.
func Format(s *Schedule) string {
	if s == nil {
		return ""
	}
	var parts []string
	if s.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", s.Seed))
	}
	for _, e := range s.Events {
		var b strings.Builder
		fmt.Fprintf(&b, "%s:", e.Kind)
		switch e.Kind {
		case LinkDowntrain:
			b.WriteString(e.Link)
		case Straggler:
			fmt.Fprintf(&b, "gpu%d", e.GPU)
		default:
			fmt.Fprintf(&b, "ssd%d", e.SSD)
		}
		fmt.Fprintf(&b, "@%g", e.At)
		switch e.Kind {
		case Throttle, LinkDowntrain, Straggler:
			fmt.Fprintf(&b, "x%g", e.Factor)
		case ErrorBurst:
			fmt.Fprintf(&b, "p%g", e.Prob)
		}
		if e.Duration > 0 && e.Kind != FailStop {
			fmt.Fprintf(&b, "+%g", e.Duration)
		}
		parts = append(parts, b.String())
	}
	return strings.Join(parts, ";")
}
