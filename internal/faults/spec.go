package faults

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse decodes the command-line fault-spec grammar into a Schedule.
// Clauses are semicolon-separated:
//
//	seed=42                     error-coin seed (default 0)
//	kill:ssd2@30                SSD 2 fail-stops at t=30s
//	throttle:ssd1@10x0.5+20     SSD 1 at 50% for 20s starting t=10s
//	downtrain:gpu0:in@5x0.25    link "gpu0:in" at x4 width from t=5s
//	straggle:gpu3@0x0.8         GPU 3 at 80% compute from t=0
//	errburst:ssd0@2p0.01+1      1% request errors on SSD 0 for 1s at t=2s
//
// The general clause shape is kind:target@start[x factor|p prob][+duration];
// omitting +duration makes the event permanent. Format is the inverse.
func Parse(spec string) (*Schedule, error) {
	s := &Schedule{}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(clause, "seed="); ok {
			seed, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q: %v", rest, err)
			}
			s.Seed = seed
			continue
		}
		ev, err := parseEvent(clause)
		if err != nil {
			return nil, err
		}
		s.Events = append(s.Events, ev)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func parseEvent(clause string) (Event, error) {
	verb, rest, ok := strings.Cut(clause, ":")
	if !ok {
		return Event{}, fmt.Errorf("faults: clause %q has no kind (want kind:target@time...)", clause)
	}
	var kind Kind
	switch verb {
	case "kill":
		kind = FailStop
	case "throttle":
		kind = Throttle
	case "downtrain":
		kind = LinkDowntrain
	case "straggle":
		kind = Straggler
	case "errburst":
		kind = ErrorBurst
	default:
		return Event{}, fmt.Errorf("faults: unknown event kind %q in %q", verb, clause)
	}
	// The target may itself contain ':' (link names like "gpu0:in"), so
	// split on the last '@'.
	at := strings.LastIndex(rest, "@")
	if at < 0 {
		return Event{}, fmt.Errorf("faults: clause %q has no @time", clause)
	}
	target, timing := rest[:at], rest[at+1:]
	if target == "" {
		return Event{}, fmt.Errorf("faults: clause %q has an empty target", clause)
	}
	ev := Event{Kind: kind, SSD: -1, GPU: -1}
	switch kind {
	case LinkDowntrain:
		ev.Link = target
	case Straggler:
		g, err := indexedTarget(target, "gpu")
		if err != nil {
			return Event{}, fmt.Errorf("faults: %v in %q", err, clause)
		}
		ev.GPU = g
	default:
		d, err := indexedTarget(target, "ssd")
		if err != nil {
			return Event{}, fmt.Errorf("faults: %v in %q", err, clause)
		}
		ev.SSD = d
	}
	// timing: start[x factor|p prob][+duration]
	if plus := durationSep(timing); plus >= 0 {
		dur, err := strconv.ParseFloat(timing[plus+1:], 64)
		if err != nil {
			return Event{}, fmt.Errorf("faults: bad duration in %q: %v", clause, err)
		}
		ev.Duration = dur
		timing = timing[:plus]
	}
	numEnd := len(timing)
	if x := strings.IndexAny(timing, "xp"); x >= 0 {
		val, err := strconv.ParseFloat(timing[x+1:], 64)
		if err != nil {
			return Event{}, fmt.Errorf("faults: bad %c value in %q: %v", timing[x], clause, err)
		}
		if timing[x] == 'x' {
			ev.Factor = val
		} else {
			ev.Prob = val
		}
		numEnd = x
	}
	start, err := strconv.ParseFloat(timing[:numEnd], 64)
	if err != nil {
		return Event{}, fmt.Errorf("faults: bad start time in %q: %v", clause, err)
	}
	ev.At = start
	return ev, nil
}

// durationSep returns the index of the '+' that starts a clause's
// duration, or -1: the first '+' that is not an exponent's sign (Format
// writes a start time of a million seconds as 1e+06).
func durationSep(timing string) int {
	for i := 0; i < len(timing); i++ {
		if timing[i] == '+' && (i == 0 || timing[i-1] != 'e' && timing[i-1] != 'E') {
			return i
		}
	}
	return -1
}

// indexedTarget parses "ssd3" / "gpu0" style targets.
func indexedTarget(target, prefix string) (int, error) {
	rest, ok := strings.CutPrefix(target, prefix)
	if !ok {
		return 0, fmt.Errorf("target %q must start with %q", target, prefix)
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("target %q has no valid index", target)
	}
	return n, nil
}
