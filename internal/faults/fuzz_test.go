package faults

import (
	"fmt"
	"reflect"
	"testing"
)

// FuzzParseFaults holds the spec grammar to three properties: Parse never
// panics, Parse(Format(s)) is s, and Format is a fixpoint. momentd reads
// this grammar off the wire, and request coalescing keys on Format.
func FuzzParseFaults(f *testing.F) {
	for _, spec := range []string{
		"seed=7;kill:ssd2@30;throttle:ssd1@10x0.5+20;downtrain:gpu0:in@5x0.25;straggle:gpu3@0x0.8;errburst:ssd0@2p0.01+1",
		"kill:ssd0@0",
		"throttle:ssd1@1e+06x0.5+20",
		"downtrain:up:sw1@1.5e-3x0.125+2.5e+03",
		" ; seed=-3 ; ",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := Parse(spec)
		if err != nil {
			return
		}
		text := Format(s)
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) formats as %q, which does not parse: %v", spec, text, err)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("Parse(%q) = %+v, but Parse(Format) = %+v", spec, s, again)
		}
		if got := Format(again); got != text {
			t.Fatalf("Format is not a fixpoint: %q then %q", text, got)
		}
	})
}

// FuzzInjector holds the step-table Injector to the linear-scan oracle bit
// for bit. Every four input bytes make one event: all five kinds, targets
// 0–3, start times on a coarse grid (so starts repeat and events overlap),
// permanent and timed events, kills, and downtrains on SSD egress links as
// well as GPU slots.
func FuzzInjector(f *testing.F) {
	f.Add([]byte{0, 1, 8, 0})
	f.Add([]byte{1, 0, 4, 0x35, 1, 0, 4, 0x72, 4, 0, 6, 0x21, 0, 0, 5, 0})
	f.Add([]byte{2, 2, 0, 0x44, 2, 2, 3, 0x45, 3, 1, 3, 0x10, 3, 1, 3, 0x9f, 4, 3, 9, 0xf0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkInjectorAgainstScan(t, decodeSchedule(data))
	})
}

// decodeSchedule turns fuzz bytes into a valid schedule, four bytes an
// event, at most 48 events (the oracle is quadratic in them).
func decodeSchedule(data []byte) *Schedule {
	s := &Schedule{Seed: int64(len(data))}
	for ; len(data) >= 4 && len(s.Events) < 48; data = data[4:] {
		kind, target, at, v := Kind(data[0]%5), int(data[1]%4), data[2], data[3]
		start := float64(at%32) * 0.25
		if at >= 128 {
			start = float64(at) * 0.1 // not exactly representable
		}
		factor := (float64(v&0x0f) + 1) / 17
		dur := float64(v>>4) * 0.5 // 0: permanent
		switch kind {
		case FailStop:
			s.Events = append(s.Events, Kill(target, start))
		case Throttle:
			s.Events = append(s.Events, ThrottleSSD(target, start, factor, dur))
		case LinkDowntrain:
			link := fmt.Sprintf("gpu%d:in", target)
			if at&1 == 1 {
				link = fmt.Sprintf("ssd%d", target)
			}
			s.Events = append(s.Events, Downtrain(link, start, factor, dur))
		case Straggler:
			s.Events = append(s.Events, Straggle(target, start, factor, dur))
		case ErrorBurst:
			s.Events = append(s.Events, Burst(target, start, factor, dur))
		}
	}
	return s
}
