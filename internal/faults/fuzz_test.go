package faults

import (
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
