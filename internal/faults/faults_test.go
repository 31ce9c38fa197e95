package faults

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

func mustInjector(t *testing.T, s *Schedule) *Injector {
	t.Helper()
	in, err := NewInjector(s)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestNilInjectorIsPerfectMachine(t *testing.T) {
	var in *Injector
	if f := in.SSDFactor(0, 5); f != 1 {
		t.Errorf("nil SSDFactor = %v, want 1", f)
	}
	if f := in.LinkFactor("ssd0", 5); f != 1 {
		t.Errorf("nil LinkFactor = %v, want 1", f)
	}
	if ref, ok := in.Link("ssd0"); ok || in.LinkFactorAt(ref, 5) != 1 {
		t.Errorf("nil Link = %v, LinkFactorAt = %v, want false and 1", ok, in.LinkFactorAt(ref, 5))
	}
	if f := in.GPUFactor(0, 5); f != 1 {
		t.Errorf("nil GPUFactor = %v, want 1", f)
	}
	if p := in.ErrorProb(0, 5); p != 0 {
		t.Errorf("nil ErrorProb = %v, want 0", p)
	}
	if n := in.NextChange(0); !math.IsInf(n, 1) {
		t.Errorf("nil NextChange = %v, want +Inf", n)
	}
	if in.Bernoulli(1, 2, 0.5) {
		t.Error("nil Bernoulli must be false")
	}
}

func TestFactorsPiecewise(t *testing.T) {
	s := &Schedule{Events: []Event{
		ThrottleSSD(1, 10, 0.5, 20),
		Kill(2, 30),
		Straggle(0, 5, 0.8, 0),
		Downtrain("gpu0:in", 15, 0.25, 10),
		Burst(1, 12, 0.1, 4),
	}}
	in := mustInjector(t, s)

	if f := in.SSDFactor(1, 9.9); f != 1 {
		t.Errorf("before throttle: %v", f)
	}
	if f := in.SSDFactor(1, 10); f != 0.5 {
		t.Errorf("during throttle: %v", f)
	}
	if f := in.SSDFactor(1, 30); f != 1 {
		t.Errorf("after throttle: %v", f)
	}
	if !in.SSDFailed(2, 30) || in.SSDFailed(2, 29.9) {
		t.Error("fail-stop boundary wrong")
	}
	if f := in.SSDFactor(2, 31); f != 0 {
		t.Errorf("failed SSD factor = %v, want 0", f)
	}
	if ft := in.SSDFailTime(2); ft != 30 {
		t.Errorf("SSDFailTime = %v", ft)
	}
	if ft := in.SSDFailTime(0); !math.IsInf(ft, 1) {
		t.Errorf("healthy SSDFailTime = %v", ft)
	}
	if f := in.GPUFactor(0, 6); f != 0.8 {
		t.Errorf("straggler factor = %v", f)
	}
	if f := in.GPUFactor(0, 1e9); f != 0.8 {
		t.Error("permanent straggler should not expire")
	}
	if f := in.LinkFactor("gpu0:in", 16); f != 0.25 {
		t.Errorf("downtrain factor = %v", f)
	}
	if f := in.LinkFactor("gpu0:in", 26); f != 1 {
		t.Errorf("downtrain should expire: %v", f)
	}
	// SSD egress link sees throttle x goodput.
	want := 0.5 * (1 - 0.1)
	if f := in.LinkFactor("ssd1", 13); math.Abs(f-want) > 1e-12 {
		t.Errorf("ssd1 link factor = %v, want %v", f, want)
	}
	if p := in.ErrorProb(1, 13); math.Abs(p-0.1) > 1e-12 {
		t.Errorf("error prob = %v", p)
	}
}

func TestNextChangeWalksBoundaries(t *testing.T) {
	s := &Schedule{Events: []Event{
		ThrottleSSD(0, 10, 0.5, 20), // bounds 10, 30
		Kill(1, 25),                 // bound 25
	}}
	in := mustInjector(t, s)
	var got []float64
	t0 := 0.0
	for {
		nxt := in.NextChange(t0)
		if math.IsInf(nxt, 1) {
			break
		}
		got = append(got, nxt)
		t0 = nxt
	}
	want := []float64{10, 25, 30}
	if len(got) != len(want) {
		t.Fatalf("boundaries %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("boundaries %v, want %v", got, want)
		}
	}
}

func TestWithBaseShiftsClock(t *testing.T) {
	s := &Schedule{Events: []Event{ThrottleSSD(0, 10, 0.5, 0)}}
	in := mustInjector(t, s)
	shifted := in.WithBase(8)
	if f := shifted.SSDFactor(0, 1); f != 1 {
		t.Errorf("shifted t=1 (abs 9) = %v, want 1", f)
	}
	if f := shifted.SSDFactor(0, 2); f != 0.5 {
		t.Errorf("shifted t=2 (abs 10) = %v, want 0.5", f)
	}
	if n := shifted.NextChange(0); n != 2 {
		t.Errorf("shifted NextChange = %v, want 2", n)
	}
	// Stacking shifts composes.
	twice := shifted.WithBase(1)
	if f := twice.SSDFactor(0, 1); f != 0.5 {
		t.Errorf("double-shifted factor = %v", f)
	}
}

func TestBernoulliDeterministicAndCalibrated(t *testing.T) {
	inA := mustInjector(t, &Schedule{Seed: 42})
	inB := mustInjector(t, &Schedule{Seed: 42})
	inC := mustInjector(t, &Schedule{Seed: 43})
	const n = 20000
	hits, diff := 0, 0
	for i := uint64(0); i < n; i++ {
		a := inA.Bernoulli(3, i, 0.1)
		if a != inB.Bernoulli(3, i, 0.1) {
			t.Fatal("same seed must reproduce identical coins")
		}
		if a != inC.Bernoulli(3, i, 0.1) {
			diff++
		}
		if a {
			hits++
		}
	}
	if rate := float64(hits) / n; math.Abs(rate-0.1) > 0.01 {
		t.Errorf("empirical rate %v, want ~0.1", rate)
	}
	if diff == 0 {
		t.Error("different seeds should produce different coin sequences")
	}
}

func TestValidateRejectsBadEvents(t *testing.T) {
	bad := []Event{
		{Kind: Throttle, SSD: 0, At: 1, Factor: 1.5},
		{Kind: Throttle, SSD: 0, At: 1, Factor: 0},
		{Kind: FailStop, SSD: -1, At: 1},
		{Kind: ErrorBurst, SSD: 0, At: 1, Prob: 0},
		{Kind: LinkDowntrain, At: 1, Factor: 0.5},
		{Kind: Straggler, GPU: -1, At: 1, Factor: 0.5},
		{Kind: Throttle, SSD: 0, At: -1, Factor: 0.5},
		{Kind: Throttle, SSD: 0, At: math.NaN(), Factor: 0.5},
		{Kind: Throttle, SSD: 0, At: math.Inf(1), Factor: 0.5},
		{Kind: FailStop, SSD: 0, At: 1, Duration: 3},
	}
	for i, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("event %d (%+v) should not validate", i, e)
		}
	}
}

func TestCheckTargets(t *testing.T) {
	links := []string{"ssd0", "gpu0:in", "up:sw0"}
	in := mustInjector(t, &Schedule{Events: []Event{Kill(5, 1)}})
	if err := in.CheckTargets(4, 4, links); err == nil {
		t.Error("ssd5 on a 4-SSD machine should fail")
	}
	if err := in.CheckTargets(8, 4, links); err != nil {
		t.Errorf("ssd5 on an 8-SSD machine: %v", err)
	}
	in = mustInjector(t, &Schedule{Events: []Event{Straggle(4, 1, 0.5, 0)}})
	if err := in.CheckTargets(8, 4, links); err == nil {
		t.Error("gpu4 on a 4-GPU machine should fail")
	}
	in = mustInjector(t, &Schedule{Events: []Event{Downtrain("gpu0:in", 1, 0.5, 0), Downtrain("up:sw0", 2, 0.5, 1)}})
	if err := in.CheckTargets(8, 4, links); err != nil {
		t.Errorf("downtrains on fabric links: %v", err)
	}
	for _, bad := range []string{"gpu0in", "up:sw9"} {
		in = mustInjector(t, &Schedule{Events: []Event{Downtrain("gpu0:in", 1, 0.5, 0), Downtrain(bad, 1, 0.1, 0)}})
		if err := in.CheckTargets(8, 4, links); err == nil || !strings.Contains(err.Error(), strconv.Quote(bad)) {
			t.Errorf("downtrain on missing link %q: error %v, want one naming it", bad, err)
		}
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	spec := "seed=7;kill:ssd2@30;throttle:ssd1@10x0.5+20;downtrain:gpu0:in@5x0.25;straggle:gpu3@0x0.8;errburst:ssd0@2p0.01+1"
	s, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 7 || len(s.Events) != 5 {
		t.Fatalf("parsed %+v", s)
	}
	if e := s.Events[0]; e.Kind != FailStop || e.SSD != 2 || e.At != 30 {
		t.Errorf("kill event %+v", e)
	}
	if e := s.Events[1]; e.Kind != Throttle || e.Factor != 0.5 || e.Duration != 20 {
		t.Errorf("throttle event %+v", e)
	}
	if e := s.Events[2]; e.Kind != LinkDowntrain || e.Link != "gpu0:in" || e.Factor != 0.25 {
		t.Errorf("downtrain event %+v", e)
	}
	if e := s.Events[4]; e.Kind != ErrorBurst || e.Prob != 0.01 || e.Duration != 1 {
		t.Errorf("errburst event %+v", e)
	}
	if got := Format(s); got != spec {
		t.Errorf("Format round trip:\n got %q\nwant %q", got, spec)
	}
	// Re-parsing the formatted form is identical.
	s2, err := Parse(Format(s))
	if err != nil {
		t.Fatal(err)
	}
	if Format(s2) != spec {
		t.Error("second round trip drifted")
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"boom:ssd0@1",
		"kill:ssd0",
		"kill:hdd0@1",
		"throttle:ssd0@1x2",
		"kill:ssd0@x",
		"seed=abc",
		"straggle:gpu@1x0.5",
		"errburst:ssd0@1p0.5x2junk",
		"kill:ssd0@5+3",
		"kill:ssd0@5x0.5",
		"kill:ssd0@5p0.1",
		"kill:ssd0@inf",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) should fail", spec)
		}
	}
	// Empty and whitespace specs are valid empty schedules.
	s, err := Parse(" ; ")
	if err != nil || !s.Empty() {
		t.Errorf("blank spec: %v %+v", err, s)
	}
}

func TestRetryPolicy(t *testing.T) {
	p := RetryPolicy{}.Defaults()
	if p.MaxRetries != 4 || p.BaseBackoff != 100e-6 || p.Timeout != 1 {
		t.Fatalf("defaults %+v", p)
	}
	if b := p.Backoff(2); math.Abs(b-400e-6) > 1e-12 {
		t.Errorf("Backoff(2) = %v", b)
	}
	want := (1 + 2 + 4 + 8) * 100e-6
	if tot := p.BackoffTotal(); math.Abs(tot-want) > 1e-12 {
		t.Errorf("BackoffTotal = %v, want %v", tot, want)
	}
	if g := GoodputFactor(0.25); g != 0.75 {
		t.Errorf("GoodputFactor = %v", g)
	}
	if g := GoodputFactor(0); g != 1 {
		t.Errorf("GoodputFactor(0) = %v", g)
	}
}
