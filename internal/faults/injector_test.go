package faults

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestInjectorMatchesScan holds the step tables to the linear-scan oracle
// on seeded random schedules of up to 48 events.
func TestInjectorMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		data := make([]byte, 4*rng.Intn(49))
		rng.Read(data)
		checkInjectorAgainstScan(t, decodeSchedule(data))
		if t.Failed() {
			t.Fatalf("schedule %d: %s", i, Format(decodeSchedule(data)))
		}
	}
}

// checkInjectorAgainstScan queries the schedule at every boundary, one ulp
// either side of it and between boundaries, under several clock shifts.
// Every query must equal the oracle's bit for bit, Segment must count the
// boundaries at or before the query, and two times in one segment must see
// equal factors. A link resolved once by Link must read the oracle's
// LinkFactor through LinkFactorAt on every clock shift, and a link Link
// reports no event can move must read 1 throughout.
func checkInjectorAgainstScan(t *testing.T, s *Schedule) {
	t.Helper()
	in, err := NewInjector(s)
	if err != nil {
		t.Fatal(err)
	}
	ref := newScanInjector(s)
	var times []float64
	for i, b := range ref.bounds {
		times = append(times, b, math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1)))
		if i+1 < len(ref.bounds) {
			times = append(times, (b+ref.bounds[i+1])/2)
		}
	}
	times = append(times, 0, 1e9)
	links := []string{"up:sw0"}
	for k := 0; k <= 4; k++ {
		links = append(links, fmt.Sprintf("ssd%d", k), fmt.Sprintf("gpu%d:in", k))
	}
	refs := make([]LinkRef, len(links))
	moves := make([]bool, len(links))
	for k, name := range links {
		refs[k], moves[k] = in.Link(name)
	}
	same := func(what string, k int, got, want float64, tq, base float64) {
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s(%d) at t=%v base=%v: %v, scan %v", what, k, tq, base, got, want)
		}
	}
	for _, base := range []float64{0, 0.3, 2.75, -1.5} {
		inj, scan := in.WithBase(base), ref.withBase(base)
		seen := map[int][]float64{}
		for _, abs := range times {
			tq := abs - base
			var fs []float64
			for k := 0; k <= 4; k++ {
				if got, want := inj.SSDFailed(k, tq), scan.SSDFailed(k, tq); got != want {
					t.Errorf("SSDFailed(%d) at t=%v base=%v: %v, scan %v", k, tq, base, got, want)
				}
				for _, q := range []struct {
					name      string
					got, want float64
				}{
					{"SSDFactor", inj.SSDFactor(k, tq), scan.SSDFactor(k, tq)},
					{"ErrorProb", inj.ErrorProb(k, tq), scan.ErrorProb(k, tq)},
					{"GPUFactor", inj.GPUFactor(k, tq), scan.GPUFactor(k, tq)},
				} {
					same(q.name, k, q.got, q.want, tq, base)
					fs = append(fs, q.got)
				}
			}
			for k, name := range links {
				got, want := inj.LinkFactor(name, tq), scan.LinkFactor(name, tq)
				same("LinkFactor of link", k, got, want, tq, base)
				same("LinkFactorAt of link", k, inj.LinkFactorAt(refs[k], tq), want, tq, base)
				if !moves[k] && want != 1 {
					t.Errorf("link %s at t=%v base=%v: factor %v, but Link reported no event moves it", name, tq, base, want)
				}
				fs = append(fs, got)
			}
			same("NextChange", 0, inj.NextChange(tq), scan.NextChange(tq), tq, base)
			if got, want := inj.InjectedBy(tq), scan.InjectedBy(tq); got != want {
				t.Errorf("InjectedBy at t=%v base=%v: %d, scan %d", tq, base, got, want)
			}
			seg, at := inj.Segment(tq), base+tq
			want := 0
			for _, b := range ref.bounds {
				if b <= at {
					want++
				}
			}
			if seg != want {
				t.Errorf("Segment at t=%v base=%v: %d, want %d boundaries", tq, base, seg, want)
			}
			if prev, ok := seen[seg]; ok {
				for i := range fs {
					if math.Float64bits(fs[i]) != math.Float64bits(prev[i]) {
						t.Errorf("segment %d (t=%v base=%v): factor %d is %v, earlier %v", seg, tq, base, i, fs[i], prev[i])
						break
					}
				}
			} else {
				seen[seg] = fs
			}
		}
	}
	for k := 0; k <= 4; k++ {
		same("SSDFailTime", k, in.SSDFailTime(k), ref.SSDFailTime(k), 0, 0)
	}
}
