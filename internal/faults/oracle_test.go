package faults

import "math"

// scanInjector is the linear-scan injector the step tables replaced: every
// query walks the whole sorted schedule. It is the oracle FuzzInjector and
// TestInjectorMatchesScan hold the Injector to, bit for bit.
type scanInjector struct {
	events []Event // sorted by At
	bounds []float64
	base   float64
}

func newScanInjector(s *Schedule) *scanInjector {
	in := &scanInjector{}
	if s != nil {
		in.events = s.sorted()
	}
	seen := map[float64]bool{}
	for _, e := range in.events {
		if !seen[e.At] {
			seen[e.At] = true
			in.bounds = append(in.bounds, e.At)
		}
		if end := e.end(); !math.IsInf(end, 1) && !seen[end] {
			seen[end] = true
			in.bounds = append(in.bounds, end)
		}
	}
	for i := 1; i < len(in.bounds); i++ {
		for j := i; j > 0 && in.bounds[j] < in.bounds[j-1]; j-- {
			in.bounds[j], in.bounds[j-1] = in.bounds[j-1], in.bounds[j]
		}
	}
	return in
}

func (in *scanInjector) withBase(base float64) *scanInjector {
	cp := *in
	cp.base = in.base + base
	return &cp
}

func (in *scanInjector) abs(t float64) float64 { return in.base + t }

func (in *scanInjector) SSDFailed(ssd int, t float64) bool {
	at := in.abs(t)
	for _, e := range in.events {
		if e.Kind == FailStop && e.SSD == ssd && at >= e.At {
			return true
		}
	}
	return false
}

func (in *scanInjector) SSDFailTime(ssd int) float64 {
	for _, e := range in.events {
		if e.Kind == FailStop && e.SSD == ssd {
			return e.At
		}
	}
	return math.Inf(1)
}

func (in *scanInjector) SSDFactor(ssd int, t float64) float64 {
	at := in.abs(t)
	f := 1.0
	for _, e := range in.events {
		if e.SSD != ssd {
			continue
		}
		switch e.Kind {
		case FailStop:
			if at >= e.At {
				return 0
			}
		case Throttle:
			if e.activeAt(at) {
				f *= e.Factor
			}
		}
	}
	return f
}

func (in *scanInjector) ErrorProb(ssd int, t float64) float64 {
	at := in.abs(t)
	ok := 1.0
	for _, e := range in.events {
		if e.Kind == ErrorBurst && e.SSD == ssd && e.activeAt(at) {
			ok *= 1 - e.Prob
		}
	}
	return 1 - ok
}

func (in *scanInjector) GPUFactor(gpu int, t float64) float64 {
	at := in.abs(t)
	f := 1.0
	for _, e := range in.events {
		if e.Kind == Straggler && e.GPU == gpu && e.activeAt(at) {
			f *= e.Factor
		}
	}
	return f
}

func (in *scanInjector) LinkFactor(name string, t float64) float64 {
	f := 1.0
	at := in.abs(t)
	for _, e := range in.events {
		if e.Kind == LinkDowntrain && e.Link == name && e.activeAt(at) {
			f *= e.Factor
		}
	}
	if ssd, ok := ssdLinkIndex(name); ok {
		f *= in.SSDFactor(ssd, t) * GoodputFactor(in.ErrorProb(ssd, t))
	}
	return f
}

func (in *scanInjector) NextChange(t float64) float64 {
	at := in.abs(t)
	for _, b := range in.bounds {
		if b > at+1e-12 {
			return b - in.base
		}
	}
	return math.Inf(1)
}

func (in *scanInjector) InjectedBy(t float64) int {
	at := in.abs(t)
	n := 0
	for _, e := range in.events {
		if e.At <= at {
			n++
		}
	}
	return n
}
