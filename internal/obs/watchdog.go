package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// The anomaly watchdog closes the forensics loop: EWMA/threshold rules
// evaluated over the metrics registry (shed rate, queue depth, epoch-time
// regression against a learned baseline) that, on trip, snapshot the
// flight recorder plus goroutine/heap profiles into a timestamped
// diagnostics bundle. By the time an operator looks, the
// evidence — the last few thousand flight events *spanning* the trigger —
// is already on disk.

// RuleKind selects how a Rule evaluates its metric series.
type RuleKind int

const (
	// RuleMax trips when the series' current value exceeds Max (gauges:
	// queue depth, inflight runs).
	RuleMax RuleKind = iota
	// RuleDeltaMax trips when the series grew by more than Max since the
	// previous Check (counters such as sheds — a per-interval rate).
	RuleDeltaMax
	// RuleRegress trips when the series exceeds Factor times its own EWMA
	// baseline after MinSamples observations (gauges with a learned normal:
	// epoch time). Tripping samples are excluded from the baseline so an
	// anomaly cannot normalize itself.
	RuleRegress
)

// Rule is one anomaly condition over the metrics registry. Series names a
// metric; labeled series sharing the name are summed, so a rule over
// "momentd_shed_total" covers every shed reason at once.
type Rule struct {
	Name       string   // rule identity, used in bundle names and trip events
	Series     string   // metric name to watch
	Kind       RuleKind // evaluation mode
	Max        float64  // RuleMax / RuleDeltaMax threshold
	Factor     float64  // RuleRegress multiple of baseline (e.g. 1.5)
	MinSamples int      // RuleRegress warmup before it can trip (default 3)
}

// Trip describes one watchdog firing.
type Trip struct {
	Rule     string  `json:"rule"`
	Series   string  `json:"series"`
	Value    float64 `json:"value"`
	Limit    float64 `json:"limit"`
	AtUnixMS int64   `json:"at_unix_ms"`
	Bundle   string  `json:"bundle,omitempty"` // bundle directory, if written
}

// Watchdog evaluates Rules over an Observer's registry, periodically
// (Start) or on demand (Check, which tests drive for determinism). At most
// one bundle is written per Check, and Cooldown suppresses further bundles
// after a trip, so a sustained storm yields one bundle, not hundreds.
// Configure the exported fields before Start/Check; they are read-only
// afterwards.
type Watchdog struct {
	Obs      *Observer
	Rules    []Rule
	Interval time.Duration // Start's check period (default 5s)
	Dir      string        // bundle directory ("" disables bundle writing)
	Cooldown time.Duration // min time between bundles (default 1m)
	OnTrip   func(Trip)    // optional notification hook

	mu       sync.Mutex
	prev     map[string]float64 // per-rule previous sum (RuleDeltaMax)
	ewma     map[string]float64 // per-rule baseline (RuleRegress)
	samples  map[string]int
	lastTrip time.Time
	trips    int

	stopOnce sync.Once
	stopc    chan struct{}
	done     chan struct{}
}

// seriesSum sums every series of the snapshot carrying the metric name —
// the bare series plus any labeled variants ("name{...}").
func seriesSum(snap map[string]float64, name string) float64 {
	v, sum := snap[name], 0.0
	sum += v
	prefix := name + "{"
	for k, sv := range snap {
		if strings.HasPrefix(k, prefix) {
			sum += sv
		}
	}
	return sum
}

// Check evaluates every rule against the registry once. The first rule that
// trips (outside the cooldown window) produces a diagnostics bundle and is
// returned; nil means no trip. Rule state (deltas, baselines) updates on
// every call regardless.
func (w *Watchdog) Check() (*Trip, error) {
	if w == nil || w.Obs == nil {
		return nil, nil
	}
	snap := w.Obs.Metrics().Snapshot()
	now := time.Now()

	w.mu.Lock()
	if w.prev == nil {
		w.prev, w.ewma, w.samples = map[string]float64{}, map[string]float64{}, map[string]int{}
	}
	var fired *Trip
	for _, r := range w.Rules {
		v := seriesSum(snap, r.Series)
		tripped, limit := false, r.Max
		switch r.Kind {
		case RuleMax:
			tripped = v > r.Max
		case RuleDeltaMax:
			delta := v - w.prev[r.Name]
			w.prev[r.Name] = v
			v, tripped = delta, delta > r.Max
		case RuleRegress:
			minSamples := r.MinSamples
			if minSamples <= 0 {
				minSamples = 3
			}
			if v <= 0 {
				continue // no sample yet
			}
			base, n := w.ewma[r.Name], w.samples[r.Name]
			limit = r.Factor * base
			if n >= minSamples && v > limit {
				tripped = true
			} else {
				if n == 0 {
					base = v
				} else {
					base = 0.7*base + 0.3*v
				}
				w.ewma[r.Name], w.samples[r.Name] = base, n+1
			}
		}
		if tripped && fired == nil {
			fired = &Trip{Rule: r.Name, Series: r.Series, Value: v, Limit: limit, AtUnixMS: now.UnixMilli()}
		}
	}
	if fired == nil {
		w.mu.Unlock()
		return nil, nil
	}
	cooldown := w.Cooldown
	if cooldown <= 0 {
		cooldown = time.Minute
	}
	inCooldown := !w.lastTrip.IsZero() && now.Sub(w.lastTrip) < cooldown
	if !inCooldown {
		w.lastTrip = now
		w.trips++
	}
	tripNo := w.trips
	w.mu.Unlock()

	w.Obs.Counter("watchdog_trips_total", L("rule", fired.Rule)).Inc()
	if inCooldown {
		return nil, nil
	}
	// Record the trip on the flight ring *before* dumping it, so the bundle
	// contains flight events spanning the trigger — the evidence leading up
	// to the anomaly plus the trip itself.
	w.Obs.Event(Event{Kind: EvWatchdog, Name: "trip", Subject: fired.Rule,
		Reason: fired.Series, V1: fired.Value, V2: fired.Limit})
	if w.Dir != "" {
		dir, err := w.writeBundle(tripNo, fired, now)
		if err != nil {
			return fired, err
		}
		fired.Bundle = dir
		w.Obs.Logf("watchdog: rule %s tripped (%s = %g > %g), bundle %s",
			fired.Rule, fired.Series, fired.Value, fired.Limit, dir)
	}
	if w.OnTrip != nil {
		w.OnTrip(*fired)
	}
	return fired, nil
}

// writeBundle snapshots the observer into a timestamped diagnostics
// directory: trip.json (what fired), flight.json (the ring), metrics.prom,
// goroutines.txt and heap.txt.
func (w *Watchdog) writeBundle(tripNo int, trip *Trip, now time.Time) (string, error) {
	stamp := now.UTC().Format("20060102T150405.000Z")
	dir := filepath.Join(w.Dir, fmt.Sprintf("bundle-%03d-%s-%s", tripNo, stamp, trip.Rule))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	write := func(name string, fn func(f *os.File) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write("trip.json", func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(trip)
	}); err != nil {
		return "", err
	}
	if err := write("flight.json", func(f *os.File) error {
		return w.Obs.Flight().WriteJSON(f)
	}); err != nil {
		return "", err
	}
	if err := write("metrics.prom", func(f *os.File) error {
		return w.Obs.WritePrometheus(f)
	}); err != nil {
		return "", err
	}
	if err := write("goroutines.txt", func(f *os.File) error {
		return pprof.Lookup("goroutine").WriteTo(f, 1)
	}); err != nil {
		return "", err
	}
	if err := write("heap.txt", func(f *os.File) error {
		return pprof.Lookup("heap").WriteTo(f, 1)
	}); err != nil {
		return "", err
	}
	return dir, nil
}

// Trips reports how many bundles (cooldown-admitted trips) have fired.
func (w *Watchdog) Trips() int {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.trips
}

// Start launches the periodic checker. Stop it with Stop.
func (w *Watchdog) Start() {
	if w == nil {
		return
	}
	interval := w.Interval
	if interval <= 0 {
		interval = 5 * time.Second
	}
	w.stopc = make(chan struct{})
	w.done = make(chan struct{})
	go func() {
		defer close(w.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if _, err := w.Check(); err != nil {
					w.Obs.Logf("watchdog: bundle write failed: %v", err)
				}
			case <-w.stopc:
				return
			}
		}
	}()
}

// Stop halts the periodic checker after one final Check, so anomalies that
// developed since the last tick — a shed storm racing a drain — still
// produce their bundle before the process exits. Idempotent; safe without
// a prior Start.
func (w *Watchdog) Stop() {
	if w == nil {
		return
	}
	w.stopOnce.Do(func() {
		if w.stopc != nil {
			close(w.stopc)
			<-w.done
		}
		if _, err := w.Check(); err != nil {
			w.Obs.Logf("watchdog: bundle write failed: %v", err)
		}
	})
}
