package placement

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"moment/internal/obs"
	"moment/internal/scorecache"
	"moment/internal/topology"
)

// waitGoroutines polls until the goroutine count settles back to at most
// want, failing the test if it never does (a leaked pipeline stage).
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= want {
			return
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines did not settle: %d running, want <= %d", runtime.NumGoroutine(), want)
}

func TestSearchCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Search(topology.MachineB(), demand(4), Options{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSearchCancelMidStream cancels the context from inside a candidate
// evaluation: the search must abort promptly, return the context's error,
// leak no worker goroutines, and leave nothing poisoned in a shared score
// cache (a later uncanceled search over the same cache must match a
// cache-free reference exactly). "serial" runs one scoring worker,
// "stream" the default GOMAXPROCS workers.
func TestSearchCancelMidStream(t *testing.T) {
	for mode, parallelism := range map[string]int{"stream": 0, "serial": 1} {
		t.Run(mode, func(t *testing.T) {
			m := topology.MachineB()
			d := demand(4)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var evals atomic.Int64
			evalHook = func() {
				if evals.Add(1) == 2 {
					cancel()
				}
			}
			defer func() { evalHook = nil }()

			cache := scorecache.NewScores(256)
			o := obs.New()
			flight := o.EnableFlight(64)
			before := runtime.NumGoroutine()
			_, err := Search(m, d, Options{
				Ctx:         ctx,
				Cache:       cache,
				Parallelism: parallelism,
				Observer:    o,
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			waitGoroutines(t, before)
			// The solve the cancellation interrupted is recorded as a
			// probe abort in the flight recorder.
			aborts := 0
			for _, ev := range flight.Events() {
				if ev.Kind == obs.EvProbeAbort {
					aborts++
				}
			}
			if aborts == 0 {
				t.Error("canceled search recorded no probe-abort flight event")
			}

			// The cache must hold only completed evaluations, never a
			// canceled solve recorded as infeasible: a warm re-search must
			// agree with a cache-free reference.
			evalHook = nil
			warm, err := Search(m, d, Options{Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := Search(m, d, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if warm.Time != ref.Time {
				t.Errorf("post-cancel cached search time %v, reference %v", warm.Time, ref.Time)
			}
			if warm.Evaluated != ref.Evaluated {
				t.Errorf("post-cancel cached search evaluated %d, reference %d", warm.Evaluated, ref.Evaluated)
			}
		})
	}
}

// TestSearchCancelReleasesWorkers makes sure cancellation mid-search frees
// the scoring pool quickly enough for a follow-up search to run normally —
// the property the serving daemon's worker accounting relies on.
func TestSearchCancelReleasesWorkers(t *testing.T) {
	m := topology.MachineB()
	d := demand(4)
	ctx, cancel := context.WithCancel(context.Background())
	evalHook = func() { cancel() }
	if _, err := Search(m, d, Options{Ctx: ctx, Parallelism: 4}); !errors.Is(err, context.Canceled) {
		evalHook = nil
		t.Fatalf("first search: err = %v, want context.Canceled", err)
	}
	evalHook = nil
	res, err := Search(m, d, Options{Parallelism: 4})
	if err != nil {
		t.Fatalf("follow-up search after cancel: %v", err)
	}
	if res.Best == nil {
		t.Fatal("follow-up search returned no placement")
	}
}
