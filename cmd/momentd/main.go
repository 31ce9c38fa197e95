// Command momentd serves the Moment planner as a long-running multi-tenant
// daemon: POST /v1/plan takes a machine spec + workload (+ optional fault
// schedule) and returns the co-optimized placement, DDAK layout and
// simulated epoch. Identical concurrent requests coalesce into one planner
// run, completed plans are cached across tenants, and overload is shed
// with 429 + Retry-After instead of queued into timeouts.
//
// Endpoints:
//
//	POST /v1/plan      planning requests (JSON; see moment.PlanRequest)
//	POST /v1/explain   plan provenance: the full decision trail for one
//	                   request, byte-deterministic for a fixed problem
//	GET  /v1/stats     operational snapshot (JSON)
//	GET  /metrics      Prometheus text exposition
//	GET  /debug/trace  Chrome trace-event JSON of recent spans
//	GET  /debug/flight flight-recorder ring as JSON (see -flight-events)
//	GET  /debug/pprof/ runtime profiles
//	GET  /healthz      200 ok, 503 while draining
//
// With -watchdog-dir, an anomaly watchdog checks the metrics registry on a
// timer (shed storms, queue saturation, epoch-time regressions) and on a
// trip snapshots the flight ring + metrics + profiles into a timestamped
// diagnostics bundle under that directory.
//
// SIGINT/SIGTERM triggers a graceful drain: intake stops (new plans get
// 503, /healthz flips so load balancers eject the instance), queued
// flights finish, the watchdog runs one final check, and the shared
// observability flags (-trace, -flight, ...) flush their dumps before the
// HTTP listener shuts down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"moment"
	"moment/cmd/internal/obsflag"
)

func main() {
	addr := flag.String("addr", ":7343", "listen address")
	workers := flag.Int("workers", 0, "concurrent planner runs (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue", 0, "queued runs before shedding (0 = 4x workers)")
	tenantLimit := flag.Int("tenant-limit", 0,
		"per-tenant outstanding request limit (0 = default 8, negative = unlimited)")
	planCache := flag.Int("plan-cache", 0, "plan cache entries (0 = default 256)")
	scoreCache := flag.Int("score-cache", 0, "shared score cache entries (0 = default 16384)")
	deadline := flag.Duration("deadline", 0, "default per-request deadline (0 = 60s)")
	maxDeadline := flag.Duration("max-deadline", 0, "cap on client deadlines (0 = 5m)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second,
		"how long a SIGTERM drain may wait for queued runs")
	flightEvents := flag.Int("flight-events", 4096,
		"flight-recorder ring size (events kept for /debug/flight and watchdog bundles; 0 disables)")
	watchdogDir := flag.String("watchdog-dir", "",
		"enable the anomaly watchdog and write diagnostics bundles under this directory")
	watchdogInterval := flag.Duration("watchdog-interval", 0, "watchdog check period (0 = 5s)")
	watchdogCooldown := flag.Duration("watchdog-cooldown", 0,
		"minimum gap between diagnostics bundles (0 = 1m)")
	oflags := obsflag.Register()
	flag.Parse()

	srv := moment.NewPlanServer(moment.PlanServerConfig{
		Workers:           *workers,
		QueueDepth:        *queueDepth,
		TenantConcurrency: *tenantLimit,
		PlanCacheEntries:  *planCache,
		ScoreCacheEntries: *scoreCache,
		DefaultDeadline:   *deadline,
		MaxDeadline:       *maxDeadline,
		FlightEvents:      *flightEvents,
		WatchdogDir:       *watchdogDir,
		WatchdogInterval:  *watchdogInterval,
		WatchdogCooldown:  *watchdogCooldown,
		Observer:          oflags.Enable(),
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "momentd: listening on %s\n", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "momentd:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "momentd: draining")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "momentd: drain:", err)
	}
	// Final forensics flush: with -trace/-flight/-metrics set, the drained
	// daemon leaves its trace and a last flight-recorder dump behind.
	if err := oflags.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "momentd: flush:", err)
	}
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "momentd: shutdown:", err)
	}
	fmt.Fprintln(os.Stderr, "momentd: stopped")
}
