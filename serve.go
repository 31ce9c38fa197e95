package moment

// Serving-layer re-exports: the planner-as-a-service daemon (momentd), its
// request/response schema and the shared observability exposition
// handlers.

import (
	"net/http"

	"moment/internal/server"
)

type (
	// PlanServer is the multi-tenant planning service: an http.Handler
	// with request coalescing, a cross-tenant plan cache, admission
	// control and live /metrics. Construct with NewPlanServer; drain with
	// its Drain/Close methods before exit.
	PlanServer = server.Server
	// PlanServerConfig tunes worker pool, queue bound, tenant quotas,
	// cache sizes and deadlines (zero value = defaults).
	PlanServerConfig = server.Config
	// PlanRequest / PlanResponse are the JSON schema of POST /v1/plan;
	// WorkloadSpec and SearchSpec are their nested sections.
	PlanRequest  = server.PlanRequest
	PlanResponse = server.PlanResponse
	WorkloadSpec = server.WorkloadSpec
	SearchSpec   = server.SearchSpec
	// PlanServerStats is the /v1/stats document.
	PlanServerStats = server.Stats
	// ExplainResponse is the JSON schema of POST /v1/explain: the plan
	// provenance trail for one request, byte-deterministic for a fixed
	// problem.
	ExplainResponse = server.ExplainResponse
)

// NewPlanServer starts a planning service (workers are live on return).
func NewPlanServer(cfg PlanServerConfig) *PlanServer { return server.New(cfg) }

// MetricsHandler serves an observer's registry as Prometheus text; nil uses
// the process default observer.
func MetricsHandler(o *Observer) http.Handler { return server.MetricsHandler(o) }

// TraceHandler serves an observer's span log as Chrome trace JSON.
func TraceHandler(o *Observer) http.Handler { return server.TraceHandler(o) }

// FlightHandler serves an observer's flight-recorder ring as JSON (the
// empty dump when recording is disabled).
func FlightHandler(o *Observer) http.Handler { return server.FlightHandler(o) }

// PprofHandler serves the runtime profiling endpoints under /debug/pprof/
// on a private mux.
func PprofHandler() http.Handler { return server.PprofHandler() }

// DefaultWatchdogRules is the anomaly rule set a WatchdogDir-configured
// PlanServer runs with (shed storm, queue saturation, epoch-time
// regression, warm-abort storm).
func DefaultWatchdogRules(cfg PlanServerConfig) []WatchdogRule {
	return server.DefaultWatchdogRules(cfg)
}

// ObsMux bundles /metrics, /debug/trace, /debug/flight, /debug/pprof/ and
// /healthz for processes that want exposition without the planning service
// (obsflag -listen uses it, so one-shot CLI runs and momentd share one
// exposition code path).
func ObsMux(o *Observer) *http.ServeMux { return server.ObsMux(o) }
