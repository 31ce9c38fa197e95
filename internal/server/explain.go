// POST /v1/explain: plan provenance. The endpoint re-runs the planner for
// one request with an explain trail attached and returns every decision the
// search made — candidates enumerated, pruned (and why), score-cache
// verdicts, bisector effort per candidate, the DDAK layout breakdown — as
// structured steps plus a deterministic rendering.
//
// Explain runs are deliberately isolated from the serving fast paths:
//
//   - No score cache, no plan cache. A cache hit would change the trail
//     depending on what other tenants planned before; byte-determinism for
//     a fixed request is the endpoint's contract (golden-testable, diffable
//     across deploys). The search itself runs at its usual parallelism:
//     steps carry enumeration indexes and the trail keeps its canonically
//     smallest steps when it overflows, so worker scheduling never shows.
//   - Bounded by its own semaphore (sized off Workers) instead of the
//     admission queue: explain is a forensic/debug surface and must not
//     compete with production planning for queue slots, but also must not
//     fork-bomb the process when a dashboard refreshes.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"moment/internal/core"
	"moment/internal/obs"
	"moment/internal/placement"
	"moment/internal/trainsim"
)

// ExplainResponse is the JSON body of a successful /v1/explain. It carries
// no wall-clock or cache-state fields: two responses for the same request
// are byte-identical.
type ExplainResponse struct {
	Machine string `json:"machine"`
	// Key is the request's canonical fingerprint — the coalescing/cache key
	// /v1/plan would use for the identical problem.
	Key string `json:"key"`

	Placement      PlacementOut `json:"placement"`
	PredictedIOSec float64      `json:"predicted_io_sec"`
	EpochSec       float64      `json:"epoch_sec"`
	Enumerated     int          `json:"enumerated"`
	Evaluated      int          `json:"evaluated"`

	// Steps is the structured trail (sorted deterministically);
	// DroppedSteps counts steps past the trail's bound.
	Steps        []obs.ExplainStep `json:"steps"`
	DroppedSteps int               `json:"dropped_steps,omitempty"`
	// Rendered is the human-readable rendering of the same trail (what
	// momentopt -explain prints).
	Rendered string `json:"rendered"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.replyError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req PlanRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.replyError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	label := s.tenantLabel(tenantOf(r, &req))
	cr, err := canonicalize(&req, s.cfg.DefaultDeadline, s.cfg.MaxDeadline)
	if err != nil {
		var bad errBadRequest
		if errors.As(err, &bad) {
			s.replyError(w, http.StatusBadRequest, "%v", err)
		} else {
			s.replyError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		s.replyError(w, http.StatusServiceUnavailable, "server draining")
		return
	}

	select {
	case s.explainSem <- struct{}{}:
		defer func() { <-s.explainSem }()
	case <-r.Context().Done():
		s.obs.Counter("momentd_client_gone_total").Inc()
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), cr.deadline)
	defer cancel()
	ex := obs.NewExplain()
	in := core.Input{
		Machine:  cr.machine,
		Workload: cr.wl,
		Search: placement.Options{
			Explain: ex,
			Ctx:     ctx,
		},
		Observer: s.obs,
	}
	if cr.faults != nil {
		in.Sim = trainsim.Config{Faults: cr.faults}
	}
	plan, err := core.CoOptimize(in)
	s.obs.Counter("momentd_explain_total", obs.L("tenant", label)).Inc()
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			s.replyError(w, http.StatusGatewayTimeout, "deadline exceeded while explaining")
		case errors.Is(err, context.Canceled):
			s.replyError(w, http.StatusServiceUnavailable, "explain run canceled")
		default:
			s.replyError(w, http.StatusUnprocessableEntity, "planner: %v", err)
		}
		return
	}

	resp := &ExplainResponse{
		Machine:        cr.name,
		Key:            cr.key,
		Placement:      placementOut(plan.Placement),
		PredictedIOSec: plan.PredictedIO.Sec(),
		Enumerated:     plan.Enumerated,
		Evaluated:      plan.Evaluated,
		Steps:          ex.Steps(),
		DroppedSteps:   ex.Dropped(),
		Rendered:       ex.Render(),
	}
	if plan.Epoch != nil {
		resp.EpochSec = plan.Epoch.EpochTime.Sec()
	}
	if resp.Steps == nil {
		resp.Steps = []obs.ExplainStep{}
	}
	s.reply(w, http.StatusOK, resp)
}
