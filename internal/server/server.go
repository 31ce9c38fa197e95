// Package server turns the one-shot planner into a long-running,
// multi-tenant planning service: an HTTP+JSON daemon (cmd/momentd) that
// accepts concurrent planning requests — machine spec + workload + demand
// in, ranked placements + DDAK layout + fault-degradation report out — and
// shares planner state across callers.
//
// Three mechanisms make the shared planner safe and cheap under load:
//
//   - Coalescing: requests are canonicalized and fingerprinted (see
//     request.go); identical in-flight requests join one planner run
//     (singleflight) and the result fans out to every waiter as an
//     independent deep copy.
//   - Caching: completed plans land in a bounded cross-tenant LRU keyed by
//     the same fingerprint, in front of the score cache the planner threads
//     through placement.Search. Cached entries are cloned on return, so one
//     tenant mutating its response can never corrupt another tenant's view.
//   - Admission control: a bounded worker pool (sized off GOMAXPROCS)
//     drains a bounded queue; requests past their deadline, past the queue
//     bound, or past their tenant's concurrency quota are shed with 429 and
//     a Retry-After estimate instead of queued into certain failure.
//     Graceful drain (Server.Drain) stops intake, finishes queued work, and
//     lets a supervisor restart the daemon without dropping accepted
//     requests.
//
// Everything observable — queue depth, coalesce hits, shed counts,
// per-tenant latency histograms, planner cache hit rates — flows through
// the internal/obs registry and is exposed on /metrics (Prometheus text)
// and /debug/trace (Chrome trace JSON).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"time"

	"moment/internal/core"
	"moment/internal/obs"
	"moment/internal/placement"
	"moment/internal/scorecache"
	"moment/internal/trainsim"
)

// Config tunes the planning service. The zero value serves with defaults.
type Config struct {
	// Workers bounds concurrent planner runs (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds runs accepted but not yet started (default
	// 4x Workers). A full queue sheds with 429.
	QueueDepth int
	// TenantConcurrency bounds one tenant's outstanding (queued or
	// running, including coalesced) requests (default 8; negative
	// disables the limit).
	TenantConcurrency int
	// PlanCacheEntries bounds the cross-tenant plan cache (default 256;
	// negative disables).
	PlanCacheEntries int
	// ScoreCacheEntries bounds the score cache shared by every planner
	// run (default 16384; negative disables).
	ScoreCacheEntries int
	// DefaultDeadline applies to requests without deadline_ms (default
	// 60s); MaxDeadline caps client-supplied deadlines (default 5m).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// TenantLabelCap bounds the distinct tenant values used as metric
	// labels; tenants beyond the cap aggregate under "other" so a tenant
	// flood cannot blow up the exposition (default 32).
	TenantLabelCap int
	// FlightEvents, when > 0, attaches a flight recorder of that many
	// events to the observer: admission decisions, plan-cache hits, sheds,
	// drains and span completions land on the ring and are dumpable at
	// /debug/flight. 0 leaves flight recording to the caller (obsflag
	// -flight also enables it); recording is zero-alloc when disabled.
	FlightEvents int
	// WatchdogDir, when non-empty, starts the anomaly watchdog: on a rule
	// trip it writes a diagnostics bundle (trip + flight dump + metrics +
	// goroutine/heap profiles) under this directory. Empty disables the
	// watchdog unless WatchdogRules is set (rules without a dir trip
	// metrics and OnTrip only).
	WatchdogDir string
	// WatchdogRules overrides DefaultWatchdogRules(cfg); nil with a
	// WatchdogDir uses the defaults.
	WatchdogRules []obs.Rule
	// WatchdogInterval is the check period (default 5s); WatchdogCooldown
	// suppresses repeat bundles after a trip (default 1m).
	WatchdogInterval time.Duration
	WatchdogCooldown time.Duration
	// Observer receives the server's metrics and traces and is threaded
	// into every planner run. Nil gets a fresh enabled observer (the
	// server always meters itself — /metrics must work).
	Observer *obs.Observer
}

// DefaultWatchdogRules is the rule set a WatchdogDir-configured server runs
// with: a shed storm (sheds per check interval), queue saturation, and an
// epoch-time regression against the learned baseline.
func DefaultWatchdogRules(cfg Config) []obs.Rule {
	return []obs.Rule{
		{Name: "shed-storm", Series: "momentd_shed_total", Kind: obs.RuleDeltaMax, Max: 50},
		{Name: "queue-saturated", Series: "momentd_queue_depth", Kind: obs.RuleMax,
			Max: 0.9 * float64(cfg.QueueDepth)},
		{Name: "epoch-regress", Series: "trainsim_epoch_seconds", Kind: obs.RuleRegress,
			Factor: 2, MinSamples: 5},
	}
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.TenantConcurrency == 0 {
		c.TenantConcurrency = 8
	}
	if c.PlanCacheEntries == 0 {
		c.PlanCacheEntries = 256
	}
	if c.ScoreCacheEntries == 0 {
		c.ScoreCacheEntries = 16384
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 60 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 5 * time.Minute
	}
	if c.TenantLabelCap <= 0 {
		c.TenantLabelCap = 32
	}
	return c
}

// flight is one planner run plus the set of requests waiting on it.
type flight struct {
	key    string
	cr     *canonReq
	ctx    context.Context
	cancel context.CancelFunc

	done chan struct{} // closed when res/err are set
	res  *planResult
	err  error

	// Guarded by Server.mu: waiters still attached, and whether the
	// flight was abandoned (every waiter left before it ran).
	waiters int
	dead    bool
}

// Server is the planning service. Construct with New; it implements
// http.Handler (mount it or hand it to http.Server directly).
type Server struct {
	cfg    Config
	obs    *obs.Observer
	scores *scorecache.Scores
	plans  *scorecache.Cache[string, *planResult]
	mux    *http.ServeMux

	// plan executes one planner run. Overridable in tests to make
	// coalescing/shedding deterministic without paying for real solves.
	plan func(ctx context.Context, cr *canonReq) (*planResult, error)

	watchdog   *obs.Watchdog
	explainSem chan struct{} // bounds concurrent /v1/explain planner runs

	mu       sync.Mutex
	inflight map[string]*flight
	tenants  map[string]int // outstanding requests per tenant
	labels   *obs.LabelCap  // tenant -> metric label (capped)
	queued   int
	draining bool
	queue    chan *flight

	ewmaBits atomicFloat // smoothed planner run seconds (deadline shedding)
	workerWG sync.WaitGroup
}

// New starts a Server: worker goroutines are running on return. Callers
// that create servers dynamically (tests, the load-test harness) must
// Close or Drain them.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	o := cfg.Observer
	if o == nil {
		o = obs.New()
	}
	if cfg.FlightEvents > 0 {
		o.EnableFlight(cfg.FlightEvents)
	}
	s := &Server{
		cfg:        cfg,
		obs:        o,
		scores:     scorecache.NewScores(cfg.ScoreCacheEntries),
		plans:      scorecache.New[string, *planResult](cfg.PlanCacheEntries),
		inflight:   map[string]*flight{},
		tenants:    map[string]int{},
		labels:     obs.NewLabelCap(cfg.TenantLabelCap),
		queue:      make(chan *flight, cfg.QueueDepth),
		explainSem: make(chan struct{}, cfg.Workers),
	}
	s.plan = s.planReal
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/plan", s.handlePlan)
	s.mux.HandleFunc("/v1/explain", s.handleExplain)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.Handle("/metrics", MetricsHandler(o))
	s.mux.Handle("/debug/trace", TraceHandler(o))
	s.mux.Handle("/debug/flight", FlightHandler(o))
	s.mux.Handle("/debug/pprof/", PprofHandler())
	for i := 0; i < cfg.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	if cfg.WatchdogDir != "" || cfg.WatchdogRules != nil {
		rules := cfg.WatchdogRules
		if rules == nil {
			rules = DefaultWatchdogRules(cfg)
		}
		s.watchdog = &obs.Watchdog{
			Obs:      o,
			Rules:    rules,
			Interval: cfg.WatchdogInterval,
			Dir:      cfg.WatchdogDir,
			Cooldown: cfg.WatchdogCooldown,
		}
		s.watchdog.Start()
	}
	return s
}

// Watchdog returns the server's anomaly watchdog, or nil when disabled.
func (s *Server) Watchdog() *obs.Watchdog { return s.watchdog }

// Observer returns the observer the server meters itself with.
func (s *Server) Observer() *obs.Observer { return s.obs }

// ServeHTTP dispatches to the service mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Drain gracefully shuts the server down: new requests are refused with
// 503, queued flights finish, and workers exit. Returns ctx's error if the
// drain does not complete in time (workers keep finishing regardless).
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	began := false
	if !s.draining {
		s.draining = true
		began = true
		close(s.queue) // enqueue checks draining under mu, so no racing send
	}
	s.mu.Unlock()
	if began {
		s.obs.Event(obs.Event{Kind: obs.EvDrain, Name: "drain-begin", V1: float64(s.plans.Len())})
	}
	s.obs.Gauge("momentd_draining").Set(1)
	done := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		// One final watchdog check before the process can exit: a shed
		// storm racing the drain still produces its bundle.
		s.watchdog.Stop()
		s.obs.Event(obs.Event{Kind: obs.EvDrain, Name: "drain-end"})
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close drains with a 10-second budget (test/example convenience).
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return s.Drain(ctx)
}

// tenantOf resolves the request's tenant: header beats body beats default.
func tenantOf(r *http.Request, body *PlanRequest) string {
	if t := r.Header.Get("X-Moment-Tenant"); t != "" {
		return t
	}
	if body.Tenant != "" {
		return body.Tenant
	}
	return "default"
}

// tenantLabel maps a tenant to its metric label through the shared
// obs.LabelCap (tenants past the cap aggregate under obs.Overflow — the
// same mechanism bounding flight-recorder subjects and explain reasons).
func (s *Server) tenantLabel(tenant string) string {
	label, fresh := s.labels.Put(tenant)
	if fresh {
		s.obs.Gauge("momentd_tenants").Set(float64(s.labels.Len()))
	}
	return label
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
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
	tenant := tenantOf(r, &req)
	label := s.tenantLabel(tenant)
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
	defer func() {
		s.obs.Histogram("momentd_request_seconds", obs.L("tenant", label)).
			Observe(time.Since(start).Seconds())
	}()

	// Fast path: a completed identical plan is in the cross-tenant cache.
	// Served outside admission control — a cache hit costs microseconds
	// and holds no worker.
	if res, ok := s.plans.Get(cr.key); ok {
		s.obs.Counter("momentd_plan_cache_hits_total", obs.L("tenant", label)).Inc()
		s.obs.Event(obs.Event{Kind: obs.EvCache, Name: "plan", Subject: label, Reason: "hit"})
		s.reply(w, http.StatusOK, res.response(tenant, cr.topK, false, true))
		return
	}
	s.obs.Counter("momentd_plan_cache_misses_total").Inc()
	s.obs.Event(obs.Event{Kind: obs.EvCache, Name: "plan", Subject: label, Reason: "miss"})

	fl, coalesced, err := s.admit(cr, tenant)
	if err != nil {
		var shed *shedError
		if errors.As(err, &shed) {
			s.obs.Counter("momentd_shed_total", obs.L("reason", shed.reason)).Inc()
			s.obs.Event(obs.Event{Kind: obs.EvAdmission, Name: "shed",
				Subject: label, Reason: shed.reason, V1: float64(shed.retryAfterSec)})
			w.Header().Set("Retry-After", fmt.Sprintf("%d", shed.retryAfterSec))
			s.replyError(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		s.replyError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if coalesced {
		s.obs.Counter("momentd_coalesced_total", obs.L("tenant", label)).Inc()
		s.obs.Event(obs.Event{Kind: obs.EvAdmission, Name: "coalesced", Subject: label})
	} else {
		s.obs.Event(obs.Event{Kind: obs.EvAdmission, Name: "admitted", Subject: label})
	}
	defer s.release(fl, tenant)

	select {
	case <-fl.done:
	case <-r.Context().Done():
		// Client gone: detach. release (deferred) cancels the run if this
		// was the last waiter, freeing the worker slot.
		s.obs.Counter("momentd_client_gone_total").Inc()
		return
	}
	if fl.err != nil {
		switch {
		case errors.Is(fl.err, context.DeadlineExceeded):
			s.replyError(w, http.StatusGatewayTimeout, "deadline exceeded while planning")
		case errors.Is(fl.err, context.Canceled):
			s.replyError(w, http.StatusServiceUnavailable, "planner run canceled")
		default:
			s.replyError(w, http.StatusUnprocessableEntity, "planner: %v", fl.err)
		}
		return
	}
	s.reply(w, http.StatusOK, fl.res.response(tenant, cr.topK, coalesced, false))
}

// shedError is an admission refusal with its 429 metadata.
type shedError struct {
	reason        string
	retryAfterSec int
	msg           string
}

func (e *shedError) Error() string { return e.msg }

// admit coalesces the request into an existing flight or queues a new one,
// enforcing the tenant quota, queue bound and deadline feasibility. On
// success the caller owns one waiter reference (release it via release).
func (s *Server) admit(cr *canonReq, tenant string) (*flight, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false, errors.New("server draining")
	}
	limit := s.cfg.TenantConcurrency
	if limit > 0 && s.tenants[tenant] >= limit {
		return nil, false, &shedError{
			reason:        "tenant_limit",
			retryAfterSec: 1,
			msg:           fmt.Sprintf("tenant %q at its concurrency limit (%d)", tenant, limit),
		}
	}
	if fl, ok := s.inflight[cr.key]; ok && !fl.dead {
		fl.waiters++
		s.tenants[tenant]++
		return fl, true, nil
	}
	// New run: it must clear the queue bound and plausibly meet its
	// deadline given the queue ahead of it (deadline-aware shedding —
	// queueing a request into certain timeout helps nobody).
	if s.queued >= s.cfg.QueueDepth {
		return nil, false, &shedError{
			reason:        "queue_full",
			retryAfterSec: s.retryAfterSec(s.cfg.QueueDepth),
			msg:           fmt.Sprintf("queue full (%d waiting)", s.queued),
		}
	}
	if wait := s.estimatedWait(s.queued + 1); wait > cr.deadline {
		return nil, false, &shedError{
			reason:        "deadline",
			retryAfterSec: s.retryAfterSec(s.queued),
			msg: fmt.Sprintf("estimated wait %.1fs exceeds deadline %.1fs",
				wait.Seconds(), cr.deadline.Seconds()),
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), cr.deadline)
	fl := &flight{
		key:     cr.key,
		cr:      cr,
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		waiters: 1,
	}
	s.inflight[cr.key] = fl
	s.tenants[tenant]++
	s.queued++
	s.obs.Gauge("momentd_queue_depth").Set(float64(s.queued))
	s.queue <- fl // buffered to QueueDepth; the bound above keeps this non-blocking
	return fl, false, nil
}

// release drops one waiter reference. The last waiter to leave an
// unfinished flight cancels its run (freeing the worker slot or letting the
// queue skip it) and unmaps it so later identical requests start fresh.
func (s *Server) release(fl *flight, tenant string) {
	s.mu.Lock()
	s.tenants[tenant]--
	if s.tenants[tenant] <= 0 {
		delete(s.tenants, tenant)
	}
	fl.waiters--
	abandoned := fl.waiters == 0 && !fl.dead
	if abandoned {
		select {
		case <-fl.done: // completed normally; nothing to tear down
			abandoned = false
		default:
			fl.dead = true
			if s.inflight[fl.key] == fl {
				delete(s.inflight, fl.key)
			}
		}
	}
	s.mu.Unlock()
	if abandoned {
		fl.cancel()
	}
}

// estimatedWait predicts time-in-queue for a request entering at the given
// position, from the smoothed planner run time. Zero before the first
// completed run (no estimate — admit optimistically).
func (s *Server) estimatedWait(position int) time.Duration {
	ewma := s.ewmaBits.load()
	if ewma <= 0 {
		return 0
	}
	runsAhead := float64(position+s.cfg.Workers-1) / float64(s.cfg.Workers)
	return time.Duration(runsAhead * ewma * float64(time.Second))
}

// retryAfterSec converts the queue-wait estimate into a whole-second
// Retry-After value. The HTTP header has no sub-second resolution, so
// fractional estimates round up, and the result is clamped to >= 1: a
// Retry-After of 0 invites an immediate retry into the same full queue.
func (s *Server) retryAfterSec(position int) int {
	sec := int(math.Ceil(s.estimatedWait(position).Seconds()))
	if sec < 1 {
		return 1
	}
	return sec
}

// worker drains the queue until Drain closes it.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for fl := range s.queue {
		s.mu.Lock()
		s.queued--
		s.obs.Gauge("momentd_queue_depth").Set(float64(s.queued))
		dead := fl.dead
		s.mu.Unlock()
		if dead || fl.ctx.Err() != nil {
			// Every waiter left (or the deadline lapsed) while queued:
			// don't burn a planner run on a result nobody wants.
			s.obs.Counter("momentd_jobs_expired_total").Inc()
			s.finish(fl, nil, fl.ctx.Err())
			continue
		}
		start := time.Now()
		s.obs.Gauge("momentd_inflight_runs").Add(1)
		res, err := s.plan(fl.ctx, fl.cr)
		s.obs.Gauge("momentd_inflight_runs").Add(-1)
		elapsed := time.Since(start)
		s.obs.Counter("momentd_planner_runs_total").Inc()
		s.obs.Histogram("momentd_planner_run_seconds").Observe(elapsed.Seconds())
		s.ewmaBits.update(elapsed.Seconds())
		if err == nil {
			s.plans.Put(fl.key, res)
		} else if isCtxErr(err) {
			s.obs.Counter("momentd_runs_canceled_total").Inc()
		} else {
			s.obs.Counter("momentd_runs_failed_total").Inc()
		}
		s.finish(fl, res, err)
	}
}

// finish publishes a flight's outcome and unmaps it.
func (s *Server) finish(fl *flight, res *planResult, err error) {
	if err == nil && res == nil {
		err = errors.New("momentd: planner returned no result")
	}
	fl.res, fl.err = res, err
	s.mu.Lock()
	if s.inflight[fl.key] == fl {
		delete(s.inflight, fl.key)
	}
	s.mu.Unlock()
	close(fl.done)
	fl.cancel()
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// planReal runs the actual planner: profile, placement search (sharing the
// server's score cache, honoring the flight's context), DDAK layout, and
// the simulated epoch — optionally degraded by the request's fault
// schedule.
func (s *Server) planReal(ctx context.Context, cr *canonReq) (*planResult, error) {
	start := time.Now()
	in := core.Input{
		Machine:  cr.machine,
		Workload: cr.wl,
		Search: placement.Options{
			KeepScores: true,
			Cache:      s.scores,
			Ctx:        ctx,
		},
		Observer: s.obs,
	}
	if cr.faults != nil {
		in.Sim = trainsim.Config{Faults: cr.faults}
	}
	plan, err := core.CoOptimize(in)
	if err != nil {
		return nil, err
	}
	return newPlanResult(cr, plan, time.Since(start)), nil
}

// Stats is the /v1/stats document: a quick operational snapshot (the full
// series live on /metrics).
type Stats struct {
	Draining     bool    `json:"draining"`
	Workers      int     `json:"workers"`
	QueueDepth   int     `json:"queue_depth"`
	QueuedNow    int     `json:"queued_now"`
	InflightRuns int     `json:"inflight_runs"`
	Tenants      int     `json:"tenants"`
	PlanRunEWMA  float64 `json:"plan_run_ewma_sec"`

	PlanCacheLen       int     `json:"plan_cache_len"`
	PlanCacheHitRate   float64 `json:"plan_cache_hit_rate"`
	ScoreCacheLen      int     `json:"score_cache_len"`
	ScoreCacheHitRate  float64 `json:"score_cache_hit_rate"`
	ScoreCacheEvicted  uint64  `json:"score_cache_evicted"`
	PlanCacheEvictions uint64  `json:"plan_cache_evicted"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	st := Stats{
		Draining:   s.draining,
		Workers:    s.cfg.Workers,
		QueueDepth: s.cfg.QueueDepth,
		QueuedNow:  s.queued,
		Tenants:    len(s.tenants),
	}
	s.mu.Unlock()
	st.InflightRuns = int(s.obs.Gauge("momentd_inflight_runs").Value())
	st.PlanRunEWMA = s.ewmaBits.load()
	st.PlanCacheLen = s.plans.Len()
	st.PlanCacheHitRate = s.plans.HitRate()
	_, _, st.PlanCacheEvictions = s.plans.Stats()
	st.ScoreCacheLen = s.scores.Len()
	st.ScoreCacheHitRate = s.scores.HitRate()
	_, _, st.ScoreCacheEvicted = s.scores.Stats()
	s.reply(w, http.StatusOK, st)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		s.obs.Counter("momentd_requests_total", obs.L("code", "503")).Inc()
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) reply(w http.ResponseWriter, code int, body any) {
	s.obs.Counter("momentd_requests_total", obs.L("code", fmt.Sprintf("%d", code))).Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body)
}

func (s *Server) replyError(w http.ResponseWriter, code int, format string, args ...any) {
	s.reply(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// atomicFloat is a float64 with atomic load and EWMA update.
type atomicFloat struct {
	mu  sync.Mutex
	val float64
}

func (a *atomicFloat) load() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.val
}

// update folds one sample into the smoothed value (alpha 0.3; the first
// sample seeds it).
func (a *atomicFloat) update(v float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.val == 0 {
		a.val = v
		return
	}
	a.val = 0.7*a.val + 0.3*v
}
