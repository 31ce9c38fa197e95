package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"moment/internal/obs"
	"moment/internal/topology"
)

// fakeResult builds a small but fully-populated planResult template.
func fakeResult(machine string) *planResult {
	return &planResult{
		machine:    machine,
		placement:  PlacementOut{Name: "fake", GPUAt: []string{"pcie0"}, SSDAt: []string{"pcie1"}},
		predicted:  1.5,
		throughput: 2.0,
		enumerated: 10,
		evaluated:  4,
		ranked: []RankedPlacement{
			{GPUAt: []string{"pcie0"}, SSDAt: []string{"pcie1"}, PredictedIOSec: 1.5},
			{GPUAt: []string{"pcie1"}, SSDAt: []string{"pcie0"}, PredictedIOSec: 1.7},
		},
		bins:       []BinOut{{Name: "gpu", UsedGiB: 4, AccessFrac: 0.9}},
		epoch:      EpochOut{EpochSec: 3, IOSec: 1.5, ComputeSec: 1, SampleSec: 0.5},
		runSeconds: 0.01,
	}
}

// newTestServer builds a server with a stubbed planner and registers drain
// cleanup. The stub defaults to an instant fake result.
func newTestServer(t *testing.T, cfg Config, plan func(ctx context.Context, cr *canonReq) (*planResult, error)) *Server {
	t.Helper()
	s := New(cfg)
	if plan == nil {
		plan = func(ctx context.Context, cr *canonReq) (*planResult, error) {
			return fakeResult(cr.name), nil
		}
	}
	s.plan = plan
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s
}

func planBody(t *testing.T, batch int) []byte {
	t.Helper()
	b, err := json.Marshal(PlanRequest{
		Machine:  "B",
		Workload: WorkloadSpec{Dataset: "PA", BatchSize: batch},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func postPlan(t *testing.T, ts *httptest.Server, body []byte, hdr map[string]string) (int, *PlanResponse, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/plan", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, resp.Header
	}
	var pr PlanResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		t.Fatalf("bad response body %q: %v", raw, err)
	}
	return resp.StatusCode, &pr, resp.Header
}

// waitCounter polls an obs counter until it reaches want.
func waitCounter(t *testing.T, c interface{ Value() float64 }, want float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.Value() >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("counter stuck at %v, want >= %v", c.Value(), want)
}

// TestCoalesceIdenticalRequests is the tentpole property: N identical
// concurrent requests execute exactly one planner run, and the coalesce
// counter reads N-1.
func TestCoalesceIdenticalRequests(t *testing.T) {
	const n = 8
	var runs atomic.Int64
	release := make(chan struct{})
	s := newTestServer(t, Config{Workers: 2}, func(ctx context.Context, cr *canonReq) (*planResult, error) {
		runs.Add(1)
		<-release
		return fakeResult(cr.name), nil
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := planBody(t, 4000)
	var wg sync.WaitGroup
	codes := make([]int, n)
	resps := make([]*PlanResponse, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], resps[i], _ = postPlan(t, ts, body, nil)
		}(i)
	}
	// All n requests must be attached (1 owner + n-1 coalesced) before the
	// planner is released, or stragglers would hit the plan cache instead.
	waitCounter(t, s.obs.Counter("momentd_coalesced_total", obs.L("tenant", "default")), n-1)
	close(release)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("planner ran %d times for %d identical requests, want 1", got, n)
	}
	coalesced := 0
	for i := range codes {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200", i, codes[i])
		}
		if resps[i].Coalesced {
			coalesced++
		}
		if resps[i].CachedPlan {
			t.Errorf("request %d reported cached_plan while attached to the live flight", i)
		}
	}
	if coalesced != n-1 {
		t.Fatalf("%d responses marked coalesced, want %d", coalesced, n-1)
	}

	// An identical request after completion is a pure plan-cache hit.
	code, pr, _ := postPlan(t, ts, body, nil)
	if code != http.StatusOK || !pr.CachedPlan {
		t.Fatalf("follow-up: code=%d cached=%v, want 200/true", code, pr.CachedPlan)
	}
	if pr.PlanMS != 0 {
		t.Errorf("cached plan reports plan_ms=%v, want 0", pr.PlanMS)
	}
}

// TestShedQueueFull overloads a 1-worker, depth-1 server and checks the
// overflow request is shed with 429 + Retry-After while everything admitted
// still completes — and that the overload leaks no goroutines.
func TestShedQueueFull(t *testing.T) {
	release := make(chan struct{})
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1, TenantConcurrency: -1},
		func(ctx context.Context, cr *canonReq) (*planResult, error) {
			<-release
			return fakeResult(cr.name), nil
		})
	ts := httptest.NewServer(s)
	defer ts.Close()
	before := runtime.NumGoroutine()

	// Occupy the worker, then the queue slot — strictly in that order. The
	// worker frees the queue slot before marking itself inflight, so waiting
	// for inflight==1 guarantees the second request queues instead of racing
	// the first into the single slot and shedding (which would leave the
	// "overflow" request below to be admitted and deadlock against release).
	var wg sync.WaitGroup
	codes := make([]int, 2)
	occupy := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i], _, _ = postPlan(t, ts, planBody(t, 1000+i), nil)
		}()
	}
	occupy(0)
	waitCounter(t, s.obs.Gauge("momentd_inflight_runs"), 1)
	occupy(1)
	waitCounter(t, s.obs.Gauge("momentd_queue_depth"), 1)

	code, _, hdr := postPlan(t, ts, planBody(t, 9999), nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After header")
	}
	if got := s.obs.Counter("momentd_shed_total", obs.L("reason", "queue_full")).Value(); got != 1 {
		t.Errorf("shed_total{queue_full} = %v, want 1", got)
	}

	close(release)
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Errorf("admitted request %d: status %d, want 200", i, c)
		}
	}
	waitGoroutinesAtMost(t, ts, before)
}

// waitGoroutinesAtMost polls until the goroutine count settles. Idle
// keep-alive client connections are closed each round so only genuinely
// leaked goroutines (stuck handlers, orphaned flights) can fail the test.
func waitGoroutinesAtMost(t *testing.T, ts *httptest.Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ts.Client().CloseIdleConnections()
		if runtime.NumGoroutine() <= want {
			return
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines did not settle: %d running, want <= %d", runtime.NumGoroutine(), want)
}

// TestShedTenantLimit pins one tenant at its concurrency quota and checks
// its next request is shed while another tenant is still admitted.
func TestShedTenantLimit(t *testing.T) {
	release := make(chan struct{})
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 8, TenantConcurrency: 2},
		func(ctx context.Context, cr *canonReq) (*planResult, error) {
			<-release
			return fakeResult(cr.name), nil
		})
	ts := httptest.NewServer(s)
	defer ts.Close()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			postPlan(t, ts, planBody(t, 2000+i), map[string]string{"X-Moment-Tenant": "alpha"})
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		n := s.tenants["alpha"]
		s.mu.Unlock()
		if n >= 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	code, _, _ := postPlan(t, ts, planBody(t, 7777), map[string]string{"X-Moment-Tenant": "alpha"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("tenant over quota: status %d, want 429", code)
	}
	if got := s.obs.Counter("momentd_shed_total", obs.L("reason", "tenant_limit")).Value(); got != 1 {
		t.Errorf("shed_total{tenant_limit} = %v, want 1", got)
	}

	// Another tenant is unaffected by alpha's quota.
	done := make(chan int, 1)
	go func() {
		code, _, _ := postPlan(t, ts, planBody(t, 3000), map[string]string{"X-Moment-Tenant": "beta"})
		done <- code
	}()
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if code := <-done; code != http.StatusOK {
		t.Errorf("other tenant: status %d, want 200", code)
	}
}

// TestShedDeadline: with a long smoothed run time, a request whose deadline
// cannot be met is shed up front instead of queued into certain timeout.
func TestShedDeadline(t *testing.T) {
	release := make(chan struct{})
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 8, TenantConcurrency: -1},
		func(ctx context.Context, cr *canonReq) (*planResult, error) {
			<-release
			return fakeResult(cr.name), nil
		})
	ts := httptest.NewServer(s)
	defer ts.Close()
	s.ewmaBits.update(10) // pretend runs take 10s

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // occupy the worker so the next request has to queue
		defer wg.Done()
		postPlan(t, ts, planBody(t, 5000), nil)
	}()
	waitCounter(t, s.obs.Gauge("momentd_inflight_runs"), 1)

	body, _ := json.Marshal(PlanRequest{
		Machine:    "B",
		Workload:   WorkloadSpec{Dataset: "PA", BatchSize: 5001},
		DeadlineMS: 100, // cannot wait out a 10s run
	})
	code, _, hdr := postPlan(t, ts, body, nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("infeasible deadline: status %d, want 429", code)
	}
	if ra := hdr.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want a positive estimate", ra)
	}
	if got := s.obs.Counter("momentd_shed_total", obs.L("reason", "deadline")).Value(); got != 1 {
		t.Errorf("shed_total{deadline} = %v, want 1", got)
	}
	close(release)
	wg.Wait()
}

// TestRetryAfterSubSecondEWMA: a shed with a sub-second smoothed run time
// must still advertise Retry-After >= 1 — the header has whole-second
// resolution, and 0 invites an immediate retry into the same full queue.
func TestRetryAfterSubSecondEWMA(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1, TenantConcurrency: -1},
		func(ctx context.Context, cr *canonReq) (*planResult, error) {
			started <- struct{}{}
			<-release
			return fakeResult(cr.name), nil
		})
	ts := httptest.NewServer(s)
	defer ts.Close()
	// A Fatal below must still unblock the planner, or the deferred
	// ts.Close() waits forever on the in-flight handlers.
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock()
	s.ewmaBits.update(0.05) // runs "take" 50ms: every wait estimate is sub-second

	for _, pos := range []int{0, 1, 3, 100} {
		if sec := s.retryAfterSec(pos); sec < 1 {
			t.Errorf("retryAfterSec(%d) = %d with 50ms EWMA, want >= 1", pos, sec)
		}
	}

	// Occupy the worker, then the queue slot — strictly in that order. The
	// two posts must not race each other: if both arrived before the worker
	// dequeued the first, the second would be shed by the depth-1 queue
	// instead of occupying it.
	var wg sync.WaitGroup
	codes := make([]int, 2)
	post := func(i int) {
		defer wg.Done()
		codes[i], _, _ = postPlan(t, ts, planBody(t, 4000+i), nil)
	}
	wg.Add(1)
	go post(0)
	select { // worker has dequeued #0 and is blocked in the planner
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never started a flight")
	}
	wg.Add(1)
	go post(1) // with the worker pinned, #1 can only sit in the queue
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		queued := s.queued
		s.mu.Unlock()
		if queued >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second request never reached the queue")
		}
		time.Sleep(2 * time.Millisecond)
	}

	code, _, hdr := postPlan(t, ts, planBody(t, 9998), nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429", code)
	}
	ra, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", hdr.Get("Retry-After"), err)
	}
	if ra < 1 {
		t.Errorf("Retry-After = %d with sub-second EWMA, want >= 1", ra)
	}

	unblock()
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Errorf("admitted request %d: status %d, want 200", i, c)
		}
	}
}

// TestClientDisconnectReleasesWorker: when every waiter abandons a flight,
// its context is canceled, the planner unblocks, and the worker slot is
// free for the next request.
func TestClientDisconnectReleasesWorker(t *testing.T) {
	started := make(chan struct{}, 1)
	s := newTestServer(t, Config{Workers: 1}, func(ctx context.Context, cr *canonReq) (*planResult, error) {
		if cr.wl.BatchSize == 1111 { // the request that will be abandoned
			started <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return fakeResult(cr.name), nil
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/plan",
		bytes.NewReader(planBody(t, 1111)))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-started // planner is holding the only worker
	cancel()  // client walks away
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("client error = %v, want context.Canceled", err)
	}

	// The abandoned flight's cancellation must free the worker: a fresh
	// request completes promptly.
	done := make(chan int, 1)
	go func() {
		code, _, _ := postPlan(t, ts, planBody(t, 2222), nil)
		done <- code
	}()
	select {
	case code := <-done:
		if code != http.StatusOK {
			t.Fatalf("follow-up after disconnect: status %d, want 200", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follow-up request hung: abandoned flight did not release its worker")
	}
	waitCounter(t, s.obs.Counter("momentd_runs_canceled_total"), 1)
}

// TestTenantIsolationCloneOnReturn mutates one tenant's response in place
// and checks neither the shared template nor another tenant's response
// moves — the in-process contract the HTTP layer builds on.
func TestTenantIsolationCloneOnReturn(t *testing.T) {
	pr := fakeResult("B")
	a := pr.response("alpha", 2, false, true)
	b := pr.response("beta", 2, false, true)

	a.Placement.GPUAt[0] = "corrupted"
	a.Ranked[0].SSDAt[0] = "corrupted"
	a.Bins[0].Name = "corrupted"
	a.Ranked[0].PredictedIOSec = -1

	if pr.placement.GPUAt[0] != "pcie0" {
		t.Error("mutating a response corrupted the cached template's placement")
	}
	if pr.ranked[0].SSDAt[0] != "pcie1" {
		t.Error("mutating a response corrupted the cached template's ranking")
	}
	if pr.bins[0].Name != "gpu" {
		t.Error("mutating a response corrupted the cached template's bins")
	}
	if b.Placement.GPUAt[0] != "pcie0" || b.Ranked[0].SSDAt[0] != "pcie1" || b.Bins[0].Name != "gpu" {
		t.Error("one tenant's mutation leaked into another tenant's response")
	}
	if b.Ranked[0].PredictedIOSec != 1.5 {
		t.Error("scalar mutation leaked across tenants")
	}
}

// TestTopKTruncation: top_k shapes only the response, not the coalescing
// key — a top_k=1 and top_k=2 request share one cache entry.
func TestTopKTruncation(t *testing.T) {
	var runs atomic.Int64
	s := newTestServer(t, Config{}, func(ctx context.Context, cr *canonReq) (*planResult, error) {
		runs.Add(1)
		return fakeResult(cr.name), nil
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	mk := func(topK int) []byte {
		b, _ := json.Marshal(PlanRequest{
			Machine:  "B",
			Workload: WorkloadSpec{Dataset: "PA"},
			Search:   SearchSpec{TopK: topK},
		})
		return b
	}
	_, r1, _ := postPlan(t, ts, mk(1), nil)
	_, r2, _ := postPlan(t, ts, mk(2), nil)
	if len(r1.Ranked) != 1 || len(r2.Ranked) != 2 {
		t.Fatalf("ranked lengths = %d/%d, want 1/2", len(r1.Ranked), len(r2.Ranked))
	}
	if !r2.CachedPlan {
		t.Error("top_k=2 request missed the cache entry the top_k=1 request created")
	}
	if runs.Load() != 1 {
		t.Errorf("planner ran %d times, want 1 (top_k must not fragment the key)", runs.Load())
	}
}

// TestEndpoints exercises /metrics, /debug/trace, /healthz and /v1/stats.
func TestEndpoints(t *testing.T) {
	s := newTestServer(t, Config{}, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()
	postPlan(t, ts, planBody(t, 100), nil)
	postPlan(t, ts, planBody(t, 100), nil) // plan-cache hit

	get := func(path string) (int, string, http.Header) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw), resp.Header
	}

	code, metrics, hdr := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	if !strings.Contains(hdr.Get("Content-Type"), "text/plain") {
		t.Errorf("/metrics content type = %q", hdr.Get("Content-Type"))
	}
	for _, want := range []string{
		"momentd_requests_total", "momentd_planner_runs_total",
		"momentd_plan_cache_hits_total", "momentd_queue_depth",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	code, trace, _ := get("/debug/trace")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace: status %d", code)
	}
	var traceDoc any
	if err := json.Unmarshal([]byte(trace), &traceDoc); err != nil {
		t.Errorf("/debug/trace is not valid JSON: %v", err)
	}

	code, body, _ := get("/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz: %d %q", code, body)
	}

	code, statsBody, _ := get("/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("/v1/stats: status %d", code)
	}
	var st Stats
	if err := json.Unmarshal([]byte(statsBody), &st); err != nil {
		t.Fatalf("/v1/stats: %v", err)
	}
	if st.Workers <= 0 || st.PlanCacheLen != 1 || st.PlanCacheHitRate <= 0 {
		t.Errorf("stats = %+v: want workers>0, plan_cache_len=1, hit rate>0", st)
	}
}

// TestBadRequests maps malformed input to 400 and wrong methods to 405.
func TestBadRequests(t *testing.T) {
	s := newTestServer(t, Config{}, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	cases := []struct {
		name string
		body string
		want int
	}{
		{"not json", "{", http.StatusBadRequest},
		{"unknown field", `{"machne":"B"}`, http.StatusBadRequest},
		{"retired search tolerance", `{"machine":"B","workload":{"dataset":"PA"},"search":{"tolerance":1e-4}}`, http.StatusBadRequest},
		{"unknown machine", `{"machine":"Z","workload":{"dataset":"PA"}}`, http.StatusBadRequest},
		{"missing dataset", `{"machine":"B","workload":{}}`, http.StatusBadRequest},
		{"unknown dataset", `{"machine":"B","workload":{"dataset":"XX"}}`, http.StatusBadRequest},
		{"bad model", `{"machine":"B","workload":{"dataset":"PA","model":"rnn"}}`, http.StatusBadRequest},
		{"bad fanout", `{"machine":"B","workload":{"dataset":"PA","fanouts":[0]}}`, http.StatusBadRequest},
		{"bad faults", `{"machine":"B","workload":{"dataset":"PA"},"faults":"nonsense"}`, http.StatusBadRequest},
		{"bad spec", `{"machine_spec":"gibberish","workload":{"dataset":"PA"}}`, http.StatusBadRequest},
		{"negative deadline", `{"machine":"B","workload":{"dataset":"PA"},"deadline_ms":-5}`, http.StatusBadRequest},
	}
	for _, c := range unplannableSpecs() {
		cases = append(cases, struct {
			name string
			body string
			want int
		}{c.name, string(specBody(t, c.spec, "PA")), http.StatusBadRequest})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, _ := postPlan(t, ts, []byte(tc.body), nil)
			if code != tc.want {
				t.Errorf("status %d, want %d", code, tc.want)
			}
		})
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/plan: status %d, want 405", resp.StatusCode)
	}
}

// specWith returns m's spec text with its first line starting with prefix
// replaced by line.
func specWith(m *topology.Machine, prefix, line string) string {
	lines := strings.Split(topology.FormatSpec(m), "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, prefix) {
			lines[i] = line
			break
		}
	}
	return strings.Join(lines, "\n")
}

// unplannableSpecs are machine specs that once passed validation yet
// crashed the planner or formatted to text that does not parse back.
func unplannableSpecs() []struct{ name, spec string } {
	b := topology.MachineB()
	return []struct{ name, spec string }{
		{"spec with no name", "point 0 root"},
		{"spec with 0 GPUs", specWith(b, "gpus", "gpus 0 mem=40GiB cachefrac=0.15")},
		{"cachefrac NaN", specWith(b, "gpus", "gpus 4 mem=40GiB cachefrac=NaN")},
		{"cachefrac above 1", specWith(b, "gpus", "gpus 4 mem=40GiB cachefrac=1.5")},
		{"cachefrac below 0", specWith(b, "gpus", "gpus 4 mem=40GiB cachefrac=-0.5")},
		{"NaN rate", specWith(b, "qpi", "qpi NaNGbps")},
		{"infinite rate", specWith(b, "dram", "dram 256GiB InfGbps")},
		{"NaN switch uplink", specWith(b, "point sw0", "point sw0 switch parent=rc0 uplink=NaNGbps bays=2 gpuslots=4")},
		{"NaN IOPS", specWith(b, "ssds", "ssds 8 cap=3932GiB bw=6GiB/s iops=NaN")},
		{"zero PCIe x4 rate", specWith(b, "pcie", "pcie x16=20GiB/s x4=0GiB/s")},
		{"zero SSD capacity", specWith(b, "ssds", "ssds 8 cap=0GiB bw=6GiB/s iops=930000")},
		{"NVLink without rate", topology.FormatSpec(b) + "nvlink 0 1\n"},
	}
}

// specBody is a plan request for a machine spec on a dataset.
func specBody(t *testing.T, spec, dataset string) []byte {
	t.Helper()
	b, err := json.Marshal(PlanRequest{MachineSpec: spec, Workload: WorkloadSpec{Dataset: dataset}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDrain: a draining server refuses new work with 503, reports draining
// on /healthz, and Drain returns once queued flights finish.
func TestDrain(t *testing.T) {
	s := New(Config{Workers: 1})
	s.plan = func(ctx context.Context, cr *canonReq) (*planResult, error) {
		return fakeResult(cr.name), nil
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	if code, _, _ := postPlan(t, ts, planBody(t, 100), nil); code != http.StatusOK {
		t.Fatalf("pre-drain request failed with %d", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := s.Drain(ctx); err != nil { // idempotent
		t.Fatalf("second drain: %v", err)
	}

	code, _, _ := postPlan(t, ts, planBody(t, 200), nil)
	if code != http.StatusServiceUnavailable {
		t.Errorf("post-drain plan: status %d, want 503", code)
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain healthz: status %d, want 503", resp.StatusCode)
	}
}

// TestPlannerErrorMapping: planner failures surface as 422, flight deadline
// expiry as 504.
func TestPlannerErrorMapping(t *testing.T) {
	s := newTestServer(t, Config{}, func(ctx context.Context, cr *canonReq) (*planResult, error) {
		switch cr.wl.BatchSize {
		case 1:
			return nil, fmt.Errorf("machine has no feasible placements")
		case 2:
			<-ctx.Done() // flight deadline fires
			return nil, ctx.Err()
		}
		return fakeResult(cr.name), nil
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	if code, _, _ := postPlan(t, ts, planBody(t, 1), nil); code != http.StatusUnprocessableEntity {
		t.Errorf("planner failure: status %d, want 422", code)
	}
	body, _ := json.Marshal(PlanRequest{
		Machine:    "B",
		Workload:   WorkloadSpec{Dataset: "PA", BatchSize: 2},
		DeadlineMS: 50,
	})
	if code, _, _ := postPlan(t, ts, body, nil); code != http.StatusGatewayTimeout {
		t.Errorf("deadline expiry: status %d, want 504", code)
	}
}

// TestEndToEndRealPlanner runs one request through the real planner stack:
// profile, placement search, DDAK, epoch simulation, fault degradation.
func TestEndToEndRealPlanner(t *testing.T) {
	if testing.Short() {
		t.Skip("real planner run in -short mode")
	}
	s := New(Config{Workers: 2})
	t.Cleanup(func() { _ = s.Close() })
	ts := httptest.NewServer(s)
	defer ts.Close()

	body, _ := json.Marshal(PlanRequest{
		Machine:  "B",
		Workload: WorkloadSpec{Dataset: "PA"},
		Search:   SearchSpec{TopK: 3},
		Faults:   "kill:ssd0@0.25",
	})
	code, pr, _ := postPlan(t, ts, body, map[string]string{"X-Moment-Tenant": "e2e"})
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	if pr.PredictedIOSec <= 0 || pr.Epoch.EpochSec <= 0 {
		t.Errorf("predicted=%v epoch=%v, want positive", pr.PredictedIOSec, pr.Epoch.EpochSec)
	}
	if len(pr.Placement.GPUAt) == 0 {
		t.Error("placement has no GPU slots")
	}
	if len(pr.Ranked) == 0 || len(pr.Ranked) > 3 {
		t.Errorf("ranked has %d entries, want 1..3", len(pr.Ranked))
	}
	for i := 1; i < len(pr.Ranked); i++ {
		if pr.Ranked[i].PredictedIOSec < pr.Ranked[i-1].PredictedIOSec {
			t.Errorf("ranking out of order at %d: %v < %v", i,
				pr.Ranked[i].PredictedIOSec, pr.Ranked[i-1].PredictedIOSec)
		}
	}
	if len(pr.Bins) == 0 {
		t.Error("response has no data-placement bins")
	}
	if pr.Faults == nil || pr.Faults.Injected == 0 {
		t.Errorf("faulted request returned no degradation report: %+v", pr.Faults)
	}
	if pr.PlanMS <= 0 {
		t.Error("plan_ms not reported for a live run")
	}

	// Identical problem from another tenant: plan-cache hit, isolated copy.
	code, pr2, _ := postPlan(t, ts, body, map[string]string{"X-Moment-Tenant": "e2e-b"})
	if code != http.StatusOK || !pr2.CachedPlan {
		t.Fatalf("second tenant: code=%d cached=%v, want 200/true", code, pr2.CachedPlan)
	}
	if pr2.Tenant != "e2e-b" || pr2.PredictedIOSec != pr.PredictedIOSec {
		t.Errorf("cached response mismatch: tenant=%q predicted=%v vs %v",
			pr2.Tenant, pr2.PredictedIOSec, pr.PredictedIOSec)
	}
}

// TestHostileSpecsRealPlanner sends the real planner specs that used to
// take the daemon down. GPU caches that hold the whole feature set plan,
// with every read a GPU-cache hit; specs the planner cannot plan are 400s;
// and the daemon keeps serving.
func TestHostileSpecsRealPlanner(t *testing.T) {
	if testing.Short() {
		t.Skip("real planner runs in -short mode")
	}
	s := New(Config{Workers: 2})
	t.Cleanup(func() { _ = s.Close() })
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, c := range []struct{ dataset, gpus string }{
		{"PA", "gpus 4 mem=500GiB cachefrac=1"},
		{"CL", "gpus 4 mem=100000GiB cachefrac=1"},
	} {
		code, pr, _ := postPlan(t, ts, specBody(t, specWith(topology.MachineB(), "gpus", c.gpus), c.dataset), nil)
		if code != http.StatusOK {
			t.Fatalf("%s with %q: status %d, want 200", c.dataset, c.gpus, code)
		}
		if math.Abs(pr.Epoch.HitGPU-1) > 1e-9 || pr.Epoch.IOSec != 0 {
			t.Errorf("%s with %q: GPU hit rate %v, I/O %v s; want 1 and 0", c.dataset, c.gpus, pr.Epoch.HitGPU, pr.Epoch.IOSec)
		}
	}
	for _, c := range unplannableSpecs() {
		if code, _, _ := postPlan(t, ts, specBody(t, c.spec, "PA"), nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, code)
		}
	}
	if code, _, _ := postPlan(t, ts, planBody(t, 0), nil); code != http.StatusOK {
		t.Errorf("after the hostile specs: status %d, want 200", code)
	}
}

// TestPlanCacheKeysExactSpec: the plan cache keys on the exact machine.
// Two specs that differ only in the fifth decimal of cachefrac plan apart,
// while a named machine and its FormatSpec text share one entry.
func TestPlanCacheKeysExactSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("real planner runs in -short mode")
	}
	s := New(Config{Workers: 2})
	t.Cleanup(func() { _ = s.Close() })
	ts := httptest.NewServer(s)
	defer ts.Close()

	b := topology.MachineB()
	code, hi, _ := postPlan(t, ts, specBody(t, specWith(b, "gpus", "gpus 4 mem=40GiB cachefrac=0.15004"), "PA"), nil)
	if code != http.StatusOK {
		t.Fatalf("cachefrac=0.15004: status %d", code)
	}
	code, lo, _ := postPlan(t, ts, specBody(t, specWith(b, "gpus", "gpus 4 mem=40GiB cachefrac=0.14996"), "PA"), nil)
	if code != http.StatusOK {
		t.Fatalf("cachefrac=0.14996: status %d", code)
	}
	if lo.CachedPlan || lo.Epoch.EpochSec == hi.Epoch.EpochSec {
		t.Errorf("cachefrac=0.14996 served cached=%v epoch %v s, cachefrac=0.15004 planned %v s; want a fresh plan",
			lo.CachedPlan, lo.Epoch.EpochSec, hi.Epoch.EpochSec)
	}

	for _, m := range []*topology.Machine{topology.MachineA(), b} {
		named, _ := json.Marshal(PlanRequest{Machine: m.Name, Workload: WorkloadSpec{Dataset: "PA"}})
		if code, pr, _ := postPlan(t, ts, named, nil); code != http.StatusOK || pr.CachedPlan {
			t.Fatalf("machine %s by name: status %d, want a fresh 200", m.Name, code)
		}
		code, pr, _ := postPlan(t, ts, specBody(t, topology.FormatSpec(m), "PA"), nil)
		if code != http.StatusOK || !pr.CachedPlan {
			t.Errorf("machine %s as spec text: status %d, cached %v; want the named request's entry",
				m.Name, code, pr != nil && pr.CachedPlan)
		}
	}
}

// TestTenantLabelCap: tenants beyond the cap aggregate under "other" so a
// tenant flood cannot explode metric cardinality.
func TestTenantLabelCap(t *testing.T) {
	s := newTestServer(t, Config{TenantLabelCap: 2}, nil)
	if got := s.tenantLabel("a"); got != "a" {
		t.Errorf("first tenant label = %q", got)
	}
	if got := s.tenantLabel("b"); got != "b" {
		t.Errorf("second tenant label = %q", got)
	}
	for i := 0; i < 100; i++ {
		if got := s.tenantLabel(fmt.Sprintf("flood-%d", i)); got != "other" {
			t.Fatalf("over-cap tenant label = %q, want other", got)
		}
	}
	if n := s.labels.Len(); n != 2 {
		t.Errorf("label map grew to %d entries under flood, want 2", n)
	}
	if got := s.tenantLabel("a"); got != "a" {
		t.Errorf("pre-cap tenant lost its label: %q", got)
	}
}
