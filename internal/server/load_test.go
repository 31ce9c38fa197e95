package server

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"moment/internal/obs"
)

// TestLoadZipfTenants drives the load momentd is built for through the
// real planner: 1,000 requests from 32 concurrent clients, each naming one
// of 200 tenants and one of 4 problems, both drawn zipf-skewed (s=1.3,
// v=2, seed 1). The problems are machine B on PA at four batch sizes.
// Coalescing and the plan cache must collapse the mix onto at most one
// planner run per problem and serve at least half of it from the cache;
// admission control may shed at most 5% of it; and every request is
// answered 200 or 429, as the server's own accounting agrees.
func TestLoadZipfTenants(t *testing.T) {
	if testing.Short() {
		t.Skip("real planner runs in -short mode")
	}
	const (
		tenants  = 200
		requests = 1000
		clients  = 32
		problems = 4
	)
	s := New(Config{})
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	bodies := make([][]byte, problems)
	for p := range bodies {
		bodies[p] = planBody(t, 8000+500*p)
	}
	rng := rand.New(rand.NewSource(1))
	tenantZipf := rand.NewZipf(rng, 1.3, 2, tenants-1)
	problemZipf := rand.NewZipf(rng, 1.3, 2, problems-1)
	type job struct {
		tenant string
		body   []byte
	}
	jobs := make([]job, requests)
	for i := range jobs {
		jobs[i].tenant = fmt.Sprintf("tenant-%03d", tenantZipf.Uint64())
		jobs[i].body = bodies[problemZipf.Uint64()]
	}

	codes := make([]int, requests)
	next := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				codes[i] = postStatus(ts, jobs[i].tenant, jobs[i].body)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()

	var ok, rejected int
	for i, code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Errorf("request %d: status %d, want 200 or 429", i, code)
		}
	}
	if ok+rejected != requests {
		t.Errorf("%d 200s + %d 429s != %d requests", ok, rejected, requests)
	}
	served := s.obs.Counter("momentd_requests_total", obs.L("code", "200")).Value()
	shed := s.obs.Counter("momentd_requests_total", obs.L("code", "429")).Value()
	if int(served) != ok || int(shed) != rejected {
		t.Errorf("server counted %v 200s and %v 429s, clients saw %d and %d", served, shed, ok, rejected)
	}
	if rejected*20 > requests {
		t.Errorf("shed %d of %d requests, want at most 5%%", rejected, requests)
	}
	if runs := s.obs.Counter("momentd_planner_runs_total").Value(); runs > problems {
		t.Errorf("%v planner runs for %d distinct problems: coalescing or the plan cache is broken", runs, problems)
	}
	coalesced := counterFamily(s, "momentd_coalesced_total")
	hits := counterFamily(s, "momentd_plan_cache_hits_total")
	t.Logf("%d served, %d shed, %v coalesced, %v plan-cache hits", ok, rejected, coalesced, hits)
	if coalesced+hits == 0 {
		t.Error("the skewed mix produced no coalesced request and no plan-cache hit")
	}
	if hits < requests/2 {
		t.Errorf("plan-cache hits = %v of %d requests; the skewed mix should mostly hit", hits, requests)
	}
}

// postStatus posts one plan request as tenant and returns its status code,
// or -1 when the request never got a response.
func postStatus(ts *httptest.Server, tenant string, body []byte) int {
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/plan", bytes.NewReader(body))
	if err != nil {
		return -1
	}
	req.Header.Set("X-Moment-Tenant", tenant)
	resp, err := ts.Client().Do(req)
	if err != nil {
		return -1
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// counterFamily sums a counter across its label sets. Snapshot keys are
// full series names: the bare name or name{label=...}.
func counterFamily(s *Server, name string) float64 {
	total := 0.0
	for series, v := range s.obs.Metrics().Snapshot() {
		if series == name || strings.HasPrefix(series, name+"{") {
			total += v
		}
	}
	return total
}
