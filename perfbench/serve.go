package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"moment"
	"moment/internal/server"
	"moment/internal/topology"
	"moment/internal/trainsim"
)

const (
	// serveClients is the number of client connections, each a closed
	// loop: nproc on the 2-core reference machine.
	serveClients = 2
	// Each block of serveBlock requests of a client holds exactly one
	// one-off problem, at a seeded position: a fixed 2% of cold plans.
	serveBlock = 50
	// servePrefix is each client's deterministic prefix: sixteen blocks,
	// so sixteen one-offs on serve.
	servePrefix = 16 * serveBlock
	// serveMaxReqs bounds each client's generated sequence.
	serveMaxReqs = 60000
	serveTenants = 64
	// serveTopK is the top_k of the requests that ask for a ranking.
	serveTopK = 10
)

var serveWorkload = &workload{
	name: "serve",
	why:  "2 connections (= nproc), closed loops, ops generated from the seed, to an in-process momentd: Zipf popular plan-cache hits set p50, a fixed 2% of one-off cold plans the tail",
	op: "one POST /v1/plan per op against server.New (default config) on a loopback listener; 2 client connections, closed loops; " +
		"popular set A/B x PA/IG/UK/CL x GraphSAGE/GAT, Zipf problems and tenants, a quarter as machine_spec text, a quarter with top_k 10; " +
		"one one-off problem (A or B, new batch size) in every 50 requests of a client",
	tailPct: 99.9,
	open:    func(seed int64) (session, error) { return openServe(seed, false) },
}

var serveHitsWorkload = &workload{
	name: "serve-hits",
	why:  "2 callers (= nproc), closed loops, ops generated from the seed, of momentd's HTTP handler in process: popular set only, so every request is a plan-cache hit and the server layer runs alone",
	op: "one POST /v1/plan per op, handed by an http.Client straight to the ServeHTTP of server.New (default config), with no listener; 2 callers, closed loops; " +
		"popular set A/B x PA/IG/UK/CL x GraphSAGE/GAT, Zipf problems and tenants, a quarter as machine_spec text, a quarter with top_k 10; " +
		"no one-off problems, so every request is served from the plan cache",
	tailPct: 99.99,
	open:    func(seed int64) (session, error) { return openServe(seed, true) },
}

// serveProblem is one planning problem of the mix.
type serveProblem struct {
	machine string // "A" or "B"
	dataset string
	model   string
	batch   int // 0 = the default batch size
}

// serveReq is one generated request: a problem, a variant of how it is
// asked (bit 0: machine_spec text; bit 1: top_k), and a tenant.
type serveReq struct {
	problem int32
	variant uint8
	tenant  uint16
}

const (
	variantSpec = 1 << iota
	variantTopK
)

// serveProblems returns the popular set, most popular first under the
// Zipf draw.
func serveProblems() []serveProblem {
	var out []serveProblem
	for _, ds := range datasetNames {
		for _, m := range []string{"A", "B"} {
			for _, model := range []string{"graphsage", "gat"} {
				out = append(out, serveProblem{machine: m, dataset: ds, model: model})
			}
		}
	}
	return out
}

// serveOps generates each client's request sequence for seed, plus the
// one-off problems they reference (indices after the popular set). A
// client's one-offs cycle through seeded permutations of the sixteen
// machine×dataset×model combinations, so its first sixteen cover each
// once, and their batch sizes never repeat. With hitsOnly there are no
// one-offs.
func serveOps(seed int64, perClient int, hitsOnly bool) ([serveClients][]serveReq, []serveProblem) {
	popular := serveProblems()
	rng := rand.New(rand.NewSource(seed))
	problemZipf := rand.NewZipf(rng, 1.3, 2, uint64(len(popular)-1))
	tenantZipf := rand.NewZipf(rng, 1.3, 2, serveTenants-1)
	// One-off batch sizes: distinct draws from [4000, 12000) other than
	// the default 8000, so no one-off shares a plan-cache entry.
	batches := rng.Perm(8000)
	var oneOffs []serveProblem
	var seqs [serveClients][]serveReq
	for c := range seqs {
		var combos []int
		seq := make([]serveReq, 0, perClient)
		for len(seq) < perClient {
			cold := rng.Intn(serveBlock)
			if hitsOnly {
				cold = -1
			}
			for k := 0; k < serveBlock && len(seq) < perClient; k++ {
				r := serveReq{tenant: uint16(tenantZipf.Uint64())}
				if k == cold {
					if len(combos) == 0 {
						combos = rng.Perm(len(popular))
					}
					pr := popular[combos[0]]
					combos = combos[1:]
					if pr.batch = 4000 + batches[len(oneOffs)]; pr.batch == 8000 {
						pr.batch = 12000
					}
					oneOffs = append(oneOffs, pr)
					r.problem = int32(len(popular) + len(oneOffs) - 1)
				} else {
					r.problem = int32(problemZipf.Uint64())
				}
				if rng.Intn(4) == 0 {
					r.variant |= variantSpec
				}
				if rng.Intn(4) == 0 {
					r.variant |= variantTopK
				}
				seq = append(seq, r)
			}
		}
		seqs[c] = seq
	}
	return seqs, oneOffs
}

// planResp is the part of a /v1/plan response the checks read.
type planResp struct {
	CachedPlan bool `json:"cached_plan"`
	Placement  struct {
		GPUAt []string `json:"gpu_at"`
		SSDAt []string `json:"ssd_at"`
	} `json:"placement"`
	PredictedIOSec float64 `json:"predicted_io_sec"`
	Epoch          struct {
		EpochSec float64 `json:"epoch_sec"`
		IOSec    float64 `json:"io_sec"`
	} `json:"epoch"`
	PlanMS float64 `json:"plan_ms"`
}

func (r *planResp) out() planOut {
	return planOut{
		placement: placementString(&topology.Placement{GPUAt: r.Placement.GPUAt, SSDAt: r.Placement.SSDAt}),
		predicted: r.PredictedIOSec,
		simIO:     r.Epoch.IOSec,
		epoch:     r.Epoch.EpochSec,
	}
}

// sample is one completed request as the client saw it.
type sample struct {
	lat    float64 // ms
	cached bool
	queue  float64 // ms: latency minus the response's plan_ms, misses only
}

type serveSession struct {
	seed     int64
	hitsOnly bool
	problems []serveProblem // popular set, then one-offs
	seqs     [serveClients][]serveReq
	specs    map[string]string // machine name -> FormatSpec text
	bodies   [][]byte          // popular problem p, variant v at p*4+v
	tenants  []string
	// popRef holds each popular problem's plan as its warm-up miss served
	// it; clients only read it.
	popRef []planOut
	// oneOffRef holds the plans of one-off problems in the prefix.
	mu        sync.Mutex
	oneOffRef map[int32]planOut
	// perClient is how many requests each client sends in a run.
	perClient int

	srv     *server.Server
	hs      *http.Server
	served  chan error
	url     string
	clients [serveClients]*http.Client
	used    bool
	// setupFails are failed checks of the warm-up.
	setupFails []string

	// Per-run observations.
	samples [serveClients][]sample
	before  map[string]float64
}

func openServe(seed int64, hitsOnly bool) (session, error) {
	s := &serveSession{seed: seed, hitsOnly: hitsOnly, oneOffRef: map[int32]planOut{}, specs: map[string]string{}}
	s.seqs, s.problems = serveOps(seed, serveMaxReqs, hitsOnly)
	s.problems = append(serveProblems(), s.problems...)
	for _, m := range []*topology.Machine{topology.MachineA(), topology.MachineB()} {
		s.specs[m.Name] = topology.FormatSpec(m)
	}
	for p := range serveProblems() {
		for v := uint8(0); v < 4; v++ {
			s.bodies = append(s.bodies, s.encode(int32(p), v))
		}
	}
	for t := 0; t < serveTenants; t++ {
		s.tenants = append(s.tenants, fmt.Sprintf("tenant-%03d", t))
	}
	if err := s.start(); err != nil {
		return nil, err
	}
	return s, nil
}

// body returns the request body of problem p asked as variant asks.
func (s *serveSession) body(p int32, variant uint8) []byte {
	if int(p)*4 < len(s.bodies) {
		return s.bodies[int(p)*4+int(variant)]
	}
	return s.encode(p, variant)
}

func (s *serveSession) encode(p int32, variant uint8) []byte {
	pr := s.problems[p]
	req := server.PlanRequest{Workload: server.WorkloadSpec{Dataset: pr.dataset, Model: pr.model, BatchSize: pr.batch}}
	if variant&variantSpec != 0 {
		req.MachineSpec = s.specs[pr.machine]
	} else {
		req.Machine = pr.machine
	}
	if variant&variantTopK != 0 {
		req.Search.TopK = serveTopK
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a PlanRequest always encodes
	}
	return b
}

// handlerTransport hands each request straight to a handler in process.
// serve-hits uses it: over the loopback network, the poller's wake-ups and
// the scheduler's spinning between the two ends made the CPU time per hit
// range from 0.23 to 0.31 ms over five runs on the 2-vCPU reference host,
// against 0.19 to 0.21 ms in process, drowning the hit path it measures.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// start runs a fresh daemon, on a loopback listener unless the session is
// hits-only, and warms the popular set: each problem is planned once
// through a request naming its machine, then asked again as machine_spec
// text (FormatSpec of the same machine) and with top_k, both of which must
// be served from the entry the named request created.
func (s *serveSession) start() error {
	s.srv = server.New(server.Config{})
	var rt http.RoundTripper = handlerTransport{s.srv}
	s.url = "http://momentd"
	s.hs = nil
	if !s.hitsOnly {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		s.hs = &http.Server{Handler: s.srv}
		s.served = make(chan error, 1)
		go func() { s.served <- s.hs.Serve(ln) }()
		s.url = "http://" + ln.Addr().String()
		rt = &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	}
	for c := range s.clients {
		s.clients[c] = &http.Client{
			Transport: rt,
			// Past the daemon's own 60 s default deadline a request is
			// hung: fail it rather than the whole run.
			Timeout: 90 * time.Second,
		}
	}
	s.setupFails = nil
	s.popRef = make([]planOut, len(serveProblems()))
	for p := int32(0); p < int32(len(s.popRef)); p++ {
		for _, v := range []uint8{0, variantSpec, variantTopK, variantSpec | variantTopK} {
			resp, _, err := s.post(s.clients[0], s.body(p, v), s.tenants[0])
			if err != nil {
				s.setupFails = append(s.setupFails, fmt.Sprintf("warm-up: problem %d variant %d: %v", p, v, err))
				continue
			}
			if v == 0 {
				if resp.CachedPlan {
					s.setupFails = append(s.setupFails, fmt.Sprintf("warm-up: first request for problem %d came from the plan cache", p))
				}
				s.popRef[p] = resp.out()
				continue
			}
			if !resp.CachedPlan {
				s.setupFails = append(s.setupFails, fmt.Sprintf(
					"warm-up: problem %d variant %d missed the entry of the request naming machine %s (parse/format fixpoint)",
					p, v, s.problems[p].machine))
			}
			if got := resp.out(); got != s.popRef[p] {
				s.setupFails = append(s.setupFails, fmt.Sprintf("warm-up: problem %d variant %d served %+v, entry holds %+v", p, v, got, s.popRef[p]))
			}
		}
	}
	return nil
}

// stop shuts the listener, if any, and the daemon down and waits for both.
func (s *serveSession) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var err error
	if s.hs != nil {
		for _, c := range s.clients {
			c.CloseIdleConnections()
		}
		err = s.hs.Shutdown(ctx)
		if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
	}
	if derr := s.srv.Drain(ctx); err == nil {
		err = derr
	}
	return err
}

func (s *serveSession) close() error { return s.stop() }

func (s *serveSession) setupChecks() []string { return s.setupFails }

// post sends one plan request and decodes the response. lat covers the
// round trip up to the last byte of the body.
func (s *serveSession) post(c *http.Client, body []byte, tenant string) (*planResp, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, s.url+"/v1/plan", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Moment-Tenant", tenant)
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return nil, time.Since(t0), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return nil, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, lat, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var pr planResp
	if err := json.Unmarshal(data, &pr); err != nil {
		return nil, lat, fmt.Errorf("decode response: %w", err)
	}
	return &pr, lat, nil
}

// serveRate and serveHitsRate are each client's requests per second of
// the timed phase: a run of d sends d × rate requests per client (at least
// the prefix, at most serveMaxReqs), which takes about 60% of d on the
// 2-vCPU reference host,
// with d as a cap. A fixed count keeps what the daemon retains, and with
// it rss_mb and the /metrics counts, independent of how fast the run went.
const (
	serveRate     = 300
	serveHitsRate = 3000
)

func (s *serveSession) run(d time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{}
	rate := serveRate
	if s.hitsOnly {
		rate = serveHitsRate
	}
	s.perClient = min(max(servePrefix, int(d.Seconds()*float64(rate))), serveMaxReqs)
	if s.used {
		// A second run starts again from a fresh, warmed daemon so that it
		// sees the same cache states as the first.
		if err := s.stop(); err != nil {
			return nil, err
		}
		if err := s.start(); err != nil {
			return nil, err
		}
		ph.failures = append(ph.failures, s.setupFails...)
	}
	s.used = true
	var err error
	if s.before, err = s.scrape(); err != nil {
		return nil, err
	}
	var fails [serveClients][]string
	deadline := time.Now().Add(d)
	measure(ph, func() {
		var wg sync.WaitGroup
		for c := 0; c < serveClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				s.samples[c], fails[c] = s.client(c, deadline, tr)
			}(c)
		}
		wg.Wait()
	})
	ph.lat = make([]float64, 0, serveClients*s.perClient)
	for c := 0; c < serveClients; c++ {
		for _, smp := range s.samples[c] {
			ph.lat = append(ph.lat, smp.lat)
		}
		ph.failures = append(ph.failures, fails[c]...)
	}
	return ph, nil
}

// client runs client c's closed loop over its first s.perClient requests,
// or until deadline once its prefix is done, checking every response.
func (s *serveSession) client(c int, deadline time.Time, tr *tracer) ([]sample, []string) {
	hc := s.clients[c]
	samples := make([]sample, 0, s.perClient)
	var fails []string
	popular := int32(len(serveProblems()))
	for k, r := range s.seqs[c][:s.perClient] {
		if k >= servePrefix && !time.Now().Before(deadline) {
			break
		}
		body := s.body(r.problem, r.variant)
		var resp *planResp
		var lat time.Duration
		var err error
		if tr == nil {
			resp, lat, err = s.post(hc, body, s.tenants[r.tenant])
		} else {
			// The closure is made before the operation's span opens, so
			// its allocation is not billed to the span's bookkeeping.
			post := func() (err error) {
				resp, lat, err = s.post(hc, body, s.tenants[r.tenant])
				return err
			}
			op := c*serveMaxReqs + k
			id := tr.begin(opSpan, op, -1)
			err = tr.call("server.POST /v1/plan", op, id, post)
			tr.end(id)
			if err == nil && r.variant&variantSpec != 0 {
				s.replaySpec(tr, op, s.problems[r.problem].machine)
			}
		}
		smp := sample{lat: ms(lat)}
		if err != nil {
			fails = append(fails, fmt.Sprintf("client %d request %d: %v", c, k, err))
			samples = append(samples, smp)
			continue
		}
		smp.cached = resp.CachedPlan
		if !resp.CachedPlan {
			smp.queue = smp.lat - resp.PlanMS
		}
		samples = append(samples, smp)
		got := resp.out()
		if r.problem < popular {
			// A popular problem's entry was filled by its warm-up miss:
			// every request for it, named or as spec text, must be served
			// from that entry with that plan.
			if want := s.popRef[r.problem]; got != want || !resp.CachedPlan {
				fails = append(fails, fmt.Sprintf("client %d request %d: problem %d served %+v (cached %v), its entry holds %+v",
					c, k, r.problem, got, resp.CachedPlan, want))
			}
			continue
		}
		if resp.CachedPlan {
			fails = append(fails, fmt.Sprintf("client %d request %d: one-off problem %d came from the plan cache", c, k, r.problem))
		}
		if k < servePrefix {
			s.mu.Lock()
			s.oneOffRef[r.problem] = got
			s.mu.Unlock()
		}
	}
	return samples, fails
}

// specReplay names the span of a machine_spec round-trip replay.
const specReplay = "topology.ParseSpec+FormatSpec"

// replaySpec re-runs, outside the operation's span, the machine_spec
// round trip the daemon performs for a spec-text request.
func (s *serveSession) replaySpec(tr *tracer, op int, machine string) {
	text := s.specs[machine]
	_ = tr.call(specReplay, op, -1, func() error {
		m, err := topology.ParseSpec(strings.NewReader(text))
		if err == nil {
			_ = topology.FormatSpec(m)
		}
		return err
	})
}

// scrape reads the daemon's /metrics exposition, summing each counter
// family over its label sets.
func (s *serveSession) scrape() (map[string]float64, error) {
	resp, err := s.clients[0].Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out, sc.Err()
}

// deterministic averages over the workload's distinct problems: the
// popular set, as its warm-up misses served it (every later request for a
// popular problem is checked to get the same plan), and on serve the
// sixteen one-offs of each client's prefix.
func (s *serveSession) deterministic() (simEpoch, predErr float64) {
	outs := append([]planOut(nil), s.popRef...)
	keys := make([]int32, 0, len(s.oneOffRef))
	for p := range s.oneOffRef {
		keys = append(keys, p)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, p := range keys {
		outs = append(outs, s.oneOffRef[p])
	}
	var epochs []float64
	for _, out := range outs {
		epochs = append(epochs, out.epoch)
		predErr = math.Max(predErr, out.predErr())
	}
	return mean(epochs), predErr
}

// verify compares a seeded sample of served plans — three popular
// problems and two one-offs of the prefix — with moment.Optimize on the
// same problem.
func (s *serveSession) verify() []string {
	rng := rand.New(rand.NewSource(s.seed))
	served := map[int32]planOut{}
	for k := 0; k < 3; k++ {
		p := int32(rng.Intn(len(s.popRef)))
		served[p] = s.popRef[p]
	}
	oneOffs := make([]int32, 0, len(s.oneOffRef))
	for p := range s.oneOffRef {
		oneOffs = append(oneOffs, p)
	}
	sort.Slice(oneOffs, func(i, j int) bool { return oneOffs[i] < oneOffs[j] })
	for k := 0; k < 2 && k < len(oneOffs); k++ {
		served[oneOffs[k]] = s.oneOffRef[oneOffs[k]]
	}
	var fails []string
	for p, got := range served {
		pr := s.problems[p]
		m := topology.MachineA()
		if pr.machine == "B" {
			m = topology.MachineB()
		}
		ds, err := moment.DatasetByName(pr.dataset)
		if err != nil {
			fails = append(fails, err.Error())
			continue
		}
		model := moment.GraphSAGE
		if pr.model == "gat" {
			model = moment.GAT
		}
		plan, err := moment.Optimize(m, trainsim.Workload{Dataset: ds, Model: model, BatchSize: pr.batch})
		if err != nil {
			fails = append(fails, fmt.Sprintf("optimize problem %d: %v", p, err))
			continue
		}
		want, err := outOf(plan.Placement, plan.PredictedIO.Sec(), plan.Epoch)
		if err != nil {
			fails = append(fails, fmt.Sprintf("optimize problem %d: %v", p, err))
			continue
		}
		if got != want {
			fails = append(fails, fmt.Sprintf("problem %d: served %+v, moment.Optimize %+v", p, got, want))
		}
	}
	return fails
}

func (s *serveSession) layers(ph *phase, spans []span, out map[string]float64) error {
	var hits, misses, queue []float64
	for c := range s.samples {
		for _, smp := range s.samples[c] {
			if smp.cached {
				hits = append(hits, smp.lat)
			} else {
				misses = append(misses, smp.lat)
				queue = append(queue, smp.queue)
			}
		}
	}
	out["server.hit_ms_p50"] = median(hits)
	out["server.miss_ms_p50"] = median(misses)
	out["server.queue_ms"] = median(queue)
	out["server.plan_cache_hit_frac"] = ratio(float64(len(hits)), float64(len(hits)+len(misses)))
	after, err := s.scrape()
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	delta := func(name string) float64 { return after[name] - s.before[name] }
	out["server.planner_runs"] = delta("momentd_planner_runs_total")
	out["server.coalesced"] = delta("momentd_coalesced_total")
	out["server.shed"] = delta("momentd_shed_total")
	st, err := s.stats()
	if err != nil {
		return fmt.Errorf("read /v1/stats: %w", err)
	}
	out["scorecache.hit_frac"] = st.ScoreCacheHitRate
	replays := 0
	for _, sp := range spans {
		if sp.Name == specReplay {
			replays++
		}
	}
	out["topology.spec_roundtrip_ms"] = ratio(ms(selfTimes(spans)[specReplay]), float64(replays))
	out["obs.spans_retained"] = float64(s.srv.Observer().Tracer().Len())
	return nil
}

func (s *serveSession) stats() (*server.Stats, error) {
	resp, err := s.clients[0].Get(s.url + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st server.Stats
	return &st, json.NewDecoder(resp.Body).Decode(&st)
}
