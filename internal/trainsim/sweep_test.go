package trainsim

import (
	"math"
	"testing"

	"moment/internal/faults"
	"moment/internal/gnn"
	"moment/internal/obs"
	"moment/internal/topology"
)

func sweep(t *testing.T, cfg Config, opt SweepOptions) *SweepResult {
	t.Helper()
	r, err := SimulateEpochs(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// reference runs the horizon loop with the memo off: every epoch is
// priced on the fabric.
func reference(t *testing.T, cfg Config, opt SweepOptions) *SweepResult {
	t.Helper()
	r, err := simulateEpochs(cfg, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSweepHealthyFleetCollapsesToOneResim(t *testing.T) {
	cfg := fourSSDCfg(t)
	nominal := simulate(t, cfg)

	res := sweep(t, cfg, SweepOptions{Epochs: 50})
	if res.Resims != 1 || res.CacheHits != 49 {
		t.Errorf("healthy sweep: resims=%d hits=%d, want 1/49", res.Resims, res.CacheHits)
	}
	if math.Abs(res.Total.Sec()-50*nominal.EpochTime.Sec()) > 1e-6 {
		t.Errorf("total %v, want 50 x %v", res.Total, nominal.EpochTime)
	}
	for e, d := range res.EpochTimes {
		if math.Abs(d-nominal.EpochTime.Sec()) > 1e-9 {
			t.Fatalf("epoch %d duration %v, want nominal %v", e, d, nominal.EpochTime.Sec())
		}
	}

	base := reference(t, cfg, SweepOptions{Epochs: 50})
	if base.Resims != 50 || base.CacheHits != 0 {
		t.Errorf("baseline sweep: resims=%d hits=%d, want 50/0", base.Resims, base.CacheHits)
	}
	if math.Abs(base.Total.Sec()-res.Total.Sec()) > 1e-6 {
		t.Errorf("baseline total %v != cached total %v", base.Total, res.Total)
	}
}

func TestSweepDeltaMatchesBaselineUnderFaults(t *testing.T) {
	cfg := fourSSDCfg(t)
	nominal := simulate(t, cfg)
	ep := nominal.EpochTime.Sec()
	// Faults confined to the first few epochs: a throttle spanning epoch 1,
	// an error burst inside epoch 3, a GPU straggler inside epoch 5. From
	// epoch ~7 onward the fleet is quiet and every signature repeats.
	cfg.Faults = &faults.Schedule{Seed: 3, Events: []faults.Event{
		faults.ThrottleSSD(1, 1.2*ep, 0.5, ep),
		faults.Burst(2, 3.4*ep, 0.3, 0.5*ep),
		faults.Straggle(0, 5.2*ep, 0.6, 0.4*ep),
	}}

	delta := sweep(t, cfg, SweepOptions{Epochs: 40})
	base := reference(t, cfg, SweepOptions{Epochs: 40})
	if len(delta.EpochTimes) != 40 || len(base.EpochTimes) != 40 {
		t.Fatalf("epoch counts: delta %d, base %d", len(delta.EpochTimes), len(base.EpochTimes))
	}
	for e := range base.EpochTimes {
		if math.Abs(delta.EpochTimes[e]-base.EpochTimes[e]) > 1e-9 {
			t.Errorf("epoch %d drifted: delta %v, base %v", e, delta.EpochTimes[e], base.EpochTimes[e])
		}
	}
	if math.Abs(delta.Total.Sec()-base.Total.Sec()) > 1e-6 {
		t.Errorf("totals drifted: delta %v, base %v", delta.Total, base.Total)
	}
	if delta.CacheHits < 25 {
		t.Errorf("cache hits %d, want most of the quiet tail (>= 25)", delta.CacheHits)
	}
	if base.CacheHits != 0 || base.Resims != 40 {
		t.Errorf("baseline used the cache: %d hits, %d resims", base.CacheHits, base.Resims)
	}
	// Faulted epochs must actually cost time.
	if delta.EpochTimes[1] <= ep || delta.Total.Sec() <= 40*ep {
		t.Errorf("faults did not inflate the sweep: epoch1 %v vs nominal %v", delta.EpochTimes[1], ep)
	}
}

func TestSweepCarriesDeadSSDForward(t *testing.T) {
	cfg := fourSSDCfg(t)
	nominal := simulate(t, cfg)
	ep := nominal.EpochTime.Sec()
	cfg.Faults = &faults.Schedule{Seed: 7, Events: []faults.Event{
		faults.Kill(2, 1.5*ep),
	}}

	o := obs.New()
	cfg.Observer = o
	res := sweep(t, cfg, SweepOptions{Epochs: 10})
	if len(res.DeadSSDs) != 1 || res.DeadSSDs[0] != 2 {
		t.Fatalf("dead SSDs %v, want [2]", res.DeadSSDs)
	}
	// The failure epoch pays the stall; every epoch after it runs degraded
	// on three SSDs, slower than nominal but steady-state.
	if res.EpochTimes[1] <= res.EpochTimes[0] {
		t.Errorf("failure epoch %v not slower than healthy epoch %v", res.EpochTimes[1], res.EpochTimes[0])
	}
	for e := 3; e < 10; e++ {
		if math.Abs(res.EpochTimes[e]-res.EpochTimes[2]) > 1e-9 {
			t.Errorf("degraded steady state drifted at epoch %d: %v vs %v", e, res.EpochTimes[e], res.EpochTimes[2])
		}
		if res.EpochTimes[e] <= ep {
			t.Errorf("epoch %d on 3 SSDs (%v) not slower than nominal %v", e, res.EpochTimes[e], ep)
		}
	}
	// Steady-state degraded epochs share one signature: at most the healthy
	// epoch, the failure epoch, and one degraded epoch need fabric runs.
	if res.Resims > 3 {
		t.Errorf("resims %d, want <= 3 (healthy, failure, degraded steady-state)", res.Resims)
	}
	base := reference(t, cfg, SweepOptions{Epochs: 10})
	for e := range base.EpochTimes {
		if math.Abs(res.EpochTimes[e]-base.EpochTimes[e]) > 1e-9 {
			t.Errorf("epoch %d drifted from baseline: %v vs %v", e, res.EpochTimes[e], base.EpochTimes[e])
		}
	}
	if hits := o.Counter("sim_delta_cache_hits_total").Value(); hits != float64(res.CacheHits+base.CacheHits) {
		t.Errorf("sim_delta_cache_hits_total = %v, want %v", hits, res.CacheHits)
	}
	if epochs := o.Counter("sim_delta_epochs_total").Value(); epochs != 20 {
		t.Errorf("sim_delta_epochs_total = %v, want 20 (both sweeps)", epochs)
	}
}

// The longsim bench row's configuration: machine A, four faults in the
// first eight epochs, then a quiet tail the memo serves. The memoized run
// must reproduce the memo-off reference epoch by epoch.
func TestSweepLongSimMatchesReference(t *testing.T) {
	m := topology.MachineA()
	p, err := topology.ClassicPlacement(m, topology.LayoutC)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Machine: m, Placement: p, Workload: Workload{Dataset: dataset(t, "IG"), Model: gnn.KindSAGE}}
	ep := simulate(t, cfg).EpochTime.Sec()
	cfg.Faults = &faults.Schedule{Seed: 11, Events: []faults.Event{
		faults.ThrottleSSD(1, 1.3*ep, 0.5, ep),
		faults.Burst(2, 3.4*ep, 0.3, 0.5*ep),
		faults.Straggle(0, 5.2*ep, 0.6, 0.4*ep),
		faults.Kill(3, 7.5*ep),
	}}
	opt := SweepOptions{Epochs: 1000}
	got, want := sweep(t, cfg, opt), reference(t, cfg, opt)
	for e := range want.EpochTimes {
		if math.Abs(got.EpochTimes[e]-want.EpochTimes[e]) > 1e-9 {
			t.Fatalf("epoch %d: memoized %v s, reference %v s", e, got.EpochTimes[e], want.EpochTimes[e])
		}
	}
	if got.Resims != 7 || want.Resims != opt.Epochs || len(got.DeadSSDs) != 1 {
		t.Errorf("memoized %d resims (want 7), reference %d (want %d), dead %v",
			got.Resims, want.Resims, opt.Epochs, got.DeadSSDs)
	}
}
