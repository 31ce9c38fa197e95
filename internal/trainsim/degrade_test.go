package trainsim

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"moment/internal/faults"
	"moment/internal/obs"
	"moment/internal/topology"
	"moment/internal/units"
)

// fourSSDCfg is the acceptance-criteria machine: MachineA trimmed to four
// SSDs, layout (c), PA dataset.
func fourSSDCfg(t *testing.T) Config {
	t.Helper()
	m := topology.MachineA()
	m.NumSSDs = 4
	cfg := classicCfg(t, m, topology.LayoutC, "PA")
	return cfg
}

func TestKillOneOfFourSSDsMidEpochCompletes(t *testing.T) {
	cfg := fourSSDCfg(t)
	nominal := simulate(t, cfg)
	if nominal.Faults != nil {
		t.Fatal("no schedule should mean no fault report")
	}
	killAt := nominal.IOTime.Sec() / 2

	o := obs.New()
	cfg.Observer = o
	cfg.Faults = &faults.Schedule{Seed: 1, Events: []faults.Event{
		faults.Kill(2, killAt),
	}}
	res := simulate(t, cfg)
	rep := res.Faults
	if rep == nil {
		t.Fatal("faulted epoch must carry a report")
	}
	if len(rep.DeadSSDs) != 1 || rep.DeadSSDs[0] != 2 {
		t.Errorf("dead SSDs %v, want [2]", rep.DeadSSDs)
	}
	if rep.Replans != 1 {
		t.Errorf("replans = %d, want 1", rep.Replans)
	}
	if rep.Timeouts != 1 || rep.StallSeconds <= 0 {
		t.Errorf("recovery stall not charged: %+v", rep)
	}
	if rep.Injected != 1 {
		t.Errorf("injected = %d, want 1", rep.Injected)
	}
	if math.Abs(rep.NominalEpoch.Sec()-nominal.EpochTime.Sec()) > 1e-9 {
		t.Errorf("nominal epoch %v, want %v", rep.NominalEpoch, nominal.EpochTime)
	}
	if rep.Inflation <= 1 {
		t.Errorf("inflation %v, want > 1 (losing a device must cost time)", rep.Inflation)
	}
	if res.EpochTime.Sec() <= nominal.EpochTime.Sec() {
		t.Errorf("degraded epoch %v not slower than nominal %v", res.EpochTime, nominal.EpochTime)
	}
	// The loss is bounded: 3 of 4 SSDs survive, so the epoch should not
	// blow up by more than a few x even with the recovery stall.
	if rep.Inflation > 5 {
		t.Errorf("inflation %v implausibly large", rep.Inflation)
	}
	// Replan + inflation are visible through obs.
	var buf bytes.Buffer
	if err := o.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{"faults_injected_total", "faults_replans_total", "trainsim_epoch_inflation"} {
		if !strings.Contains(buf.String(), metric) {
			t.Errorf("metric %s missing from snapshot", metric)
		}
	}
}

// TestKillBillPinned pins the single-epoch fault bill bit for bit: the
// degraded DDAK re-solves a kill forces and the bytes they migrate, for one
// and for two kills, and no re-solve under the hash policy.
func TestKillBillPinned(t *testing.T) {
	cfg := fourSSDCfg(t)
	io := simulate(t, cfg).IOTime.Sec()
	one := []faults.Event{faults.Kill(2, io/2)}
	two := []faults.Event{faults.Kill(2, io/2), faults.Kill(0, io*0.7)}
	for _, c := range []struct {
		name    string
		policy  Policy
		events  []faults.Event
		dead    []int
		replans int
		moved   float64
	}{
		{"one kill", PolicyDDAK, one, []int{2}, 1, 333920227328},
		{"two kills", PolicyDDAK, two, []int{2, 0}, 2, 627250323456},
		{"two kills, hash", PolicyHash, two, []int{2, 0}, 0, 0},
	} {
		c2 := cfg
		c2.Policy = c.policy
		c2.Faults = &faults.Schedule{Seed: 1, Events: c.events}
		rep := simulate(t, c2).Faults
		if rep == nil {
			t.Fatalf("%s: no fault report", c.name)
		}
		if !reflect.DeepEqual(rep.DeadSSDs, c.dead) || rep.Replans != c.replans || rep.MovedBytes != c.moved {
			t.Errorf("%s: dead %v, %d replans, %v moved bytes; want %v, %d, %v",
				c.name, rep.DeadSSDs, rep.Replans, rep.MovedBytes, c.dead, c.replans, c.moved)
		}
	}
}

// TestKillPastCapacityFails: with SSDs that hold the items four at a time
// but not three, a kill fails a single epoch and a horizon alike, whether
// the SSD dies during an epoch's I/O or, for the horizon, between two
// epochs. The hash policy re-solves nothing and runs on.
func TestKillPastCapacityFails(t *testing.T) {
	cfg := fourSSDCfg(t)
	m := *cfg.Machine
	m.SSDCapacity = units.GB(120) // 4 × 120 GiB + DRAM hold PA's 417 GiB; 3 × 120 do not
	cfg.Machine = &m
	healthy := simulate(t, cfg)
	io, dur := healthy.IOTime.Sec(), healthy.EpochTime.Sec()
	if !(io < dur) {
		t.Fatalf("I/O %v s fills the whole %v s epoch: no time between epochs to kill in", io, dur)
	}
	run := func(policy Policy, at float64) (single, horizon error) {
		c := cfg
		c.Policy = policy
		c.Faults = &faults.Schedule{Seed: 1, Events: []faults.Event{faults.Kill(2, at)}}
		_, single = SimulateEpoch(c)
		_, horizon = SimulateEpochs(c, SweepOptions{Epochs: 3})
		return single, horizon
	}
	short := func(err error) bool { return err != nil && strings.Contains(err.Error(), "total capacity") }
	single, horizon := run(PolicyDDAK, io/2)
	if !short(single) || !short(horizon) {
		t.Errorf("kill during the I/O: single epoch %v, horizon %v; want both short of capacity", single, horizon)
	}
	single, horizon = run(PolicyDDAK, (io+dur)/2)
	if single != nil || !short(horizon) {
		t.Errorf("kill between epochs: single epoch %v, horizon %v; want the epoch to drain first and the horizon short of capacity", single, horizon)
	}
	single, horizon = run(PolicyHash, io/2)
	if single != nil || horizon != nil {
		t.Errorf("hash policy: single epoch %v, horizon %v; want both to run", single, horizon)
	}
}

// metricsSnapshot renders the observer's metrics with wall-clock planner
// timing stripped (flownet_solve_seconds measures host time, which is the
// one legitimately nondeterministic signal).
func metricsSnapshot(t *testing.T, o *obs.Observer) string {
	t.Helper()
	var buf bytes.Buffer
	if err := o.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, "flownet_solve_seconds") {
			continue
		}
		kept = append(kept, line)
	}
	return strings.Join(kept, "\n")
}

func TestFaultedEpochIsDeterministic(t *testing.T) {
	run := func() (*Result, string) {
		cfg := fourSSDCfg(t)
		o := obs.New()
		cfg.Observer = o
		cfg.Faults = &faults.Schedule{Seed: 9, Events: []faults.Event{
			faults.Kill(2, 20),
			faults.ThrottleSSD(0, 5, 0.5, 30),
			faults.Burst(1, 0, 0.02, 0),
			faults.Straggle(1, 0, 0.7, 0),
		}}
		return simulate(t, cfg), metricsSnapshot(t, cfg.Observer)
	}
	r1, m1 := run()
	r2, m2 := run()
	if r1.EpochTime != r2.EpochTime || r1.IOTime != r2.IOTime || r1.ComputeTime != r2.ComputeTime {
		t.Errorf("timings drifted: %+v vs %+v", r1, r2)
	}
	if r1.Faults == nil || r2.Faults == nil {
		t.Fatal("missing fault reports")
	}
	if r1.Faults.Inflation != r2.Faults.Inflation || r1.Faults.MovedBytes != r2.Faults.MovedBytes {
		t.Errorf("fault reports drifted: %+v vs %+v", r1.Faults, r2.Faults)
	}
	if m1 != m2 {
		t.Error("metrics snapshots are not byte-identical across identical seeded runs")
	}
}

func TestEmptyScheduleMatchesPerfectRun(t *testing.T) {
	cfg := fourSSDCfg(t)
	base := simulate(t, cfg)
	cfg.Faults = &faults.Schedule{}
	same := simulate(t, cfg)
	if same.Faults != nil {
		t.Error("empty schedule should not produce a fault report")
	}
	if base.EpochTime != same.EpochTime || base.IOTime != same.IOTime {
		t.Errorf("empty schedule drifted: %v/%v vs %v/%v",
			base.EpochTime, base.IOTime, same.EpochTime, same.IOTime)
	}
}

func TestThrottleOnlyDegradesWithoutReplan(t *testing.T) {
	cfg := fourSSDCfg(t)
	cfg.Faults = &faults.Schedule{Events: []faults.Event{
		faults.ThrottleSSD(0, 0, 0.25, 0),
	}}
	res := simulate(t, cfg)
	rep := res.Faults
	if rep == nil {
		t.Fatal("throttle schedule must carry a report")
	}
	if rep.Replans != 0 || len(rep.DeadSSDs) != 0 || rep.StallSeconds != 0 {
		t.Errorf("throttle must not trigger fail-stop recovery: %+v", rep)
	}
	if rep.Inflation < 1 {
		t.Errorf("inflation %v < 1", rep.Inflation)
	}
}

func TestStragglerComputeStretch(t *testing.T) {
	in, err := faults.NewInjector(&faults.Schedule{Events: []faults.Event{
		faults.Straggle(1, 0, 0.5, 0),
	}})
	if err != nil {
		t.Fatal(err)
	}
	// GPU 1 at half speed forever: 10s of work takes 20s; GPU 0 unaffected.
	if got := stragglerCompute(10, 2, in); math.Abs(got-20) > 1e-9 {
		t.Errorf("permanent straggler stretch = %v, want 20", got)
	}
	// Transient: half speed for the first 4s costs 2 extra seconds.
	in2, err := faults.NewInjector(&faults.Schedule{Events: []faults.Event{
		faults.Straggle(0, 0, 0.5, 4),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := stragglerCompute(10, 1, in2); math.Abs(got-12) > 1e-9 {
		t.Errorf("transient straggler stretch = %v, want 12", got)
	}
}

// A downtrain must name a link of the machine's fabric: a typo would
// otherwise simulate a healthy epoch. Both entry points reject it and name
// the link.
func TestDowntrainOnMissingLinkRejected(t *testing.T) {
	cfg := classicCfg(t, topology.MachineA(), topology.LayoutC, "IG")
	healthy := simulate(t, cfg).EpochTime.Sec()
	for _, link := range []string{"gpu0in", "up:sw9"} {
		c := cfg
		var err error
		if c.Faults, err = faults.Parse("downtrain:" + link + "@1x0.1"); err != nil {
			t.Fatal(err)
		}
		if _, err := SimulateEpoch(c); err == nil || !strings.Contains(err.Error(), `"`+link+`"`) {
			t.Errorf("SimulateEpoch with a downtrain on %q: error %v, want one naming the link", link, err)
		}
		if _, err := SimulateEpochs(c, SweepOptions{Epochs: 3}); err == nil || !strings.Contains(err.Error(), `"`+link+`"`) {
			t.Errorf("SimulateEpochs with a downtrain on %q: error %v, want one naming the link", link, err)
		}
	}
	c := cfg
	c.Faults = &faults.Schedule{Events: []faults.Event{faults.Downtrain("gpu0:in", 1, 0.1, 0)}}
	if got := simulate(t, c).EpochTime.Sec(); !(got > healthy) {
		t.Errorf("downtrain on gpu0:in: epoch %v s, healthy %v s; want it slower", got, healthy)
	}
	if _, err := SimulateEpochs(c, SweepOptions{Epochs: 3}); err != nil {
		t.Errorf("SimulateEpochs with a downtrain on gpu0:in: %v", err)
	}
}
