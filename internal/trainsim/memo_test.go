package trainsim

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"moment/internal/faults"
	"moment/internal/gnn"
	"moment/internal/obs"
	"moment/internal/topology"
)

// horizonPlan plans cfg's workload the way the long-horizon loop does,
// through the stats memo.
func horizonPlan(cfg Config) (*WorkloadPlan, error) {
	return planWorkload(cfg, obs.Active(cfg.Observer), true)
}

// statsOf plans cfg's workload as the long-horizon loop does and returns the
// plan's stats.
func statsOf(t testing.TB, cfg Config) *Stats {
	t.Helper()
	wp, err := horizonPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return wp.pl.stats
}

// freshStats is an uncached ComputeStats of cfg's workload as buildPlan
// normalizes it.
func freshStats(t testing.TB, cfg Config) *Stats {
	t.Helper()
	w := cfg.Workload
	w.NumGPUs = cfg.Machine.NumGPUs
	s, err := ComputeStats(w, cfg.VirtualVertices)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sameStats reports whether two stats agree bit for bit.
func sameStats(a, b *Stats) bool {
	bits := math.Float64bits
	return a.BatchesPerEpoch == b.BatchesPerEpoch &&
		bits(a.UniquePerBatch) == bits(b.UniquePerBatch) &&
		bits(a.EdgesPerBatch) == bits(b.EdgesPerBatch) &&
		bits(a.FetchBytesBatch) == bits(b.FetchBytesBatch) &&
		bits(a.FetchBytesEpoch) == bits(b.FetchBytesEpoch) &&
		sameBits(a.VirtualHot, b.VirtualHot) && sameBits(a.VirtualBytes, b.VirtualBytes)
}

// memoCfg is the workload the stats memo tests plan: IG/GraphSAGE on
// machine B over 2000 rank buckets, with its own fan-out slice.
func memoCfg(t testing.TB) Config {
	return Config{Machine: topology.MachineB(), VirtualVertices: 2000,
		Workload: Workload{Dataset: dataset(t, "IG"), Model: gnn.KindSAGE, Fanouts: []int{25, 10}}}
}

// TestStatsMemoKeyCoversEveryInput plans a workload A, then A with one
// input of ComputeStats changed, then A again, for every input the memo
// keys on. Each plan's stats must equal a fresh ComputeStats bit for bit,
// so a key that missed the input would serve A's stats to the variant or
// the variant's to A.
func TestStatsMemoKeyCoversEveryInput(t *testing.T) {
	base := memoCfg(t)
	for _, v := range []struct {
		name string
		edit func(*Config)
	}{
		{"dataset vertices", func(c *Config) { c.Workload.Dataset.Vertices *= 2 }},
		{"dataset skew", func(c *Config) { c.Workload.Dataset.Skew += 0.1 }},
		{"dataset feature dim", func(c *Config) { c.Workload.Dataset.FeatureDim *= 2 }},
		{"dataset train frac", func(c *Config) { c.Workload.Dataset.TrainFrac *= 2 }},
		{"batch size", func(c *Config) { c.Workload.BatchSize = 6000 }},
		{"fanout 0", func(c *Config) { c.Workload.Fanouts = []int{15, 10} }},
		{"fanout 1", func(c *Config) { c.Workload.Fanouts = []int{25, 5} }},
		{"fanout count", func(c *Config) { c.Workload.Fanouts = []int{25, 10, 5} }},
		{"dedup factor", func(c *Config) { c.Workload.DedupFactor = 0.7 }},
		{"epoch batches", func(c *Config) { c.Workload.EpochBatches = 40 }},
		{"buckets 0", func(c *Config) { c.VirtualVertices = 0 }},
		{"buckets 50000", func(c *Config) { c.VirtualVertices = 50_000 }},
	} {
		changed := base
		v.edit(&changed)
		for i, cfg := range []Config{base, changed, base} {
			if got, want := statsOf(t, cfg), freshStats(t, cfg); !sameStats(got, want) {
				t.Errorf("%s, plan %d: stats differ from a fresh ComputeStats", v.name, i)
			}
		}
	}
}

// TestStatsMemoCopiesFanouts changes a caller's fan-out slice in place
// between plans: the memo must key on the contents it derived from, not
// on the caller's slice.
func TestStatsMemoCopiesFanouts(t *testing.T) {
	cfg := memoCfg(t)
	fan := cfg.Workload.Fanouts
	for i, f0 := range []int{25, 15, 25, 40} {
		fan[0] = f0
		if got, want := statsOf(t, cfg), freshStats(t, cfg); !sameStats(got, want) {
			t.Errorf("plan %d (fanouts %v): stats differ from a fresh ComputeStats", i, fan)
		}
	}
}

// TestStatsMemoServesRepeats: repeated plans of one workload share one
// Stats, the default bucket count and 50000 buckets share it too, and an
// input ComputeStats rejects is rejected even right after a hit.
func TestStatsMemoServesRepeats(t *testing.T) {
	cfg := memoCfg(t)
	if a, b := statsOf(t, cfg), statsOf(t, cfg); a != b {
		t.Error("a repeated plan derived its stats again")
	}
	def, full := cfg, cfg
	def.VirtualVertices, full.VirtualVertices = 0, 50_000
	if a, b := statsOf(t, def), statsOf(t, full); a != b {
		t.Error("0 and 50000 rank buckets derived their stats twice")
	}
	negGPUs := *cfg.Machine
	negGPUs.NumGPUs = -1
	bad := cfg
	bad.Machine = &negGPUs
	statsOf(t, cfg)
	if _, err := horizonPlan(bad); err == nil {
		t.Error("a negative GPU count planned from the memo")
	}
	bad = cfg
	bad.Workload.BatchSize = -1
	if _, err := horizonPlan(bad); err == nil {
		t.Error("a negative batch size planned")
	}
	if got, want := statsOf(t, cfg), freshStats(t, cfg); !sameStats(got, want) {
		t.Error("stats after a rejected plan differ from a fresh ComputeStats")
	}
}

// TestStatsMemoConcurrentPlans alternates two workloads through the
// horizon's planning on several goroutines; run it under -race.
func TestStatsMemoConcurrentPlans(t *testing.T) {
	a := memoCfg(t)
	b := memoCfg(t)
	b.Workload.BatchSize = 6000
	cfgs := []Config{a, b}
	want := []*Stats{freshStats(t, a), freshStats(t, b)}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				k := (g + i) % 2
				wp, err := horizonPlan(cfgs[k])
				if err != nil {
					t.Error(err)
					return
				}
				if !sameStats(wp.pl.stats, want[k]) {
					t.Errorf("goroutine %d, plan %d: workload %d's stats differ from a fresh ComputeStats", g, i, k)
				}
			}
		}()
	}
	wg.Wait()
}

// TestOnlyHorizonFillsStatsMemo: SimulateEpochs plans through the memo,
// so a second run of its workload reuses the entry, while the planning
// entry points derive their stats uncached and leave the entry as it was.
func TestOnlyHorizonFillsStatsMemo(t *testing.T) {
	cfg := classicCfg(t, topology.MachineB(), topology.LayoutC, "IG")
	cfg.VirtualVertices = 2000
	entry := func() *Stats {
		statsMemo.mu.Lock()
		defer statsMemo.mu.Unlock()
		return statsMemo.stats
	}
	if _, err := SimulateEpochs(cfg, SweepOptions{Epochs: 1}); err != nil {
		t.Fatal(err)
	}
	held := entry()
	if held == nil || !sameStats(held, freshStats(t, cfg)) {
		t.Fatal("SimulateEpochs left no entry of its workload's stats")
	}
	if _, err := SimulateEpochs(cfg, SweepOptions{Epochs: 1}); err != nil {
		t.Fatal(err)
	}
	if entry() != held {
		t.Error("a second SimulateEpochs of one workload derived its stats again")
	}
	other := cfg
	other.Workload.BatchSize = 6000
	wp, err := PlanWorkload(other)
	if err != nil {
		t.Fatal(err)
	}
	if !sameStats(wp.pl.stats, freshStats(t, other)) {
		t.Error("PlanWorkload's stats differ from a fresh ComputeStats")
	}
	if _, err := SimulateEpoch(other); err != nil {
		t.Fatal(err)
	}
	if wp, err = PlanWorkload(cfg); err != nil {
		t.Fatal(err)
	}
	if entry() != held || wp.pl.stats == held {
		t.Error("a planning entry point read or replaced the horizon's memo entry")
	}
}

// textMemoKey is the horizon's memo key as first written, the oracle for
// epochKey: every link factor in fabric order and every GPU factor as
// shortest decimal text, the dead-device set, then the served bytes per
// bin to 6 significant digits.
func textMemoKey(inj *faults.Injector, linkNames []string, nGPU, nSSD int, dead map[int]bool, served []float64, tIO float64) string {
	var b []byte
	for _, name := range linkNames {
		b = strconv.AppendFloat(b, inj.LinkFactor(name, tIO), 'g', -1, 64)
		b = append(b, ';')
	}
	for g := 0; g < nGPU; g++ {
		b = strconv.AppendFloat(b, inj.GPUFactor(g, tIO), 'g', -1, 64)
		b = append(b, ';')
	}
	for j := 0; j < nSSD; j++ {
		if dead[j] {
			b = append(b, 'x')
		} else {
			b = append(b, '-')
		}
	}
	for _, v := range served {
		b = append(b, ';')
		b = strconv.AppendFloat(b, v, 'g', 6, 64)
	}
	return string(b)
}

// TestEpochKeyMatchesTextKey holds epochKey to textMemoKey. The schedule
// mixes throttles, error bursts, stragglers and a kill with downtrains on
// an SSD link, a switch uplink and a GPU link. Keys are taken at every
// boundary, just before it and midway to the next, under three served
// vectors (two of them equal to 6 significant digits), before and after
// an SSD dies. Two samples must share an epochKey exactly when they share
// a text key.
func TestEpochKeyMatchesTextKey(t *testing.T) {
	cfg := classicCfg(t, topology.MachineA(), topology.LayoutC, "IG")
	m := cfg.Machine
	fab, err := NewFabric(m, cfg.Placement)
	if err != nil {
		t.Fatal(err)
	}
	names := fab.linkNames()
	var up, gpuIn string
	for _, n := range names {
		if up == "" && strings.HasPrefix(n, "up:") {
			up = n
		}
		if gpuIn == "" && strings.HasSuffix(n, ":in") {
			gpuIn = n
		}
	}
	sched := recurringFaults(3, m, 80, 2)
	sched.Events = append(sched.Events,
		faults.Downtrain("ssd1", 11, 0.5, 30),
		faults.Downtrain(up, 40, 0.25, 20),
		faults.Downtrain(gpuIn, 50, 0.5, 0),
		// Back to a factor seen before: equal keys at different times.
		faults.Downtrain("ssd1", 70, 0.5, 5))
	inj, err := faults.NewInjector(sched)
	if err != nil {
		t.Fatal(err)
	}
	servedA := make([]float64, 14)
	for i := range servedA {
		servedA[i] = 1e9 * float64(i+1) / 3
	}
	servedRound := make([]float64, len(servedA))
	servedB := make([]float64, len(servedA))
	for i, v := range servedA {
		servedRound[i] = v * (1 + 1e-9)
		servedB[i] = v * 1.5
	}
	servedSets := [][]float64{servedA, servedRound, servedB}

	var times []float64
	prev := 0.0
	for b := inj.NextChange(0); !math.IsInf(b, 1); b = inj.NextChange(b) {
		times = append(times, (prev+b)/2, math.Nextafter(b, 0), b)
		prev = b
	}
	key := newEpochKey(inj, fab, servedA)
	dead := map[int]bool{}
	toText, fromText := map[string]string{}, map[string]string{}
	repeats := 0
	for i, tIO := range times {
		if i == len(times)/2 {
			dead[3] = true
		}
		served := servedSets[i%len(servedSets)]
		key.setServed(served)
		bits := string(key.at(tIO, dead))
		text := textMemoKey(inj, names, m.NumGPUs, m.NumSSDs, dead, served, tIO)
		if b, ok := fromText[text]; ok {
			repeats++
			if b != bits {
				t.Fatalf("t=%v: text key seen before, epochKey differs", tIO)
			}
		} else if _, ok := toText[bits]; ok {
			t.Fatalf("t=%v: epochKey seen before under another text key", tIO)
		}
		fromText[text], toText[bits] = bits, text
	}
	if len(fromText) < 20 || repeats < 20 {
		t.Errorf("%d samples gave %d distinct keys and %d repeats; want a schedule that exercises both", len(times), len(fromText), repeats)
	}
}
