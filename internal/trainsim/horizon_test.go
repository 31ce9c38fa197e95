package trainsim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"moment/internal/faults"
	"moment/internal/topology"
)

// sameEpochs fails unless got and want agree epoch by epoch within rel.
func sameEpochs(t *testing.T, what string, got, want []float64, rel float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d epochs, want %d", what, len(got), len(want))
	}
	for e := range want {
		if math.Abs(got[e]-want[e]) > rel*want[e] {
			t.Fatalf("%s: epoch %d took %v s, want %v s", what, e, got[e], want[e])
		}
	}
}

// Faults and drift compose in one horizon run. Each one-sided run is the
// special case of the composed loop in which the other side never acts,
// and with both active the kill lands on top of the drift run's own
// trajectory without disturbing the adaptive loop.
func TestHorizonFaultsAndDriftCompose(t *testing.T) {
	const epochs = 200
	cfg := driftCfg(t)
	shuffle := DriftSchedule{Every: 50, Kind: DriftShuffle, Mag: 0.2, Seed: 11}
	driftOnly := sweep(t, cfg, SweepOptions{Epochs: epochs, Schedule: shuffle})

	// Kill ssd1 a third of the way into epoch k's I/O. Epoch k runs no
	// migration, so its I/O starts with the epoch.
	const k = 120
	start := 0.0
	for _, d := range driftOnly.EpochTimes[:k] {
		start += d
	}
	nominal := simulate(t, cfg)
	kill := func(at float64) Config {
		c := cfg
		c.Faults = &faults.Schedule{Seed: 5, Events: []faults.Event{faults.Kill(1, at)}}
		return c
	}
	mid := kill(start + nominal.IOTime.Sec()/3)

	t.Run("drift that never fires matches faults only", func(t *testing.T) {
		quiet := DriftSchedule{Every: 10 * epochs, Kind: DriftShuffle, Mag: 0.2, Seed: 11}
		got := sweep(t, mid, SweepOptions{Epochs: epochs, Schedule: quiet})
		want := sweep(t, mid, SweepOptions{Epochs: epochs})
		sameEpochs(t, "composed", got.EpochTimes, want.EpochTimes, 1e-12)
		if got.Resims != want.Resims || got.CacheHits != want.CacheHits ||
			!reflect.DeepEqual(got.DeadSSDs, want.DeadSSDs) {
			t.Errorf("composed resims/hits/dead %d/%d/%v, faults only %d/%d/%v",
				got.Resims, got.CacheHits, got.DeadSSDs, want.Resims, want.CacheHits, want.DeadSSDs)
		}
		if got.DriftEvents != 0 || got.Trips != 0 {
			t.Errorf("drift past the horizon fired: %d events, %d trips", got.DriftEvents, got.Trips)
		}
	})

	t.Run("kill after the horizon matches drift only", func(t *testing.T) {
		got := sweep(t, kill(10*driftOnly.Total.Sec()), SweepOptions{Epochs: epochs, Schedule: shuffle})
		sameEpochs(t, "composed", got.EpochTimes, driftOnly.EpochTimes, 1e-12)
		if got.Resims != driftOnly.Resims || got.CacheHits != driftOnly.CacheHits ||
			got.DriftEvents != driftOnly.DriftEvents || got.Trips != driftOnly.Trips ||
			got.Replans != driftOnly.Replans || got.DeltaSolves != driftOnly.DeltaSolves ||
			got.FullSolves != driftOnly.FullSolves || got.MovedBytes != driftOnly.MovedBytes {
			t.Errorf("composed run diverged from drift only:\n%+v\n%+v", got, driftOnly)
		}
		if len(got.DeadSSDs) != 0 {
			t.Errorf("dead SSDs %v before the kill", got.DeadSSDs)
		}
	})

	t.Run("kill mid-horizon under drift", func(t *testing.T) {
		opt := SweepOptions{Epochs: epochs, Schedule: shuffle}
		got := sweep(t, mid, opt)
		if !reflect.DeepEqual(got.DeadSSDs, []int{1}) {
			t.Fatalf("dead SSDs %v, want [1]", got.DeadSSDs)
		}
		if got.Resims+got.CacheHits != epochs {
			t.Errorf("resims %d + hits %d != %d epochs", got.Resims, got.CacheHits, epochs)
		}
		if got.Trips != driftOnly.Trips || got.Replans != driftOnly.Replans || got.MovedBytes != driftOnly.MovedBytes {
			t.Errorf("the kill moved the adaptive loop: trips %d, replans %d, moved %v; drift only %d, %d, %v",
				got.Trips, got.Replans, got.MovedBytes, driftOnly.Trips, driftOnly.Replans, driftOnly.MovedBytes)
		}
		if driftOnly.DriftEvents != 3 || driftOnly.Trips == 0 {
			t.Fatalf("drift only: %d events, %d trips; the scenario needs a live loop", driftOnly.DriftEvents, driftOnly.Trips)
		}
		if got.EpochTimes[k] <= driftOnly.EpochTimes[k] {
			t.Errorf("epoch %d holding the kill took %v s, drift only %v s", k, got.EpochTimes[k], driftOnly.EpochTimes[k])
		}
		sameEpochs(t, "before the kill", got.EpochTimes[:k], driftOnly.EpochTimes[:k], 1e-12)
		sameEpochs(t, "memoized", got.EpochTimes, reference(t, mid, opt).EpochTimes, 1e-12)
	})

	// The oracle migrates at every event, so epoch 100 starts with a
	// migration stall and its I/O begins only after it.
	t.Run("migration stall comes before the I/O", func(t *testing.T) {
		const ev = 100
		opt := SweepOptions{Epochs: epochs, Schedule: shuffle, Oracle: true}
		oracle := sweep(t, cfg, opt)
		if oracle.StallSeconds <= 0 {
			t.Fatal("the oracle migrated nothing")
		}
		start := 0.0
		for _, d := range oracle.EpochTimes[:ev] {
			start += d
		}
		stall := oracle.EpochTimes[ev] - oracle.EpochTimes[ev-1]
		if stall <= nominal.IOTime.Sec() {
			t.Fatalf("epoch %d stall %v s, want one longer than an epoch's I/O", ev, stall)
		}
		inIO := kill(start + stall + nominal.IOTime.Sec()/3)
		inStall := kill(start + stall/2)
		for _, c := range []Config{inIO, inStall} {
			got := sweep(t, c, opt)
			if !reflect.DeepEqual(got.DeadSSDs, []int{1}) {
				t.Fatalf("dead SSDs %v, want [1]", got.DeadSSDs)
			}
			if got.Replans != oracle.Replans || got.MovedBytes != oracle.MovedBytes {
				t.Errorf("the kill moved the oracle: %d replans, %v bytes; want %d, %v",
					got.Replans, got.MovedBytes, oracle.Replans, oracle.MovedBytes)
			}
			sameEpochs(t, "before the kill", got.EpochTimes[:ev], oracle.EpochTimes[:ev], 1e-12)
			sameEpochs(t, "memoized", got.EpochTimes, reference(t, c, opt).EpochTimes, 1e-12)
		}
		// A device lost during the stall is gone before the I/O starts:
		// its bytes re-route up front, with no recovery stall, so the
		// epoch is faster than one whose I/O the kill interrupts.
		a, b := sweep(t, inIO, opt).EpochTimes[ev], sweep(t, inStall, opt).EpochTimes[ev]
		if !(b < a) {
			t.Errorf("epoch %d: kill inside the stall %v s, inside the I/O %v s; want the first faster", ev, b, a)
		}
	})
}

// recurringFaults is the horizon-faults benchmark's schedule over epochs
// epochs of ep seconds: throttles, error bursts and GPU stragglers recur
// every 2–6 epochs, and one SSD fail-stops mid-horizon. The pinned test
// and BenchmarkHorizonFaults below share it.
func recurringFaults(seed int64, m *topology.Machine, epochs int, ep float64) *faults.Schedule {
	rng := rand.New(rand.NewSource(seed))
	dur := func() float64 { return (0.3 + rng.Float64()) * ep }
	var ev []faults.Event
	for t := 2 * ep; t < float64(epochs)*ep; t += (2 + 4*rng.Float64()) * ep {
		switch rng.Intn(3) {
		case 0:
			ev = append(ev, faults.ThrottleSSD(rng.Intn(m.NumSSDs), t, 0.3+0.5*rng.Float64(), dur()))
		case 1:
			ev = append(ev, faults.Burst(rng.Intn(m.NumSSDs), t, 0.1+0.4*rng.Float64(), dur()))
		default:
			ev = append(ev, faults.Straggle(rng.Intn(m.NumGPUs), t, 0.4+0.5*rng.Float64(), dur()))
		}
	}
	ev = append(ev, faults.Kill(rng.Intn(m.NumSSDs), (float64(epochs)/2+0.37)*ep))
	return &faults.Schedule{Seed: seed, Events: ev}
}

// epochChecksum hashes every epoch time's bits in order.
func epochChecksum(times []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range times {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestHorizonFaultsShapePinned pins the horizon-faults benchmark's shape bit
// for bit: machine A layout C, IG/GraphSAGE, 500 epochs under recurring
// throttles, bursts and stragglers plus one kill, four schedule seeds.
func TestHorizonFaultsShapePinned(t *testing.T) {
	cfg := classicCfg(t, topology.MachineA(), topology.LayoutC, "IG")
	ep := simulate(t, cfg).EpochTime.Sec()
	for _, want := range []struct {
		seed         int64
		total        float64
		checksum     uint64
		resims, hits int
		dead         []int
	}{
		{1, 7224.33379166346, 0xadc9e499c229a3cb, 216, 284, []int{2}},
		{2, 7200.509602997682, 0x61d2b6fd31b66ca7, 217, 283, []int{6}},
		{3, 7162.272525816044, 0x59ee2390131f03f, 198, 302, []int{2}},
		{4, 7128.887855476828, 0xeb313e839647440f, 226, 274, []int{4}},
	} {
		c := cfg
		c.Faults = recurringFaults(want.seed, c.Machine, 500, ep)
		got := sweep(t, c, SweepOptions{Epochs: 500})
		if got.Total.Sec() != want.total || epochChecksum(got.EpochTimes) != want.checksum ||
			got.Resims != want.resims || got.CacheHits != want.hits || !reflect.DeepEqual(got.DeadSSDs, want.dead) {
			t.Errorf("seed %d: total %v s, checksum %#x, resims %d, hits %d, dead %v; want %v s, %#x, %d, %d, %v",
				want.seed, got.Total.Sec(), epochChecksum(got.EpochTimes), got.Resims, got.CacheHits, got.DeadSSDs,
				want.total, want.checksum, want.resims, want.hits, want.dead)
		}
	}
}

// BenchmarkHorizonFaults times one horizon-faults operation: 500 epochs of
// machine A layout C on IG/GraphSAGE under recurringFaults (schedule seed
// 1), each epoch priced on the fabric or served from the memo.
func BenchmarkHorizonFaults(b *testing.B) {
	cfg := classicCfg(b, topology.MachineA(), topology.LayoutC, "IG")
	cfg.Faults = recurringFaults(1, cfg.Machine, 500, simulate(b, cfg).EpochTime.Sec())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateEpochs(cfg, SweepOptions{Epochs: 500}); err != nil {
			b.Fatal(err)
		}
	}
}
