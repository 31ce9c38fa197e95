package trainsim

import (
	"math"
	"reflect"
	"testing"

	"moment/internal/faults"
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
