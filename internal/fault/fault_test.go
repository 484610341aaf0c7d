package fault

import (
	"math"
	"testing"
)

// Same seed must reproduce every decision; different seeds must not be
// correlated copies of each other.
func TestPlanDeterminism(t *testing.T) {
	cfg := Profile(20170905, 0.2)
	a, b := NewPlan(cfg), NewPlan(cfg)
	other := NewPlan(Profile(7, 0.2))
	sameStore, sameNet, diff := 0, 0, 0
	for op := int64(0); op < 2000; op++ {
		if a.Store(1, op) != b.Store(1, op) {
			t.Fatalf("store decision diverged at op %d", op)
		}
		if a.Store(1, op) != StoreOK {
			sameStore++
		}
		if a.Store(1, op) != other.Store(1, op) {
			diff++
		}
		d1, e1 := a.Transfer(3, 9, op*1000, 5000, op)
		d2, e2 := b.Transfer(3, 9, op*1000, 5000, op)
		if d1 != d2 || e1 != e2 {
			t.Fatalf("transfer decision diverged at %d", op)
		}
		if e1.Any() {
			sameNet++
		}
	}
	if sameStore == 0 || sameNet == 0 {
		t.Fatalf("rate 0.2 produced no faults in 2000 trials (store=%d net=%d)", sameStore, sameNet)
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical schedules")
	}
}

// Observed fault frequency should track the configured rate (loose bounds;
// the hash is not a statistical PRNG but must not be wildly biased).
func TestRateRoughlyHonored(t *testing.T) {
	pl := NewPlan(Config{Seed: 42, StoreFailRate: 0.1})
	hits := 0
	const n = 20000
	for op := int64(0); op < n; op++ {
		if pl.Store(7, op) == StoreTransient {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.1) > 0.02 {
		t.Fatalf("rate 0.1 observed as %.3f", got)
	}
}

func TestZeroConfigInjectsNothing(t *testing.T) {
	pl := NewPlan(Config{Seed: 99})
	var nilPlan *Plan
	for op := int64(0); op < 500; op++ {
		if pl.Store(1, op) != StoreOK || nilPlan.Store(1, op) != StoreOK {
			t.Fatal("zero config injected a store fault")
		}
		if d, e := pl.Transfer(0, 1, op, 1000, op); d != 1000 || e.Any() {
			t.Fatal("zero config perturbed a transfer")
		}
	}
	if pl.AggregatorDeath(0, 64) != -1 || nilPlan.AggregatorDeath(0, 64) != -1 {
		t.Fatal("zero config killed an aggregator")
	}
	if _, ok := pl.TakeCorruption(0, 0, 1<<20); ok {
		t.Fatal("zero config corrupted a round")
	}
	if pl.TierDown(1<<40) || nilPlan.TierDown(1<<40) {
		t.Fatal("zero config took the tier down")
	}
}

func TestAggregatorDeathRoundInRange(t *testing.T) {
	pl := NewPlan(Config{Seed: 5, AggrDeathRate: 1})
	for part := 0; part < 64; part++ {
		for _, rounds := range []int{2, 3, 7, 100} {
			r := pl.AggregatorDeath(part, rounds)
			if r < 1 || r >= rounds {
				t.Fatalf("death round %d outside [1,%d)", r, rounds)
			}
		}
	}
	if pl.AggregatorDeath(0, 1) != -1 {
		t.Fatal("single-round run cannot host a death")
	}
}

// A corruption key must be consumed exactly once: a failover replay of the
// same round must not re-flip it.
func TestTakeCorruptionConsumed(t *testing.T) {
	pl := NewPlan(Config{Seed: 11, CorruptRate: 1})
	off, ok := pl.TakeCorruption(3, 2, 4096)
	if !ok || off < 0 || off >= 4096 {
		t.Fatalf("expected corruption in range, got off=%d ok=%v", off, ok)
	}
	if _, ok := pl.TakeCorruption(3, 2, 4096); ok {
		t.Fatal("corruption key consumed twice")
	}
	if _, ok := pl.TakeCorruption(3, 3, 4096); !ok {
		t.Fatal("consuming one round consumed its neighbor")
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	prev := int64(0)
	for i := 0; i < 10; i++ {
		d := Backoff(i)
		if d < prev {
			t.Fatalf("backoff shrank at attempt %d: %d < %d", i, d, prev)
		}
		if d > RetryCap {
			t.Fatalf("backoff %d exceeds cap %d", d, RetryCap)
		}
		prev = d
	}
	if Backoff(0) != RetryBase {
		t.Fatalf("first backoff %d != base %d", Backoff(0), RetryBase)
	}
	if Backoff(9) != RetryCap {
		t.Fatal("backoff never reached cap")
	}
}

func TestProfileScalesWithRate(t *testing.T) {
	if Profile(1, 0).Enabled() {
		t.Fatal("zero-rate profile must be disabled")
	}
	c := Profile(1, 0.1)
	if !c.Enabled() || c.StoreFailRate != 0.1 || c.AggrDeathRate != 0.1 {
		t.Fatalf("profile shape wrong: %+v", c)
	}
}
