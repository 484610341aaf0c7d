package storage

import (
	"testing"
	"time"

	"tapioca/internal/fault"
	"tapioca/internal/obs"
	"tapioca/internal/sim"
)

// ladderStack builds a fault-injected stack of the given depth under plan:
// 0 is Faulty(NullFS), with no fallback tier; 1 is Faulty(BurstBuffer(NullFS)),
// whose fallback works; 2 is Faulty(BurstBuffer(Faulty(NullFS))), whose
// fallback goes down with the primary.
func ladderStack(depth int, plan *fault.Plan) System {
	switch depth {
	case 0:
		return NewFaulty(NewNullFS(), plan)
	case 1:
		return NewFaulty(NewBurstBuffer(NewNullFS(), BurstBufferConfig{}), plan)
	}
	return NewFaulty(NewBurstBuffer(NewFaulty(NewNullFS(), plan), BurstBufferConfig{}), plan)
}

// climb is one Resolve call: what it returned, the virtual time it took and
// the tier the ladder targeted after it.
type climb struct {
	tier  System
	out   Outcome
	held  int64
	after System
}

// climbLadder runs calls climbs of l on one proc, holding gap ns before each,
// and returns them with the run's registry. A climb that never returns fails
// the test instead of hanging it: a dead tier costs no virtual time, so the
// engine cannot notice a ladder that retries it forever.
func climbLadder(t *testing.T, l *Ladder, calls int, gap int64) ([]climb, *obs.Registry) {
	t.Helper()
	rec := obs.NewRecorder(false)
	e := sim.NewEngine()
	e.SetRecorder(rec)
	var climbs []climb
	e.Spawn("client", func(p *sim.Proc) {
		for range calls {
			p.Hold(gap)
			t0 := p.Now()
			tier, out := l.Resolve(p)
			climbs = append(climbs, climb{tier: tier, out: out, held: p.Now() - t0, after: l.Sys()})
		}
	})
	done := make(chan error, 1)
	go func() { done <- e.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%d ladder climbs did not finish in 10 s", calls)
	}
	return climbs, rec.Registry()
}

// faultyOps sums the store decisions every fault wrapper in sys consumed.
func faultyOps(sys System) int64 {
	var n int64
	for ; sys != nil; sys = unwrap(sys) {
		if fy, ok := sys.(*Faulty); ok {
			n += fy.ops
		}
	}
	return n
}

// checkLadder asserts the invariants every climb keeps, whatever the stack:
// retries stay within the policy and their backoff is exactly Backoff(0..);
// an unarmed ladder never retries or degrades; an exhausted climb returns the
// tier it targeted; the registry counts what the outcomes report; and each
// climb consumed at most RetryAttempts+1 store decisions.
func checkLadder(t *testing.T, sys System, armed bool, climbs []climb, reg *obs.Registry) {
	t.Helper()
	var retries, backoff, fallback int64
	for i, c := range climbs {
		var want int64
		for a := range int(c.out.Retries) {
			want += fault.Backoff(a)
		}
		if c.out.BackoffNs != want || c.out.Retries > fault.RetryAttempts || c.out.BackoffNs > fault.RetryBudget+fault.RetryCap {
			t.Fatalf("climb %d: %d retries, %d ns backoff; want at most %d retries backing off %d ns",
				i, c.out.Retries, c.out.BackoffNs, fault.RetryAttempts, want)
		}
		if !armed && (c.out.Retries != 0 || c.out.Verdict == IssuedOnFallback) {
			t.Fatalf("climb %d: unarmed ladder returned %+v", i, c.out)
		}
		if c.out.Verdict == Exhausted && c.tier != c.after {
			t.Fatalf("climb %d: exhausted on %v, want the tier it targeted", i, c.tier)
		}
		if c.held < c.out.BackoffNs {
			t.Fatalf("climb %d held %d ns, less than its %d ns backoff", i, c.held, c.out.BackoffNs)
		}
		retries += c.out.Retries
		backoff += c.out.BackoffNs
		if c.out.Verdict == IssuedOnFallback {
			fallback++
		}
	}
	counter := func(name string) int64 { return reg.Counter(name).Value() }
	if counter(fault.MetricRetries) != retries || counter(fault.MetricBackoffNs) != backoff ||
		counter(fault.MetricDegradedRounds) != fallback {
		t.Fatalf("registry counts %d retries, %d ns backoff, %d degraded rounds; outcomes %d, %d, %d",
			counter(fault.MetricRetries), counter(fault.MetricBackoffNs), counter(fault.MetricDegradedRounds),
			retries, backoff, fallback)
	}
	if ops, limit := faultyOps(sys), int64(len(climbs))*(fault.RetryAttempts+1); ops > limit {
		t.Fatalf("%d climbs consumed %d store decisions, want at most %d", len(climbs), ops, limit)
	}
}

// TestLadder drives the recovery ladder through each rung on small stacks.
func TestLadder(t *testing.T) {
	// Backoff of a climb that spends every retry on transients.
	var allBackoff int64
	for a := range fault.RetryAttempts {
		allBackoff += fault.Backoff(a)
	}
	always := func(depth int) System {
		return ladderStack(depth, fault.NewPlan(fault.Config{Seed: 1, StoreFailRate: 1}))
	}
	down := func(depth int) System {
		return ladderStack(depth, fault.NewPlan(fault.Config{Seed: 1, TierDownAfter: 1}))
	}
	plain := System(NewNullFS())
	self := func(s System) System { return s }
	cases := []struct {
		name    string
		sys     System
		armed   bool
		calls   int
		verdict Verdict
		retries int64
		held    int64 // per climb
		tier    func(sys System) System
		targets func(sys System) System // Ladder.Sys after the climbs
	}{
		{name: "plain system", sys: plain, armed: true, calls: 3, verdict: Issued,
			tier: self, targets: self},
		{name: "fault wrapper without a plan", sys: NewFaulty(plain, nil), armed: true, calls: 3, verdict: Issued,
			tier: func(System) System { return plain }, targets: self},
		{name: "transients spend every retry", sys: always(0), armed: true, calls: 2, verdict: Exhausted,
			retries: fault.RetryAttempts, held: (fault.RetryAttempts+1)*transientLatency + allBackoff,
			tier: self, targets: self},
		{name: "unarmed exhausts on a transient", sys: always(0), calls: 2, verdict: Exhausted,
			held: transientLatency, tier: self, targets: self},
		{name: "degrade is sticky", sys: down(1), armed: true, calls: 3, verdict: IssuedOnFallback,
			tier: DegradedSystemOf, targets: DegradedSystemOf},
		{name: "unarmed exhausts on an outage", sys: down(1), calls: 2, verdict: Exhausted,
			tier: self, targets: self},
		{name: "outage with no fallback tier", sys: down(0), armed: true, calls: 2, verdict: Exhausted,
			tier: self, targets: self},
		{name: "fallback tier down too", sys: down(2), armed: true, calls: 3, verdict: Exhausted,
			tier: DegradedSystemOf, targets: DegradedSystemOf},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLadder(tc.sys, tc.armed)
			climbs, reg := climbLadder(t, &l, tc.calls, 1000)
			for i, c := range climbs {
				if c.out.Verdict != tc.verdict || c.out.Retries != tc.retries || c.held != tc.held || c.tier != tc.tier(tc.sys) {
					t.Errorf("climb %d: %v, %+v after %d ns; want %v, verdict %d with %d retries after %d ns",
						i, c.tier, c.out, c.held, tc.tier(tc.sys), tc.verdict, tc.retries, tc.held)
				}
			}
			if got, want := l.Sys(), tc.targets(tc.sys); got != want {
				t.Errorf("ladder targets %v after the climbs, want %v", got, want)
			}
			checkLadder(t, tc.sys, tc.armed, climbs, reg)
		})
	}
}

// TestLadderPartialTransients: at a moderate failure rate some climbs retry
// and land, and the retries they report are the ones the registry counts.
func TestLadderPartialTransients(t *testing.T) {
	sys := ladderStack(0, fault.NewPlan(fault.Config{Seed: 3, StoreFailRate: 0.5}))
	l := NewLadder(sys, true)
	climbs, reg := climbLadder(t, &l, 64, 0)
	checkLadder(t, sys, true, climbs, reg)
	var retried int
	for _, c := range climbs {
		if c.out.Verdict == Issued && c.out.Retries > 0 {
			retried++
		}
	}
	if retried == 0 {
		t.Fatal("no climb retried and landed — the property ran vacuously")
	}
}

// TestLadderFastPathAllocs: on a system without a fault plan a climb is a
// type check: no allocation.
func TestLadderFastPathAllocs(t *testing.T) {
	for _, sys := range []System{NewNullFS(), NewFaulty(NewNullFS(), nil)} {
		l := NewLadder(sys, true)
		var allocs float64
		e := sim.NewEngine()
		e.Spawn("client", func(p *sim.Proc) {
			allocs = testing.AllocsPerRun(100, func() { l.Resolve(p) })
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("%T: %v allocations per climb, want 0", sys, allocs)
		}
	}
}

// FuzzLadder climbs random stacks: failure rate, outage time, wrapper depth
// and armed or not. Every climb must finish, and the outcomes must match
// the registry's counts.
func FuzzLadder(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(0), uint8(0), true, uint8(4))
	f.Add(uint64(2), uint8(255), uint16(0), uint8(1), true, uint8(4))
	f.Add(uint64(3), uint8(128), uint16(5), uint8(1), true, uint8(16))
	f.Add(uint64(4), uint8(64), uint16(1), uint8(2), true, uint8(16))
	f.Add(uint64(5), uint8(64), uint16(1), uint8(2), false, uint8(16))
	f.Add(uint64(6), uint8(200), uint16(3), uint8(0), true, uint8(8))
	f.Fuzz(func(t *testing.T, seed uint64, rate uint8, downUs uint16, depth uint8, armed bool, calls uint8) {
		plan := fault.NewPlan(fault.Config{
			Seed:          seed,
			StoreFailRate: float64(rate) / 255,
			StoreSlowRate: float64(rate) / 510,
			TierDownAfter: int64(downUs) * 1000,
		})
		sys := ladderStack(int(depth%3), plan)
		l := NewLadder(sys, armed)
		climbs, reg := climbLadder(t, &l, int(calls%32)+1, 100_000)
		checkLadder(t, sys, armed, climbs, reg)
		for i, c := range climbs {
			if c.out.Verdict == IssuedOnFallback && DegradedSystemOf(sys) == nil {
				t.Fatalf("climb %d issued on a fallback tier the stack does not have", i)
			}
		}
	})
}
