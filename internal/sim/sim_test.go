package sim

import (
	"fmt"
	"strings"
	"testing"
)

func TestSingleProcHold(t *testing.T) {
	e := NewEngine()
	var end int64
	e.Spawn("a", func(p *Proc) {
		p.Hold(100)
		p.Hold(50)
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 150 {
		t.Fatalf("end = %d, want 150", end)
	}
	if e.Now() != 150 {
		t.Fatalf("engine clock = %d, want 150", e.Now())
	}
}

func TestHoldUntilPastIsNoOp(t *testing.T) {
	e := NewEngine()
	e.Spawn("a", func(p *Proc) {
		p.Hold(100)
		p.HoldUntil(10) // in the past: clock must not move backwards
		if p.Now() != 100 {
			t.Errorf("Now = %d, want 100", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeHoldPanicsProc(t *testing.T) {
	e := NewEngine()
	e.Spawn("a", func(p *Proc) { p.Hold(-1) })
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "negative duration") {
		t.Fatalf("err = %v, want negative-duration panic", err)
	}
}

func TestSchedulingOrderIsTimeThenID(t *testing.T) {
	e := NewEngine()
	var order []string
	// Proc 0 runs at t=0 then t=20; proc 1 at t=0 then t=10.
	e.Spawn("p0", func(p *Proc) {
		order = append(order, "p0@0")
		p.Hold(20)
		order = append(order, "p0@20")
	})
	e.Spawn("p1", func(p *Proc) {
		order = append(order, "p1@0")
		p.Hold(10)
		order = append(order, "p1@10")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"p0@0", "p1@0", "p1@10", "p0@20"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestTieBreakByProcID(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Hold(100) // all procs runnable again at the same time
			order = append(order, i)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("order = %v, want ascending proc ids", order)
		}
	}
}

func TestParkUnpark(t *testing.T) {
	e := NewEngine()
	var wakeTime int64
	var sleeper *Proc
	sleeper = e.Spawn("sleeper", func(p *Proc) {
		p.Park("waiting for waker")
		wakeTime = p.Now()
	})
	e.Spawn("waker", func(p *Proc) {
		p.Hold(500)
		p.Engine().Unpark(sleeper, p.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wakeTime != 500 {
		t.Fatalf("wakeTime = %d, want 500", wakeTime)
	}
	if got := e.Parks(); got != 1 {
		t.Fatalf("Parks = %d, want 1 (Holds are not parks)", got)
	}
}

func TestUnparkNeverRewindsClock(t *testing.T) {
	e := NewEngine()
	var wakeTime int64
	var sleeper *Proc
	sleeper = e.Spawn("sleeper", func(p *Proc) {
		p.Hold(1000) // sleeper is already at t=1000 when parked
		p.Park("wait")
		wakeTime = p.Now()
	})
	e.Spawn("waker", func(p *Proc) {
		p.Hold(2000)
		// Sleeper parked at t=1000 (it has lower id so it runs first at each
		// shared instant); waking it "at" t=2000 moves it forward.
		p.Engine().Unpark(sleeper, p.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wakeTime != 2000 {
		t.Fatalf("wakeTime = %d, want 2000", wakeTime)
	}
}

// rendezvous is a reusable meeting point for n procs built on the engine's
// park primitives, the way the mpi collectives use them: the last arrival
// releases the others with one UnparkBatch at the latest arrival time.
type rendezvous struct {
	n       int
	waiters []*Proc
	maxT    int64
}

func (r *rendezvous) wait(p *Proc) {
	if p.Now() > r.maxT {
		r.maxT = p.Now()
	}
	if len(r.waiters) < r.n-1 {
		r.waiters = append(r.waiters, p)
		p.Park("rendezvous")
		return
	}
	release := r.maxT
	p.Engine().UnparkBatch(r.waiters, release)
	clear(r.waiters)
	r.waiters = r.waiters[:0]
	r.maxT = 0
	p.HoldUntil(release)
}

func TestUnparkBatchReleasesAtMaxArrival(t *testing.T) {
	e := NewEngine()
	const n = 5
	r := &rendezvous{n: n}
	release := make([]int64, n)
	var order []int
	for i := 0; i < n; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Hold(int64(n-1-i) * 100) // proc 0 arrives last
			r.wait(p)
			release[i] = p.Now()
			order = append(order, i)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, at := range release {
		if at != 400 {
			t.Errorf("proc %d released at %d, want 400", i, at)
		}
	}
	// Waiters parked in reverse id order; the batch resumes them by id.
	if fmt.Sprint(order) != "[0 1 2 3 4]" {
		t.Errorf("resume order %v, want ascending proc ids", order)
	}
}

func TestUnparkBatchReusable(t *testing.T) {
	e := NewEngine()
	const n, rounds = 3, 4
	r := &rendezvous{n: n}
	counts := make([]int, n)
	for i := 0; i < n; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for k := 0; k < rounds; k++ {
				p.Hold(int64(i + 1)) // desynchronize
				r.wait(p)
				counts[i]++
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != rounds {
			t.Errorf("proc %d completed %d rounds, want %d", i, c, rounds)
		}
	}
	if want := int64(rounds * n); e.Now() != want {
		t.Errorf("end at %d, want %d (each round released at its last arrival)", e.Now(), want)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine()
	e.Spawn("stuck", func(p *Proc) { p.Park("never woken") })
	err := e.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	if !strings.Contains(err.Error(), "deadlock") || !strings.Contains(err.Error(), "never woken") {
		t.Fatalf("err = %v, want deadlock diagnostic with park reason", err)
	}
}

func TestDeadlockDrainsOtherProcs(t *testing.T) {
	// A deadlocked run must terminate every proc, including ones
	// parked on unrelated conditions.
	e := NewEngine()
	for i := 0; i < 10; i++ {
		e.Spawn(fmt.Sprintf("stuck%d", i), func(p *Proc) { p.Park("forever") })
	}
	if err := e.Run(); err == nil {
		t.Fatal("expected deadlock error")
	}
	// Run returned, so drain completed; nothing further to assert beyond
	// not leaking (TestRunReleasesEveryCoroutine counts the goroutines).
}

func TestDeadlockListingIsCapped(t *testing.T) {
	// At full scale a deadlock can strand tens of thousands of procs; the
	// diagnostic must list only the first deadlockListMax and summarize the
	// rest instead of building a multi-megabyte string.
	e := NewEngine()
	const procs = 100
	for i := 0; i < procs; i++ {
		e.Spawn(fmt.Sprintf("stuck%d", i), func(p *Proc) { p.Park("forever") })
	}
	err := e.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "deadlock") || !strings.Contains(msg, "proc 0 (stuck0)") {
		t.Fatalf("missing head of listing: %v", msg)
	}
	want := fmt.Sprintf("and %d more stuck procs", procs-deadlockListMax)
	if !strings.Contains(msg, want) {
		t.Fatalf("listing not capped (%q missing): %v", want, msg)
	}
	if n := strings.Count(msg, "\n"); n > deadlockListMax+1 {
		t.Fatalf("listing has %d lines, want <= %d", n, deadlockListMax+1)
	}
}

func TestInlineTimerResumesOwnProc(t *testing.T) {
	// A proc that parks while the only other run-queue entry is its own
	// completion timer must be resumed inline by its own dispatch (the timer
	// fires inside the parking proc's dispatch and unparks it).
	e := NewEngine()
	var woke int64
	e.Spawn("self", func(p *Proc) {
		ev := NewEvent("io")
		CompleteAt(p, ev, p.Now()+42)
		woke = ev.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 42 {
		t.Fatalf("woke at %d, want 42", woke)
	}
	if e.Now() != 42 {
		t.Fatalf("clock = %d, want 42", e.Now())
	}
}

func TestTimersInterleaveWithProcsDeterministically(t *testing.T) {
	// Timers ride the same run queue as procs: a timer armed for time t
	// fires before any proc scheduled strictly later, and waiters resume at
	// the timer's completion time.
	e := NewEngine()
	var order []string
	ev := NewEvent("mid")
	e.Spawn("waiter", func(p *Proc) {
		CompleteAt(p, ev, 50)
		ev.Wait(p)
		order = append(order, fmt.Sprintf("waiter@%d", p.Now()))
	})
	e.Spawn("late", func(p *Proc) {
		p.Hold(100)
		order = append(order, fmt.Sprintf("late@%d", p.Now()))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"waiter@50", "late@100"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestDoubleTimerCompletionIsAnError(t *testing.T) {
	// Two CompleteAt arms on one event: the second inline firing panics
	// ("completed twice"), which must surface as Run's error — never as a
	// process crash — even though timers have no proc body to recover in.
	e := NewEngine()
	e.Spawn("armer", func(p *Proc) {
		ev := NewEvent("dup")
		CompleteAt(p, ev, p.Now()+5)
		CompleteAt(p, ev, p.Now()+9)
		p.Hold(100)
	})
	e.Spawn("bystander", func(p *Proc) { p.Hold(200) })
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "completed twice") {
		t.Fatalf("err = %v, want completed-twice diagnostic", err)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Spawn("ok", func(p *Proc) { p.Hold(10) })
	e.Spawn("boom", func(p *Proc) {
		p.Hold(5)
		panic("kaboom")
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want propagated panic", err)
	}
}

func TestSpawnDuringRun(t *testing.T) {
	e := NewEngine()
	var childTime int64
	e.Spawn("parent", func(p *Proc) {
		p.Hold(300)
		p.Engine().Spawn("child", func(c *Proc) {
			if c.Now() != 300 {
				t.Errorf("child starts at %d, want parent time 300", c.Now())
			}
			c.Hold(7)
			childTime = c.Now()
		})
		p.Hold(1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childTime != 307 {
		t.Fatalf("childTime = %d, want 307", childTime)
	}
}

func TestEngineClockIsMaxProcTime(t *testing.T) {
	e := NewEngine()
	e.Spawn("fast", func(p *Proc) { p.Hold(10) })
	e.Spawn("slow", func(p *Proc) { p.Hold(9999) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 9999 {
		t.Fatalf("clock = %d, want 9999", e.Now())
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	cases := []float64{0, 1e-9, 0.5, 1, 3.25}
	for _, s := range cases {
		ns := Seconds(s)
		if got := ToSeconds(ns); got != s {
			t.Errorf("ToSeconds(Seconds(%v)) = %v", s, got)
		}
	}
}

func TestTransferTime(t *testing.T) {
	if d := TransferTime(1000, 1000); d != Second {
		t.Errorf("1000B at 1000B/s = %d, want 1s", d)
	}
	if d := TransferTime(0, 1000); d != 0 {
		t.Errorf("0 bytes = %d, want 0", d)
	}
	if d := TransferTime(1000, 0); d != 0 {
		t.Errorf("infinite rate = %d, want 0", d)
	}
	// Rounding is up: a transfer never completes early.
	if d := TransferTime(1, 3); d < Second/3 {
		t.Errorf("1B at 3B/s = %d, want >= %d", d, Second/3)
	}
}
