package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"
)

// busyGoroutines counts the goroutines that are not idle carriers.
func busyGoroutines() int {
	idleCarriers.Lock()
	defer idleCarriers.Unlock()
	return runtime.NumGoroutine() - len(idleCarriers.s)
}

// TestRunReleasesEveryCoroutine checks each way Run can end: afterwards
// every carrier has ended or is idle in the pool, whether its proc finished,
// was parked, was runnable or never started.
func TestRunReleasesEveryCoroutine(t *testing.T) {
	cases := []struct {
		name  string
		build func(e *Engine)
		want  string // substring of Run's error; "" for success
	}{
		{"normal", func(e *Engine) {
			var waiter *Proc
			waiter = e.Spawn("waiter", func(p *Proc) { p.Park("wake") })
			e.Spawn("waker", func(p *Proc) {
				p.Hold(10)
				e.Unpark(waiter, p.Now())
			})
		}, ""},
		{"deadlock", func(e *Engine) {
			e.Spawn("stuck", func(p *Proc) { p.Park("forever") })
			e.Spawn("done", func(p *Proc) { p.Hold(5) })
		}, "deadlock"},
		{"budget", func(e *Engine) {
			e.SetBudget(100)
			e.Spawn("runaway", func(p *Proc) {
				for {
					p.Hold(40)
				}
			})
			e.Spawn("parked", func(p *Proc) { p.Park("runaway") })
		}, "budget"},
		{"proc panic", func(e *Engine) {
			e.Spawn("parked", func(p *Proc) { p.Park("boom") })
			e.Spawn("boom", func(p *Proc) { panic("kaboom") })
			e.Spawn("never started", func(p *Proc) { p.Hold(50) })
		}, "kaboom"},
		{"timer panic", func(e *Engine) {
			e.Spawn("armer", func(p *Proc) {
				ev := NewEvent("dup")
				CompleteAt(p, ev, p.Now()+5)
				CompleteAt(p, ev, p.Now()+9)
				ev.Wait(p)
				p.Hold(100)
			})
			e.Spawn("bystander", func(p *Proc) { p.Hold(200) })
		}, "completed twice"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := busyGoroutines()
			e := NewEngine()
			tc.build(e)
			err := e.Run()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("Run: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("Run = %v, want an error containing %q", err, tc.want)
			}
			if after := busyGoroutines(); after != before {
				t.Fatalf("%d busy goroutines after Run, %d before", after, before)
			}
			checkAllEnded(t, e)
		})
	}
}

func checkAllEnded(t *testing.T, e *Engine) {
	t.Helper()
	for _, p := range e.procs {
		if p.state != stateFinished || p.car != nil {
			t.Fatalf("proc %s left in state %v with a carrier attached", p.name, p.state)
		}
	}
}

// TestRunDrainsOnGoexit checks a proc that calls runtime.Goexit, as t.FailNow
// does: the goroutine that called Run exits too, but only after every other
// proc has been unwound and its carrier returned to the pool.
func TestRunDrainsOnGoexit(t *testing.T) {
	before := busyGoroutines()
	e := NewEngine()
	unwound := false
	e.Spawn("parked", func(p *Proc) {
		defer func() { unwound = true }()
		p.Park("quitter")
	})
	e.Spawn("quitter", func(p *Proc) {
		p.Hold(5)
		runtime.Goexit()
	})
	e.Spawn("never started", func(p *Proc) { p.Hold(50) })
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Run()
		t.Error("Run returned after a proc called runtime.Goexit")
	}()
	<-done
	if err := e.Err(); err == nil || !strings.Contains(err.Error(), "(quitter) called runtime.Goexit") {
		t.Fatalf("Err = %v, want the quitter's Goexit", err)
	}
	if !unwound {
		t.Fatal("parked proc was not unwound")
	}
	checkAllEnded(t, e)
	// The goroutine that ran Run may still be exiting after close(done).
	for i := 0; busyGoroutines() != before; i++ {
		if i == 100 {
			t.Fatalf("%d busy goroutines after Run, %d before", busyGoroutines(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCarriersAreReused checks that a run starts no coroutine when the pool
// already holds enough idle carriers for its procs.
func TestCarriersAreReused(t *testing.T) {
	run := func() {
		e := NewEngine()
		rv := &rendezvous{n: 8}
		for i := 0; i < 8; i++ {
			e.Spawn(fmt.Sprint("p", i), func(p *Proc) {
				p.Hold(int64(i))
				rv.wait(p)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run()
	before := runtime.NumGoroutine()
	run()
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines after a second run, %d before", after, before)
	}
}

// TestCarriersKeepProcOrder checks that the pool hands proc i of a run the
// carrier proc i ran on in the previous run, and that every carrier is idle
// in the pool once Run returns.
func TestCarriersKeepProcOrder(t *testing.T) {
	const n = 6
	run := func() []*carrier {
		cars := make([]*carrier, n)
		e := NewEngine()
		rv := &rendezvous{n: n}
		for i := 0; i < n; i++ {
			e.Spawn(fmt.Sprint("p", i), func(p *Proc) {
				cars[i] = p.car
				p.Hold(int64(n - i))
				rv.wait(p)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return cars
	}
	first := run()
	idle := map[*carrier]bool{}
	idleCarriers.Lock()
	for _, c := range idleCarriers.s {
		idle[c] = true
	}
	idleCarriers.Unlock()
	for i, c := range first {
		if !idle[c] || c.p != nil {
			t.Fatalf("proc %d's carrier is not idle in the pool after Run", i)
		}
	}
	second := run()
	for i := range second {
		if second[i] != first[i] {
			t.Fatalf("proc %d resumed on another carrier than in the first run", i)
		}
	}
}

// lastIdleCarrier returns the carrier at the top of the pool, the one the
// next getCarrier hands out.
func lastIdleCarrier(t *testing.T) *carrier {
	t.Helper()
	idleCarriers.Lock()
	defer idleCarriers.Unlock()
	if len(idleCarriers.s) == 0 {
		t.Fatal("no idle carrier in the pool")
	}
	return idleCarriers.s[len(idleCarriers.s)-1]
}

// TestReusedCarrierRunsClean runs a proc that panics and a run that
// deadlocks, and then on each carrier they left in the pool a proc that
// parks, is woken and ends: it must run as on a new carrier, with nothing
// left over from the proc before.
func TestReusedCarrierRunsClean(t *testing.T) {
	cases := []struct {
		name  string
		build func(e *Engine)
		want  string
	}{
		{"after panic", func(e *Engine) {
			e.Spawn("boom", func(p *Proc) {
				p.Hold(3)
				panic("kaboom")
			})
		}, "kaboom"},
		{"after deadlock", func(e *Engine) {
			e.Spawn("stuck", func(p *Proc) {
				p.SetPhaseLabel("stuck phase")
				p.Park("forever")
			})
		}, "deadlock"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			tc.build(e)
			if err := e.Run(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run = %v, want an error containing %q", err, tc.want)
			}
			c := lastIdleCarrier(t)
			if c.p != nil {
				t.Fatalf("idle carrier still holds proc %s", c.p.name)
			}

			e = NewEngine()
			var waiter *Proc
			var got *carrier
			var steps []string
			waiter = e.Spawn("waiter", func(p *Proc) {
				got = p.car
				if p.car.p != p || p.parkReason != "" || p.phase != "" || p.Now() != 0 {
					t.Errorf("reused carrier started proc %s with state %+v", p.name, *p)
				}
				p.Park("wake")
				steps = append(steps, fmt.Sprint("woken@", p.Now()))
			})
			e.Spawn("waker", func(p *Proc) {
				p.Hold(10)
				e.Unpark(waiter, p.Now())
				steps = append(steps, "unparked")
			})
			if err := e.Run(); err != nil {
				t.Fatalf("Run on a reused carrier: %v", err)
			}
			if got != c {
				t.Fatal("the first proc did not get the carrier at the top of the pool")
			}
			if want := "[unparked woken@10]"; fmt.Sprint(steps) != want {
				t.Fatalf("steps %v, want %s", steps, want)
			}
			checkAllEnded(t, e)
		})
	}
}

// TestGoexitCarrierIsNotPooled checks that the carrier of a proc that
// called runtime.Goexit has ended and never enters the pool, while the
// carriers of the procs drained after it do.
func TestGoexitCarrierIsNotPooled(t *testing.T) {
	e := NewEngine()
	var quitter, parked *carrier
	e.Spawn("parked", func(p *Proc) {
		parked = p.car
		p.Park("quitter")
	})
	e.Spawn("quitter", func(p *Proc) {
		quitter = p.car
		p.Hold(5)
		runtime.Goexit()
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Run()
	}()
	<-done
	if quitter == nil || parked == nil {
		t.Fatal("procs did not run")
	}
	idleCarriers.Lock()
	defer idleCarriers.Unlock()
	pooled := map[*carrier]bool{}
	for _, c := range idleCarriers.s {
		pooled[c] = true
	}
	if pooled[quitter] {
		t.Fatal("the Goexit-ended carrier entered the pool")
	}
	if !pooled[parked] {
		t.Fatal("the drained proc's carrier is not in the pool")
	}
}

// TestIdleCarriersRetainNoEngine checks that a pooled carrier keeps nothing
// of its last simulation alive: once Run has returned and the caller drops
// the engine, the engine is collected, whether its procs finished or were
// drained.
func TestIdleCarriersRetainNoEngine(t *testing.T) {
	for _, park := range []bool{false, true} {
		var w weak.Pointer[Engine]
		func() {
			e := NewEngine()
			w = weak.Make(e)
			for i := 0; i < 4; i++ {
				e.Spawn(fmt.Sprint("p", i), func(p *Proc) {
					p.Hold(int64(i))
					if park {
						p.Park("forever")
					}
				})
			}
			e.Run()
		}()
		runtime.GC()
		runtime.GC()
		if w.Value() != nil {
			t.Fatalf("park=%v: the engine is still reachable after Run", park)
		}
	}
}

// TestConcurrentEnginesShareCarriers runs engines on several goroutines at
// once, so pooled carriers move between goroutines; run it under -race.
func TestConcurrentEnginesShareCarriers(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				e := NewEngine()
				rv := &rendezvous{n: 8}
				sum := 0
				for j := 0; j < 8; j++ {
					e.Spawn(fmt.Sprint("p", j), func(p *Proc) {
						p.Hold(int64(j))
						rv.wait(p)
						sum += j
					})
				}
				if err := e.Run(); err != nil || sum != 28 {
					t.Errorf("Run = %v with sum %d, want nil and 28", err, sum)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestProcBlocksOnHostChannel is the pattern of a background store job: a
// proc hands work to a host goroutine and blocks on a real channel until the
// goroutine closes it. The whole simulation waits meanwhile, and the proc
// resumes with the job's result and its virtual clock intact.
func TestProcBlocksOnHostChannel(t *testing.T) {
	e := NewEngine()
	var got int
	var order []string
	e.Spawn("joiner", func(p *Proc) {
		p.Hold(10)
		done := make(chan struct{})
		go func() {
			got = 42
			close(done)
		}()
		<-done
		order = append(order, "joined")
		p.Hold(10)
		order = append(order, "joiner@20")
	})
	e.Spawn("other", func(p *Proc) {
		p.Hold(15)
		order = append(order, "other@15")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("job result %d, want 42", got)
	}
	if want := "[joined other@15 joiner@20]"; fmt.Sprint(order) != want {
		t.Fatalf("order %v, want %s", order, want)
	}
}

// TestChildPanicSurfaces checks that a panic in a proc spawned by a running
// proc becomes Run's error and that the parent, parked on the child, is
// unwound.
func TestChildPanicSurfaces(t *testing.T) {
	e := NewEngine()
	parentUnwound := false
	e.Spawn("parent", func(p *Proc) {
		defer func() { parentUnwound = true }()
		p.Hold(3)
		e.Spawn("child", func(c *Proc) {
			c.Hold(2)
			panic("child failed")
		})
		p.Park("child")
		t.Error("parent resumed after its child panicked")
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "child failed") || !strings.Contains(err.Error(), "(child)") {
		t.Fatalf("Run = %v, want the child's panic", err)
	}
	var abort abortError
	if errors.As(err, &abort) {
		t.Fatalf("Run returned the shutdown sentinel: %v", err)
	}
	if !parentUnwound {
		t.Fatal("parked parent was not unwound")
	}
}

// TestSwitchesCountResumes pins the switch counter: a proc that stays
// earliest runs on without a switch, and a ping-pong pays one switch to
// start, one after each park and one after the first proc finishes.
func TestSwitchesCountResumes(t *testing.T) {
	e := NewEngine()
	e.Spawn("solo", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Hold(1)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Switches() != 1 {
		t.Fatalf("solo proc: %d switches, want 1", e.Switches())
	}

	const n = 4
	e = NewEngine()
	var ping, pong *Proc
	ping = e.Spawn("ping", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Park("ping")
			e.Unpark(pong, p.Now())
		}
	})
	pong = e.Spawn("pong", func(p *Proc) {
		for i := 0; i < n; i++ {
			e.Unpark(ping, p.Now())
			p.Park("pong")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Parks() != 2*n || e.Switches() != 2*n+2 {
		t.Fatalf("ping-pong: %d parks and %d switches, want %d and %d", e.Parks(), e.Switches(), 2*n, 2*n+2)
	}
}
