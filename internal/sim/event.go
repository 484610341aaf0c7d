package sim

import "fmt"

// Event is a one-shot completion notification carrying a virtual timestamp,
// in the spirit of a non-blocking I/O request handle. Procs that Wait on an
// incomplete event park until Complete fires; waits after completion just
// advance the clock to the completion time.
type Event struct {
	name    string
	reason  string // lazily built park reason, computed once
	done    bool
	at      int64
	waiters []*Proc
	wbuf    [2]*Proc // inline storage: most events have 0–2 waiters
}

// NewEvent returns an incomplete event.
func NewEvent(name string) *Event {
	return &Event{name: name}
}

// Done reports whether the event has fired.
func (ev *Event) Done() bool { return ev.done }

// At returns the completion time; only meaningful once Done.
func (ev *Event) At() int64 { return ev.at }

// Complete fires the event at virtual time at and wakes all waiters.
// Completing an event twice panics. The caller must be the running proc and
// at must be >= its current time (causality).
func (ev *Event) Complete(at int64) {
	if ev.done {
		panic(fmt.Sprintf("sim: event %q completed twice", ev.name))
	}
	ev.done = true
	ev.at = at
	for i, w := range ev.waiters {
		w.eng.Unpark(w, at)
		ev.waiters[i] = nil
	}
	ev.waiters = nil
}

// Wait blocks p until the event completes, then advances p's clock to the
// completion time. It returns the completion time.
func (ev *Event) Wait(p *Proc) int64 {
	if !ev.done {
		if ev.waiters == nil {
			ev.waiters = ev.wbuf[:0]
		}
		ev.waiters = append(ev.waiters, p)
		if ev.reason == "" {
			ev.reason = "waiting for event " + ev.name
		}
		p.Park(ev.reason)
	}
	// Parked procs are woken at the completion time already; the HoldUntil
	// covers the already-done path and is a harmless no-op otherwise.
	p.HoldUntil(ev.at)
	return ev.at
}

// CompleteAt arranges for ev to complete at virtual time t (clamped to the
// caller's current time if in the past). It backs non-blocking operations
// whose completion time is known at issue, such as reservation-based
// asynchronous I/O. The completion rides a recycled engine timer node — no
// helper goroutine is spawned.
func CompleteAt(p *Proc, ev *Event, t int64) {
	if t < p.Now() {
		t = p.Now()
	}
	p.Engine().after(t, ev)
}
