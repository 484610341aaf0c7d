// Package sim implements a deterministic, process-oriented discrete-event
// simulation engine.
//
// Simulated processes ("procs") run on coroutines (iter.Pull) and advance a
// virtual clock instead of wall time. The engine runs exactly one proc at a
// time and always resumes the runnable proc with the smallest (virtual time,
// proc id) pair, so a simulation is fully deterministic: the same program
// produces the same event ordering and the same virtual timestamps on every
// run. This property is load-bearing for the TAPIOCA reproduction — paper
// experiments are regenerated as exact, repeatable traces.
//
// The engine enforces a conservative causality rule: every operation that
// advances a proc's clock is a scheduling point, and operations on shared
// state (resource bookings, events, park/unpark rendezvous) always take
// effect at the calling proc's current virtual time, which is guaranteed to
// be minimal among all runnable procs. Procs therefore can never observe
// effects "from the future".
//
// Scheduling is built for throughput: the run queue is a concrete 4-ary
// min-heap over *Proc, a proc still strictly earliest after advancing its
// clock keeps running (the same-proc fast path), and a switch is two
// coroutine transfers on one thread: the parking proc picks its successor
// and yields to Engine.Run, which resumes it.
// A proc blocked on a real channel holds up the whole simulation meanwhile.
// Each proc runs on its own carrier coroutine from its first run to its end;
// under the race detector, carriers are pooled and reused (see keepCarriers).
//
// Virtual time is int64 nanoseconds.
package sim

import (
	"fmt"
	"iter"
	"math"
	"slices"
	"sync"

	"tapioca/internal/obs"
)

// Handy duration constants in virtual nanoseconds.
const (
	Nanosecond  int64 = 1
	Microsecond int64 = 1000
	Millisecond int64 = 1000 * 1000
	Second      int64 = 1000 * 1000 * 1000
)

// Seconds converts a floating-point duration in seconds to virtual
// nanoseconds, rounding to the nearest nanosecond.
func Seconds(s float64) int64 {
	return int64(math.Round(s * float64(Second)))
}

// ToSeconds converts virtual nanoseconds to floating-point seconds.
func ToSeconds(ns int64) float64 {
	return float64(ns) / float64(Second)
}

// TransferTime returns the time needed to move bytes at rate bytes/second.
// A non-positive rate means "infinitely fast" and yields zero.
func TransferTime(bytes int64, rate float64) int64 {
	if rate <= 0 || bytes <= 0 {
		return 0
	}
	return int64(math.Ceil(float64(bytes) / rate * float64(Second)))
}

// abortError is the sentinel panic value used to unwind suspended procs when
// the engine shuts down early (deadlock or another proc's failure).
type abortError struct{}

func (abortError) Error() string { return "sim: proc aborted by engine shutdown" }

type procState int

const (
	stateRunnable procState = iota
	stateRunning
	stateParked
	stateFinished
)

func (s procState) String() string {
	switch s {
	case stateRunnable:
		return "runnable"
	case stateRunning:
		return "running"
	case stateParked:
		return "parked"
	case stateFinished:
		return "finished"
	}
	return "unknown"
}

// Proc is a simulated process. A Proc handle is only valid inside the
// proc's own function, which runs on a carrier coroutine lent to it from its
// first run to its end; procs communicate through engine primitives, never
// by calling methods on each other's handles.
//
// The same struct doubles as a recycled timer node (timerEv != nil): timers
// ride the run queue like procs but fire inline in whichever proc (or the
// engine loop) dispatches them, with no coroutine behind them.
type Proc struct {
	eng  *Engine
	id   int
	name string
	now  int64

	state      procState
	parkReason string
	phase      string

	fn  func(*Proc)
	car *carrier // runs fn; nil before the first run and after the end

	heapIndex int // position in the engine run queue, -1 if absent

	// Flight-recorder track identity (see SetTraceID). traceOn is true only
	// when the engine recorder has a live event buffer, so the untraced Park
	// pays a single predicted-false branch and Hold pays nothing at all.
	traceOn  bool
	tracePID int32
	traceTID int32
	runStart int64 // virtual time the current run interval began

	// Timer-node fields (coroutine-less run-queue entries).
	timerEv   *Event // event to complete when dispatched
	timerNext *Proc  // engine free list
}

// ID returns the proc's unique id (strictly increasing in spawn order;
// internal timers share the same sequence, so ids are not dense).
func (p *Proc) ID() int { return p.id }

// Name returns the proc's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Now returns the proc's current virtual time in nanoseconds.
func (p *Proc) Now() int64 { return p.now }

// Engine returns the engine that owns this proc.
func (p *Proc) Engine() *Engine { return p.eng }

// Recorder returns the engine's flight recorder (nil when observability is
// off — obs methods are nil-receiver-safe, so callers need no guard).
func (p *Proc) Recorder() *obs.Recorder { return p.eng.rec }

// SetPhaseLabel names the proc's current pipeline phase for diagnostics:
// when the simulation deadlocks, the error lists each parked proc's phase
// alongside its park reason, turning "32 procs parked" into an actionable
// report. Pass "" to clear. Callers should only set labels when diagnostics
// are wanted (e.g. a recorder is attached); the fast path pays nothing.
func (p *Proc) SetPhaseLabel(label string) { p.phase = label }

// SetTraceID assigns the proc's trace track — (pid, tid) in the Chrome
// trace's process/thread convention (compute node id, world rank) — and
// starts its first run interval. Until called, the proc emits no scheduler
// spans. No-op unless the engine recorder is tracing.
func (p *Proc) SetTraceID(pid, tid int32) {
	if !p.eng.rec.Tracing() {
		return
	}
	p.traceOn = true
	p.tracePID = pid
	p.traceTID = tid
	p.runStart = p.now
}

// Engine coordinates a set of procs over a shared virtual clock. The zero
// value is not usable; call NewEngine.
type Engine struct {
	procs  []*Proc
	runq   runQueue
	clock  int64
	live   int
	nextID int
	err    error

	// pending is the proc that Run resumes next, chosen by the dispatch that
	// suspended the previous one; nil when Run must dispatch itself.
	pending *Proc
	running bool
	started bool

	timerFree *Proc // recycled timer nodes

	// batch is the sorted release FIFO backing UnparkBatch: a mass release
	// (a collective waking thousands of ranks at one instant) enqueues its
	// procs here ordered by (time, id) instead of paying per-proc heap
	// traffic; batchPos is the consumed prefix. The scheduler always takes
	// the smaller of the heap top and the FIFO head, so the merged pop order
	// is exactly the order an all-heap schedule would produce.
	batch    []*Proc
	batchPos int

	// rec is the optional flight recorder. nil (the default) is the disabled
	// state: procs skip all instrumentation, and the engine's hot paths carry
	// no recorder checks at all.
	rec *obs.Recorder

	// budget, when > 0, is the virtual-time watchdog: dispatching any entry
	// past this time aborts the run with a *BudgetError instead of letting a
	// livelocked simulation spin forever.
	budget int64

	parks    int64 // Park calls (work counter; the Hold fast path is not counted)
	switches int64 // coroutine resumes in Run
}

// Parks returns how many times procs have parked: a deterministic work
// counter (each park is a blocking wait and usually a context switch) that
// compares across machines where wall-clock cannot.
func (e *Engine) Parks() int64 { return e.parks }

// Switches returns how many times Run has resumed a proc: a deterministic
// work counter of context switches.
func (e *Engine) Switches() int64 { return e.switches }

// SetBudget arms the virtual-time watchdog: the run terminates with a
// *BudgetError as soon as the clock would pass limit (ns). Zero disables.
// Truly stuck simulations already surface as deadlock errors; the budget
// catches livelock and runaway retry loops, which deadlock detection cannot.
func (e *Engine) SetBudget(limit int64) { e.budget = limit }

// BudgetError is the terminal error of a run that exceeded its virtual-time
// budget (see SetBudget). Match with errors.As.
type BudgetError struct {
	Limit int64 // the configured budget, ns
	At    int64 // the virtual time that breached it, ns
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("sim: virtual-time budget exceeded: t=%d past limit %d", e.At, e.Limit)
}

// SetRecorder attaches a flight recorder to the engine. Call before Run;
// procs cache tracing state when they call SetTraceID.
func (e *Engine) SetRecorder(r *obs.Recorder) { e.rec = r }

// Recorder returns the attached flight recorder (nil when disabled).
func (e *Engine) Recorder() *obs.Recorder { return e.rec }

// NewEngine returns an empty engine ready for Spawn and Run.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the engine's clock: the largest virtual time any proc has
// reached so far.
func (e *Engine) Now() int64 { return e.clock }

// Err returns the terminal error recorded during Run, if any.
func (e *Engine) Err() error { return e.err }

// NumProcs returns the number of procs ever spawned.
func (e *Engine) NumProcs() int { return len(e.procs) }

// Spawn creates a proc that will execute fn when the engine schedules it.
// Spawn may be called before Run, or by a running proc (the child starts at
// the parent's current virtual time).
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	p := &Proc{
		eng:       e,
		id:        e.nextID,
		name:      name,
		fn:        fn,
		state:     stateRunnable,
		heapIndex: -1,
	}
	e.nextID++
	if e.started {
		p.now = e.clock
	}
	e.procs = append(e.procs, p)
	e.live++
	e.runq.push(p)
	return p
}

// carrier is the coroutine a proc runs on. It runs its proc's function to
// the end; then it ends too, or, when keepCarriers is set, it yields and
// waits idle in the pool for its next proc.
type carrier struct {
	p     *Proc // the proc being run; nil while idle
	next  func() (struct{}, bool)
	yield func(struct{}) bool
}

func (c *carrier) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.p.run()
		c.p = nil
		if !keepCarriers {
			return
		}
		yield(struct{}{})
	}
}

// idleCarriers is the process-wide pool of carriers between procs, empty
// unless keepCarriers is set. Engines on different goroutines share it: a
// carrier may be resumed from any goroutine, one at a time. It holds at most
// the largest number of procs that were ever started and unfinished at once.
var idleCarriers struct {
	sync.Mutex
	s []*carrier
}

func getCarrier() *carrier {
	idleCarriers.Lock()
	defer idleCarriers.Unlock()
	if n := len(idleCarriers.s); n > 0 {
		c := idleCarriers.s[n-1]
		idleCarriers.s = idleCarriers.s[:n-1]
		return c
	}
	c := &carrier{}
	c.next, _ = iter.Pull(c.loop)
	return c
}

func putCarrier(c *carrier) {
	idleCarriers.Lock()
	idleCarriers.s = append(idleCarriers.s, c)
	idleCarriers.Unlock()
}

// run executes the proc's function on its carrier. A proc's panic becomes
// the engine's terminal error; abortError is swallowed. runtime.Goexit in
// the function ends the carrier and then Run's goroutine, which drains the
// other procs on its way out.
func (p *Proc) run() {
	returned := false
	defer func() {
		e := p.eng
		switch r := recover(); {
		case returned:
			if p.traceOn {
				e.rec.Span(p.tracePID, p.traceTID, "sched", "run", p.runStart, p.now, 0)
			}
		case r == nil:
			p.car = nil
			if e.err == nil {
				e.err = fmt.Errorf("sim: proc %d (%s) called runtime.Goexit at t=%d", p.id, p.name, p.now)
			}
		default:
			if _, isAbort := r.(abortError); !isAbort && e.err == nil {
				e.err = fmt.Errorf("sim: proc %d (%s) panicked at t=%d: %v", p.id, p.name, p.now, r)
			}
		}
		p.state = stateFinished
		e.live--
	}()
	p.fn(p)
	returned = true
}

// Run executes the simulation until every proc finishes. It returns an error
// if a proc panicked or if the simulation deadlocked (no runnable proc while
// live procs remain parked). After Run returns, every proc and its carrier
// have ended, or the carrier is idle in the pool.
func (e *Engine) Run() error {
	if e.running {
		return fmt.Errorf("sim: Run called re-entrantly")
	}
	e.running = true
	e.started = true
	defer func() {
		e.drain()
		e.running = false
	}()

	// A parking proc leaves its successor in pending; after a finish the loop
	// dispatches itself. An empty queue or a terminal error ends the run.
	for e.err == nil {
		if e.pending == nil {
			e.dispatch(nil)
		}
		p := e.pending
		if p == nil {
			break
		}
		e.pending = nil
		e.switches++
		e.resume(p)
	}

	if e.err == nil && e.live > 0 {
		e.err = e.deadlockError()
	}
	return e.err
}

// resume runs p until it parks or ends. p gets its carrier on its first run
// and drops it when it ends.
func (e *Engine) resume(p *Proc) {
	if p.car == nil {
		p.car = getCarrier()
		p.car.p = p
	}
	p.car.next()
	if p.state == stateFinished {
		if keepCarriers {
			putCarrier(p.car)
		}
		p.car = nil
	}
}

// dispatch chooses the earliest pending run-queue entry to run next. Timer
// nodes fire inline (in the calling proc or the engine loop, which is acting
// as the scheduler at the minimal virtual time) until a real proc surfaces;
// that proc is left in e.pending for Run to resume. An empty queue, a budget
// breach or a timer panic leaves e.pending nil.
//
// self is the calling proc (nil from the engine loop). An inline timer can
// unpark self mid-dispatch; when self then pops as the earliest entry,
// dispatch returns true and the caller keeps running without a switch.
func (e *Engine) dispatch(self *Proc) (resumedSelf bool) {
	for {
		next := e.popNext()
		if next == nil {
			return false
		}
		if e.budget > 0 && next.now > e.budget {
			if e.err == nil {
				e.err = &BudgetError{Limit: e.budget, At: next.now}
			}
			return false
		}
		if next.now > e.clock {
			e.clock = next.now
		}
		if next.timerEv != nil {
			ev, at := next.timerEv, next.now
			e.freeTimer(next)
			e.fireTimer(ev, at)
			if e.err != nil {
				// The completion panicked (fireTimer recorded it): leave the
				// terminal error to Run.
				return false
			}
			continue
		}
		next.state = stateRunning
		if next == self {
			return true
		}
		e.pending = next
		return false
	}
}

// peekNext returns the earliest pending entry across the heap and the
// release FIFO without removing it, or nil.
func (e *Engine) peekNext() *Proc {
	top := e.runq.peek()
	if e.batchPos < len(e.batch) {
		if b := e.batch[e.batchPos]; top == nil || procLess(b, top) {
			return b
		}
	}
	return top
}

// popNext removes and returns the earliest pending entry across the heap and
// the release FIFO, or nil.
func (e *Engine) popNext() *Proc {
	top := e.runq.peek()
	if e.batchPos < len(e.batch) {
		if b := e.batch[e.batchPos]; top == nil || procLess(b, top) {
			e.batchPos++
			if e.batchPos == len(e.batch) {
				e.batch = e.batch[:0] // drained: recycle the backing
				e.batchPos = 0
			}
			return b
		}
	}
	return e.runq.pop()
}

// after arranges for ev to complete at virtual time at, via a recycled
// coroutine-less timer node on the run queue. Callers guarantee causality
// (at >= the running proc's time).
func (e *Engine) after(at int64, ev *Event) {
	t := e.timerFree
	if t != nil {
		e.timerFree = t.timerNext
		t.timerNext = nil
	} else {
		t = &Proc{eng: e, heapIndex: -1}
	}
	t.id = e.nextID
	e.nextID++
	t.now = at
	t.timerEv = ev
	e.runq.push(t)
}

// freeTimer returns a fired timer node to the engine free list.
func (e *Engine) freeTimer(t *Proc) {
	t.timerEv = nil
	t.timerNext = e.timerFree
	e.timerFree = t
}

// fireTimer completes a timer's event, converting a panic (e.g. an event
// completed twice) into the engine's terminal error — preserving the
// contract that Run returns misbehavior as an error instead of crashing the
// process, which procs get from run's recover.
func (e *Engine) fireTimer(ev *Event, at int64) {
	defer func() {
		if r := recover(); r != nil && e.err == nil {
			e.err = fmt.Errorf("sim: timer for event %q panicked at t=%d: %v", ev.name, at, r)
		}
	}()
	ev.Complete(at)
}

// deadlockListMax caps the parked-proc listing in deadlock diagnostics: at
// full scale a deadlock can strand tens of thousands of procs, and a
// multi-megabyte error string helps nobody.
const deadlockListMax = 32

// deadlockError builds a diagnostic listing the stuck procs (in proc-id
// order, capped at deadlockListMax entries).
func (e *Engine) deadlockError() error {
	msg := "sim: deadlock"
	listed, stuck := 0, 0
	for _, p := range e.procs {
		if p.state == stateFinished || p.state == stateRunning {
			continue
		}
		stuck++
		if listed >= deadlockListMax {
			continue
		}
		listed++
		reason := p.parkReason
		if reason == "" {
			reason = "(no reason)"
		}
		msg += fmt.Sprintf("\n  proc %d (%s) at t=%d: %s", p.id, p.name, p.now, reason)
		if p.phase != "" {
			msg += fmt.Sprintf(" [phase: %s]", p.phase)
		}
	}
	if rest := stuck - listed; rest > 0 {
		msg += fmt.Sprintf("\n  ... and %d more stuck procs", rest)
	}
	return fmt.Errorf("%s", msg)
}

// drain force-terminates all unfinished procs. It resumes each suspended
// proc once more; seeing the terminal error, the proc unwinds with
// abortError and drops its carrier. A proc that never ran has no carrier.
func (e *Engine) drain() {
	e.batch = nil
	e.batchPos = 0
	e.pending = nil
	for _, p := range e.procs {
		if p.state == stateFinished {
			continue
		}
		if p.heapIndex >= 0 {
			e.runq.remove(p)
		}
		if p.car != nil {
			e.resume(p)
		} else {
			p.state = stateFinished
			e.live--
		}
	}
	e.runq.clear() // drop any remaining timer nodes
}

// handoff enqueues nothing itself: it chooses the next entry to run and
// suspends this proc until Run resumes it, unwinding with abortError if
// drain resumes it instead (only drain resumes a proc after a terminal
// error). If an inline timer made this proc the earliest entry again, it
// returns without suspending.
func (p *Proc) handoff() {
	if p.eng.dispatch(p) {
		return
	}
	p.car.yield(struct{}{})
	if p.eng.err != nil {
		panic(abortError{})
	}
}

// reschedule is the engine's scheduling point. If the proc is still strictly
// earliest — the dominant case for Hold under skewed clocks — it simply
// keeps running: no heap traffic, no coroutine switch. The outcome is
// identical to re-enqueueing and being popped again immediately. Otherwise
// the proc enqueues itself and yields to its successor.
func (p *Proc) reschedule() {
	e := p.eng
	// A budget breach must not take the keep-running shortcut: the slow path
	// funnels it through dispatch, where the watchdog adjudicates.
	if top := e.peekNext(); (top == nil || procLess(p, top)) && (e.budget == 0 || p.now <= e.budget) {
		if p.now > e.clock {
			e.clock = p.now
		}
		return
	}
	p.state = stateRunnable
	e.runq.push(p)
	p.handoff()
	p.state = stateRunning
}

// Hold advances the proc's virtual clock by d nanoseconds (a "compute" or
// "busy" period). Negative d panics. Hold is a scheduling point.
func (p *Proc) Hold(d int64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: Hold with negative duration %d", d))
	}
	p.now += d
	p.reschedule()
}

// HoldUntil advances the proc's virtual clock to time t, if t is in the
// future. HoldUntil is a scheduling point even when t is in the past, which
// keeps scheduling behaviour uniform.
func (p *Proc) HoldUntil(t int64) {
	if t > p.now {
		p.now = t
	}
	p.reschedule()
}

// JumpTo advances the proc's clock to t (if in the future) without a
// scheduling point — the specialized "advance, then immediately block"
// primitive. Deferring the yield to an imminent park saves a full context
// switch per message on the put→fence hot path. The contract is strict: the
// caller must immediately enter a parking operation (collective, barrier,
// event wait) and may only perform commutative shared-state updates before
// it — no resource bookings, which must always happen at a globally minimal
// virtual time. The park then re-enters the ordered schedule, so the
// simulation's event order is identical to the HoldUntil it replaces.
func (p *Proc) JumpTo(t int64) {
	if t > p.now {
		p.now = t
	}
}

// TraceSpan records a completed interval on this proc's own trace track.
// No-op (one predicted branch, zero allocations) when the proc is untraced.
func (p *Proc) TraceSpan(cat, name string, start, end, bytes int64) {
	if p.traceOn {
		p.eng.rec.Span(p.tracePID, p.traceTID, cat, name, start, end, bytes)
	}
}

// Park blocks the proc until another proc calls Unpark on it. The reason
// string appears in deadlock diagnostics. The proc resumes with its clock
// advanced to at least the unparker-provided wake time.
func (p *Proc) Park(reason string) {
	p.eng.parks++
	if p.traceOn {
		p.parkTraced(reason)
		return
	}
	p.state = stateParked
	p.parkReason = reason
	p.handoff()
	p.state = stateRunning
	p.parkReason = ""
}

// parkTraced is Park with scheduler-span emission: the run interval that
// ends here and, once resumed, the parked interval named by the reason.
// Both spans are emitted while this proc is the (single) running proc, so
// the event order is deterministic.
func (p *Proc) parkTraced(reason string) {
	rec := p.eng.rec
	rec.Span(p.tracePID, p.traceTID, "sched", "run", p.runStart, p.now, 0)
	at := p.now
	p.state = stateParked
	p.parkReason = reason
	p.handoff()
	p.state = stateRunning
	p.parkReason = ""
	rec.Span(p.tracePID, p.traceTID, "sched", reason, at, p.now, 0)
	p.runStart = p.now
}

// Rewait records that a parked proc now waits for another reason, without
// waking it: its park goes on, and deadlock diagnostics name the new reason.
// The caller rules of Unpark apply. Rewaiting a proc that is not parked
// panics.
func (e *Engine) Rewait(target *Proc, reason string) {
	if target.state != stateParked {
		panic(fmt.Sprintf("sim: Rewait of proc %d (%s) in state %v", target.id, target.name, target.state))
	}
	target.parkReason = reason
}

// Unpark makes a parked proc runnable at virtual time at (or the target's
// own clock, whichever is later). It must only be called by the currently
// running proc, with at >= the caller's current time; the engine's causality
// guarantee depends on it. Unparking a proc that is not parked panics.
func (e *Engine) Unpark(target *Proc, at int64) {
	if target.state != stateParked {
		panic(fmt.Sprintf("sim: Unpark of proc %d (%s) in state %v", target.id, target.name, target.state))
	}
	if at > target.now {
		target.now = at
	}
	target.state = stateRunnable
	e.runq.push(target)
}

// UnparkBatch makes every parked proc in waiters runnable at virtual time at
// — the mass-release path of a barrier or collective. It is schedule-
// equivalent to calling Unpark on each waiter, but the procs enter the
// sorted release FIFO, so an N-proc release costs one id sort instead of N
// heap pushes and N full-depth sifting pops. The caller rules of Unpark
// apply; waiters whose clock is already past at, and releases that would
// break the FIFO's (time, id) order, fall back to individual heap entry.
func (e *Engine) UnparkBatch(waiters []*Proc, at int64) {
	if len(waiters) == 0 {
		return
	}
	if e.batchPos < len(e.batch) && e.batch[len(e.batch)-1].now >= at {
		// A same-instant release could interleave with the pending tail by
		// id; the heap preserves that order, the FIFO could not.
		for _, w := range waiters {
			e.Unpark(w, at)
		}
		return
	}
	start := len(e.batch)
	for _, w := range waiters {
		if w.state != stateParked {
			panic(fmt.Sprintf("sim: UnparkBatch of proc %d (%s) in state %v", w.id, w.name, w.state))
		}
		if w.now > at {
			// Wakes later than the batch instant: order it through the heap.
			e.Unpark(w, at)
			continue
		}
		w.now = at
		w.state = stateRunnable
		e.batch = append(e.batch, w)
	}
	if added := e.batch[start:]; len(added) > 1 {
		sortProcsByID(added)
	}
}

// sortProcsByID sorts same-time batch entries by proc id. Collective waiters
// park in run order, which is usually already id-sorted — detect that in one
// pass and only pay a real sort when it is not.
func sortProcsByID(s []*Proc) {
	sorted := true
	for i := 1; i < len(s); i++ {
		if s[i].id < s[i-1].id {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	slices.SortFunc(s, func(a, b *Proc) int { return a.id - b.id })
}

// procLess is the scheduling order: (virtual time, proc id) ascending.
func procLess(a, b *Proc) bool {
	return a.now < b.now || (a.now == b.now && a.id < b.id)
}

// runQueue is a concrete 4-ary min-heap over (now, id). A 4-ary layout
// halves the tree depth of the binary heap and keeps siblings on one cache
// line; the inlined procLess comparisons avoid the interface boxing of
// container/heap.
type runQueue struct {
	s []*Proc
}

// peek returns the earliest entry without removing it, or nil.
func (q *runQueue) peek() *Proc {
	if len(q.s) == 0 {
		return nil
	}
	return q.s[0]
}

func (q *runQueue) push(p *Proc) {
	q.s = append(q.s, p)
	p.heapIndex = len(q.s) - 1
	q.siftUp(len(q.s) - 1)
}

func (q *runQueue) pop() *Proc {
	n := len(q.s)
	if n == 0 {
		return nil
	}
	top := q.s[0]
	top.heapIndex = -1
	last := q.s[n-1]
	q.s[n-1] = nil
	q.s = q.s[:n-1]
	if n > 1 {
		q.s[0] = last
		last.heapIndex = 0
		q.siftDown(0)
	}
	return top
}

// remove deletes the entry at p's heap position (drain support).
func (q *runQueue) remove(p *Proc) {
	i := p.heapIndex
	if i < 0 {
		return
	}
	n := len(q.s)
	p.heapIndex = -1
	last := q.s[n-1]
	q.s[n-1] = nil
	q.s = q.s[:n-1]
	if last == p {
		return
	}
	q.s[i] = last
	last.heapIndex = i
	q.siftDown(i)
	q.siftUp(last.heapIndex)
}

func (q *runQueue) clear() {
	for i := range q.s {
		q.s[i].heapIndex = -1
		q.s[i] = nil
	}
	q.s = q.s[:0]
}

func (q *runQueue) siftUp(i int) {
	p := q.s[i]
	for i > 0 {
		parent := (i - 1) / 4
		pp := q.s[parent]
		if !procLess(p, pp) {
			break
		}
		q.s[i] = pp
		pp.heapIndex = i
		i = parent
	}
	q.s[i] = p
	p.heapIndex = i
}

func (q *runQueue) siftDown(i int) {
	p := q.s[i]
	n := len(q.s)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		mp := q.s[first]
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if procLess(q.s[c], mp) {
				min, mp = c, q.s[c]
			}
		}
		if !procLess(mp, p) {
			break
		}
		q.s[i] = mp
		mp.heapIndex = i
		i = min
	}
	q.s[i] = p
	p.heapIndex = i
}
