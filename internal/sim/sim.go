// Package sim implements a deterministic, process-oriented discrete-event
// simulation engine.
//
// Simulated processes ("procs") are ordinary goroutines that advance a
// virtual clock instead of wall time. The engine runs exactly one proc at a
// time and always resumes the runnable proc with the smallest (virtual time,
// proc id) pair, so a simulation is fully deterministic: the same program
// produces the same event ordering and the same virtual timestamps on every
// run. This property is load-bearing for the TAPIOCA reproduction — paper
// experiments are regenerated as exact, repeatable traces.
//
// The engine enforces a conservative causality rule: every operation that
// advances a proc's clock is a scheduling point, and operations on shared
// state (resources, mailboxes, barriers) always take effect at the calling
// proc's current virtual time, which is guaranteed to be minimal among all
// runnable procs. Procs therefore can never observe effects "from the
// future".
//
// Scheduling is built for throughput: the run queue is a concrete 4-ary
// min-heap over *Proc (no interface boxing), a proc that is still strictly
// earliest after advancing its clock keeps running without any context
// switch (the same-proc fast path), and when a switch is needed the yielding
// proc resumes its successor directly — the engine goroutine is only woken
// when the run queue empties or an error needs adjudication, so the steady
// state pays one channel handoff per switch instead of two plus an engine
// round-trip.
//
// Virtual time is int64 nanoseconds.
package sim

import (
	"fmt"
	"math"
	"sort"

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

// abortError is the sentinel panic value used to unwind proc goroutines when
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
// goroutine the engine created for it; procs communicate through engine
// primitives, never by calling methods on each other's handles.
//
// The same struct doubles as a recycled timer node (timerEv != nil): timers
// ride the run queue like procs but fire inline in whichever goroutine
// dispatches them, with no goroutine or channel behind them.
type Proc struct {
	eng  *Engine
	id   int
	name string
	now  int64

	state      procState
	parkReason string
	phase      string
	aborted    bool

	resume chan struct{}
	fn     func(*Proc)

	heapIndex int // position in the engine run queue, -1 if absent

	// Flight-recorder track identity (see SetTraceID). traceOn is true only
	// when the engine recorder has a live event buffer, so the untraced Park
	// pays a single predicted-false branch and Hold pays nothing at all.
	traceOn  bool
	tracePID int32
	traceTID int32
	runStart int64 // virtual time the current run interval began

	// Timer-node fields (goroutine-less run-queue entries).
	timerEv   *Event // event to complete when dispatched
	timerNext *Proc  // engine free list

	// mailw is the proc's reusable mailbox-waiter node: a proc parks while
	// receiving, so it never needs more than one.
	mailw mailWaiter
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

// PhaseLabel returns the current phase label ("" when unset).
func (p *Proc) PhaseLabel() string { return p.phase }

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

	// wake is the engine goroutine's adjudication signal: a proc sends on it
	// when the run queue empties or a terminal error needs handling. Buffered
	// so the engine's own empty-queue dispatch cannot self-deadlock; at most
	// one wake is ever outstanding (a single goroutine runs at a time).
	wake    chan struct{}
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

	parks int64 // Park calls (work counter; the Hold fast path is not counted)
}

// Parks returns how many times procs have parked: a deterministic work
// counter (each park is a blocking wait and usually a context switch) that
// compares across machines where wall-clock cannot.
func (e *Engine) Parks() int64 { return e.parks }

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
	return &Engine{wake: make(chan struct{}, 1)}
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
		resume:    make(chan struct{}),
		heapIndex: -1,
	}
	e.nextID++
	if e.started {
		p.now = e.clock
	}
	e.procs = append(e.procs, p)
	e.live++
	go p.run()
	e.runq.push(p)
	return p
}

// run is the goroutine body wrapping the user function.
func (p *Proc) run() {
	<-p.resume // wait for first schedule
	defer func() {
		r := recover()
		if r != nil {
			if _, isAbort := r.(abortError); !isAbort && p.eng.err == nil {
				p.eng.err = fmt.Errorf("sim: proc %d (%s) panicked at t=%d: %v", p.id, p.name, p.now, r)
			}
		}
		if p.traceOn && r == nil {
			p.eng.rec.Span(p.tracePID, p.traceTID, "sched", "run", p.runStart, p.now, 0)
		}
		p.state = stateFinished
		e := p.eng
		e.live--
		if e.err != nil || p.aborted {
			// Terminal condition: the engine adjudicates (error propagation
			// or drain); do not hand control to another proc.
			e.wake <- struct{}{}
			return
		}
		e.dispatch(nil)
	}()
	if p.aborted {
		return
	}
	p.fn(p)
}

// Run executes the simulation until every proc finishes. It returns an error
// if a proc panicked or if the simulation deadlocked (no runnable proc while
// live procs remain parked). After Run returns, all proc goroutines have
// terminated.
func (e *Engine) Run() error {
	if e.running {
		return fmt.Errorf("sim: Run called re-entrantly")
	}
	e.running = true
	e.started = true
	defer func() { e.running = false }()

	// Dispatch the earliest entry and sleep until the chain of direct
	// proc-to-proc handoffs needs adjudication: the queue drained (normal
	// completion or deadlock) or a proc recorded a terminal error.
	for e.err == nil && (e.runq.len() > 0 || e.batchPos < len(e.batch)) {
		e.dispatch(nil)
		<-e.wake
	}

	if e.err == nil && e.live > 0 {
		e.err = e.deadlockError()
	}
	e.drain()
	return e.err
}

// dispatch transfers control to the earliest pending run-queue entry. Timer
// nodes fire inline (in the calling goroutine, which is acting as the
// scheduler at the minimal virtual time) until a real proc surfaces; that
// proc is then resumed directly. With nothing left to run, the engine
// goroutine is woken to adjudicate.
//
// self is the calling proc (nil from the engine goroutine or a finishing
// proc). An inline timer can unpark self mid-dispatch; when self then pops
// as the earliest entry, dispatch returns true and the caller keeps running
// instead of sending itself a resume it could never receive.
func (e *Engine) dispatch(self *Proc) (resumedSelf bool) {
	for {
		next := e.popNext()
		if next == nil {
			e.wake <- struct{}{}
			return false
		}
		if e.budget > 0 && next.now > e.budget {
			if e.err == nil {
				e.err = &BudgetError{Limit: e.budget, At: next.now}
			}
			e.wake <- struct{}{}
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
				// The completion panicked. Timers have no goroutine whose
				// recover could catch it, so record it here and hand the
				// terminal error to the engine to adjudicate.
				e.wake <- struct{}{}
				return false
			}
			continue
		}
		next.state = stateRunning
		if next == self {
			return true
		}
		next.resume <- struct{}{}
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
// goroutine-less timer node on the run queue. Callers guarantee causality
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
// process, which proc goroutines get from run()'s recover.
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

// drain force-terminates all unfinished procs so no goroutines leak.
func (e *Engine) drain() {
	e.batch = nil
	e.batchPos = 0
	for _, p := range e.procs {
		if p.state == stateFinished {
			continue
		}
		p.aborted = true
		if p.heapIndex >= 0 {
			e.runq.remove(p)
		}
		p.resume <- struct{}{}
		<-e.wake
	}
	e.runq.clear() // drop any remaining timer nodes
}

// handoff enqueues nothing itself: it transfers control to the next pending
// entry and blocks until this proc is resumed. On resume it honors shutdown
// aborts. If an inline timer made this proc the earliest entry again, it
// returns without ever blocking.
func (p *Proc) handoff() {
	if p.eng.dispatch(p) {
		return
	}
	<-p.resume
	if p.aborted {
		panic(abortError{})
	}
}

// reschedule is the engine's scheduling point. If the proc is still strictly
// earliest — the dominant case for Hold under skewed clocks — it simply
// keeps running: no heap traffic, no channel ops, no goroutine switch. The
// outcome is identical to re-enqueueing and being popped again immediately.
// Otherwise the proc enqueues itself and resumes its successor directly.
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

// Traced reports whether this proc emits trace spans (SetTraceID was called
// under a tracing recorder).
func (p *Proc) Traced() bool { return p.traceOn }

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
	sort.Slice(s, func(i, j int) bool { return s[i].id < s[j].id })
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

func (q *runQueue) len() int { return len(q.s) }

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
