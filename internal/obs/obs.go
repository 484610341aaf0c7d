// Package obs is the flight recorder behind tapiocabench -trace and the
// metrics registry behind the -json metrics snapshot: phase-level tracing,
// resource-utilization timelines, and typed counters for the whole stack
// (sim engine, netsim fabric, mpi runtime, core pipeline, storage).
//
// The package is designed around two invariants:
//
//  1. Zero overhead when disabled. Every producer holds a *Recorder that is
//     nil in normal operation; all Recorder methods are nil-receiver-safe,
//     so the disabled hot path pays exactly one pointer comparison and zero
//     allocations (guarded by BenchmarkEngineStepTraced and the alloc tests
//     in internal/sim).
//  2. Deterministic output. Recorded spans carry virtual time only, and
//     within one simulation the engine runs exactly one proc at a time, so
//     each simulation's event stream is identical on every run. Host-side
//     wall-clock measurements (store I/O) go to the metrics registry under
//     the "host." prefix, never into the trace.
//
// A Recorder observes ONE simulation (one engine + fabric + storage). Runs
// that span many independent simulations (the experiment grid) use one
// Recorder per cell and merge them through Trace and Registry.MergeFrom,
// both of which are order-independent, so parallel grid execution yields
// byte-identical traces and snapshots.
package obs

// Phase is one stage of the aggregation pipeline, the unit of the
// per-figure phase-breakdown table (the paper's stacked-bar analyses).
type Phase int

const (
	// PhaseAggregation is time ranks spend issuing puts/gets and gathering
	// payload into aggregation buffers.
	PhaseAggregation Phase = iota
	// PhaseExchange is time spent in round fences and closing barriers —
	// the synchronization cost of the bulk-synchronous schedule.
	PhaseExchange
	// PhaseStorage is time aggregators spend blocked on flush (write path)
	// or prefetch (read path) completions.
	PhaseStorage
	// NumPhases is the phase count (array sizing).
	NumPhases
)

var phaseNames = [NumPhases]string{"aggregation", "exchange", "storage"}

func (ph Phase) String() string {
	if ph < 0 || ph >= NumPhases {
		return "unknown"
	}
	return phaseNames[ph]
}

// Well-known trace process ids. Compute nodes use their node id directly as
// the pid (one Perfetto "process" per simulated node, one "thread" per
// rank); the resource timelines live in dedicated pseudo-processes above
// any realistic node count.
const (
	// PIDLinks hosts one thread per fabric link (reservation intervals and
	// rolling utilization counters).
	PIDLinks int32 = 1 << 24
	// PIDNICs hosts two threads per node: tid 2n is node n's injection NIC,
	// tid 2n+1 its ejection NIC.
	PIDNICs int32 = 1<<24 + 1
	// PIDStorage hosts one thread per issuing node carrying extent
	// write/read service intervals.
	PIDStorage int32 = 1<<24 + 2
)

// Kind discriminates trace events.
type Kind uint8

const (
	// KindSpan is a completed interval [TS, TS+Dur] (Chrome "X").
	KindSpan Kind = iota
	// KindCounter is a sampled value at TS (Chrome "C"); the counter track
	// is (PID, Name/TID).
	KindCounter
)

// Event is one recorded trace event. TS and Dur are virtual nanoseconds.
// Name and Cat must be constant (or otherwise outliving) strings — events
// reference, never copy.
type Event struct {
	Kind  Kind
	PID   int32
	TID   int32
	TS    int64
	Dur   int64
	Name  string
	Cat   string
	Bytes int64   // span payload size (0 when not a data-moving span)
	Val   float64 // counter value
}

// DefaultEventLimit caps a single recorder's event buffer. Tracing a
// pathological cell (hundreds of thousands of transfers) must not exhaust
// memory; overflow is counted, reported by Dropped, and surfaced by the
// drivers — never silent.
const DefaultEventLimit = 2 << 20

// Recorder collects one simulation's observability data. The zero value is
// not used; create with NewRecorder. A nil *Recorder is the disabled state:
// every method no-ops (and allocates nothing) on a nil receiver.
//
// Trace and phase methods are NOT goroutine-safe: they must be called from
// the simulation's running proc (the engine runs exactly one at a time),
// which is also what makes the event order deterministic. The Registry is
// goroutine-safe and may be fed from host-side background goroutines.
type Recorder struct {
	trace   bool
	limit   int
	dropped int64
	events  []Event
	phases  PhaseTotals
	reg     *Registry
}

// NewRecorder returns a recorder with a fresh registry. trace enables the
// event buffer; with trace false the recorder still accumulates metrics and
// phase totals (the -json/-phases mode).
func NewRecorder(trace bool) *Recorder {
	r := &Recorder{trace: trace, reg: NewRegistry()}
	if trace {
		r.limit = DefaultEventLimit
	}
	return r
}

// SetEventLimit overrides the per-recorder event cap (n <= 0 restores the
// default).
func (r *Recorder) SetEventLimit(n int) {
	if n <= 0 {
		n = DefaultEventLimit
	}
	r.limit = n
}

// Tracing reports whether the event buffer is live. Safe on nil.
func (r *Recorder) Tracing() bool { return r != nil && r.trace }

// Registry returns the metrics registry, or nil on a nil recorder — and
// Registry methods are themselves nil-safe, so producers chain
// r.Registry().Add(...) without checks.
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Events returns the recorded events (no copy; callers must not mutate).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// Dropped returns the events discarded at the event cap.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

func (r *Recorder) push(e Event) {
	if len(r.events) >= r.limit {
		r.dropped++
		return
	}
	r.events = append(r.events, e)
}

// Span records a completed interval [start, end] on track (pid, tid).
// end < start records a zero-length span at start. No-op unless tracing.
func (r *Recorder) Span(pid, tid int32, cat, name string, start, end, bytes int64) {
	if r == nil || !r.trace {
		return
	}
	dur := end - start
	if dur < 0 {
		dur = 0
	}
	r.push(Event{Kind: KindSpan, PID: pid, TID: tid, TS: start, Dur: dur, Name: name, Cat: cat, Bytes: bytes})
}

// Counter records a sampled value at virtual time ts on counter track
// (pid, name/tid). No-op unless tracing.
func (r *Recorder) Counter(pid, tid int32, name string, ts int64, val float64) {
	if r == nil || !r.trace {
		return
	}
	r.push(Event{Kind: KindCounter, PID: pid, TID: tid, TS: ts, Name: name, Val: val})
}

// Phase adds dur virtual nanoseconds to a phase total. Safe on nil.
func (r *Recorder) Phase(ph Phase, dur int64) {
	if r == nil || dur <= 0 {
		return
	}
	r.phases[ph] += dur
}

// PhaseTotals returns the accumulated per-phase virtual time.
func (r *Recorder) PhaseTotals() PhaseTotals {
	if r == nil {
		return PhaseTotals{}
	}
	return r.phases
}

// PhaseTotals is per-phase virtual nanoseconds, summed over every rank that
// reported (rank-time, not wall-time: P ranks each spending 1 s in a phase
// total P rank-seconds).
type PhaseTotals [NumPhases]int64

// Add accumulates another total (order-independent merge).
func (t *PhaseTotals) Add(o PhaseTotals) {
	for i := range t {
		t[i] += o[i]
	}
}

// Seconds returns one phase's total in seconds.
func (t PhaseTotals) Seconds(ph Phase) float64 { return float64(t[ph]) / 1e9 }

// Total returns the sum over all phases in seconds.
func (t PhaseTotals) Total() float64 {
	var s int64
	for _, v := range t {
		s += v
	}
	return float64(s) / 1e9
}

// Empty reports whether nothing was recorded.
func (t PhaseTotals) Empty() bool {
	for _, v := range t {
		if v != 0 {
			return false
		}
	}
	return true
}
