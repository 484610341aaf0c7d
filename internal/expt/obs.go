package expt

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"tapioca/internal/obs"
)

// Observer is the observation session behind tapiocabench
// -trace/-phases/-json metrics: every measurement cell of a run it observes
// contributes one per-cell recorder, merged here under the run's figure id,
// so one Observer can serve many runs. All merge operations
// (Trace.AddCell, Registry.MergeFrom, PhaseTotals.Add) are
// order-independent, so parallel grid execution produces byte-identical
// output.
type Observer struct {
	trace bool
	tr    *obs.Trace

	mu     sync.Mutex
	phases map[string]*obs.PhaseTotals
	regs   map[string]*obs.Registry
}

// NewObserver starts an observation session. With trace true, cells also
// record full event streams (merged by Trace); with trace false only
// metrics and phase totals accumulate (the cheap -json/-phases mode).
func NewObserver(trace bool) *Observer {
	return &Observer{
		trace:  trace,
		tr:     obs.NewTrace(),
		phases: map[string]*obs.PhaseTotals{},
		regs:   map[string]*obs.Registry{},
	}
}

// registryOf returns the label's metrics registry, creating it on first use.
// Callers must hold o.mu.
func (o *Observer) registryOf(label string) *obs.Registry {
	reg := o.regs[label]
	if reg == nil {
		reg = obs.NewRegistry()
		o.regs[label] = reg
	}
	return reg
}

// recorder returns a fresh per-cell recorder, or nil on a nil Observer.
func (o *Observer) recorder() *obs.Recorder {
	if o == nil {
		return nil
	}
	return obs.NewRecorder(o.trace)
}

// observe folds one completed cell into the session under label. Safe on a
// nil Observer, and goroutine-safe (cells run on the worker pool).
func (o *Observer) observe(label string, rec *obs.Recorder) {
	if o == nil {
		return
	}
	o.mu.Lock()
	pt := o.phases[label]
	if pt == nil {
		pt = &obs.PhaseTotals{}
		o.phases[label] = pt
	}
	pt.Add(rec.PhaseTotals())
	reg := o.registryOf(label)
	o.mu.Unlock()
	o.tr.AddCell(label, rec)
	reg.MergeFrom(rec.Registry())
}

// Trace returns the session's merged trace, or nil when not tracing.
func (o *Observer) Trace() *obs.Trace {
	if !o.trace {
		return nil
	}
	return o.tr
}

// Metrics returns a figure's merged metrics registry, created empty on first
// use; nil on a nil Observer (Registry methods are nil-safe).
func (o *Observer) Metrics(id string) *obs.Registry {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.registryOf(id)
}

// PhaseTotals returns a figure's accumulated phase breakdown (rank-time:
// every rank's virtual seconds in each phase, summed over the figure's
// cells).
func (o *Observer) PhaseTotals(id string) obs.PhaseTotals {
	o.mu.Lock()
	defer o.mu.Unlock()
	if pt := o.phases[id]; pt != nil {
		return *pt
	}
	return obs.PhaseTotals{}
}

// PhaseSeconds returns a figure's phase breakdown as a name→seconds map
// (the -json shape).
func (o *Observer) PhaseSeconds(id string) map[string]float64 {
	pt := o.PhaseTotals(id)
	if pt.Empty() {
		return nil
	}
	m := make(map[string]float64, int(obs.NumPhases))
	for ph := obs.Phase(0); ph < obs.NumPhases; ph++ {
		m[ph.String()] = pt.Seconds(ph)
	}
	return m
}

// PhaseTable renders one figure's phase breakdown as an aligned text table
// row block — the paper's stacked-bar analyses in text form. Values are
// rank-seconds (virtual), with each phase's share of the total.
func (o *Observer) PhaseTable(id string) string {
	pt := o.PhaseTotals(id)
	if pt.Empty() {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "-- %s phase breakdown (rank-seconds, virtual) --\n", id)
	total := pt.Total()
	names := make([]string, obs.NumPhases)
	for ph := obs.Phase(0); ph < obs.NumPhases; ph++ {
		names[ph] = ph.String()
	}
	sorted := make([]obs.Phase, obs.NumPhases)
	for i := range sorted {
		sorted[i] = obs.Phase(i)
	}
	sort.SliceStable(sorted, func(i, j int) bool { return pt[sorted[i]] > pt[sorted[j]] })
	for _, ph := range sorted {
		fmt.Fprintf(&b, "%-14s %12.3f s  %5.1f%%\n", names[ph], pt.Seconds(ph), 100*pt.Seconds(ph)/total)
	}
	fmt.Fprintf(&b, "%-14s %12.3f s\n", "total", total)
	return b.String()
}
