package storage

import (
	"tapioca/internal/fault"
	"tapioca/internal/sim"
)

// transientLatency is the virtual cost of one failed store op: the timeout
// plus error-path software cost the client pays before seeing the failure.
const transientLatency = 500_000 // 500µs

// Faulty injects a deterministic fault plan beneath any storage system:
// transient op failures, latency spikes, and a scheduled permanent tier
// outage. Through Do and Start the wrapper is self-healing (transients cost
// latency but the op proceeds, so fault-oblivious callers stay correct);
// through a Ladder the errors surface and its recovery policy applies.
//
// All decisions are consumed in proc context — the engine's serialization
// makes the op counter deterministic, serial or parallel grid runs alike.
type Faulty struct {
	backing System
	plan    *fault.Plan
	tierID  uint64
	ops     int64
	down    bool // latched tier outage (metric emitted once)
}

// NewFaulty wraps backing under the plan. A nil plan injects nothing.
func NewFaulty(backing System, plan *fault.Plan) *Faulty {
	return &Faulty{backing: backing, plan: plan, tierID: fault.TierID(backing.Name())}
}

// try consumes one fault decision for an op about to be issued against sys
// and returns the system to issue it on. On a fault-injected system it
// either returns the tier beneath the wrapper (nil error), or charges the
// failure-detection latency and returns fault.ErrTransient (retryable) or
// fault.ErrTierDown (degrade or lose). A system without a fault plan comes
// back unchanged and never fails. The plain interface has no error returns
// — the happy-path layers stay oblivious — so recovery-aware callers climb
// a Ladder, which drives its retries and degrade through try.
func try(p *sim.Proc, sys System) (System, error) {
	fy, ok := sys.(*Faulty)
	if !ok {
		return sys, nil
	}
	if err := fy.decide(p); err != nil {
		return nil, err
	}
	return fy.backing, nil
}

// unwrap returns the system directly beneath a wrapper tier (the fault
// injector or a burst buffer), or nil for a base model.
func unwrap(sys System) System {
	switch s := sys.(type) {
	case *Faulty:
		return s.backing
	case *BurstBuffer:
		return s.backing
	}
	return nil
}

// DegradedSystemOf returns the tier a writer should fall back to when sys
// reports ErrTierDown: the backing store beneath a burst-buffer tier,
// seen through any fault wrapper. nil when there is no fallback tier.
func DegradedSystemOf(sys System) System {
	for ; sys != nil; sys = unwrap(sys) {
		if _, ok := sys.(*BurstBuffer); ok {
			return unwrap(sys)
		}
	}
	return nil
}

func (fy *Faulty) Name() string                              { return fy.backing.Name() }
func (fy *Faulty) Create(name string, opt FileOptions) *File { return fy.backing.Create(name, opt) }
func (fy *Faulty) Lookup(name string) *File                  { return fy.backing.Lookup(name) }
func (fy *Faulty) OptimalUnit(f *File) int64                 { return fy.backing.OptimalUnit(f) }

func (fy *Faulty) EstimateFlush(opt FileOptions, bytes, runs int64, read bool) float64 {
	return fy.backing.EstimateFlush(opt, bytes, runs, read)
}

func (fy *Faulty) AggregateBandwidth(opt FileOptions, read bool) float64 {
	return fy.backing.AggregateBandwidth(opt, read)
}

func (fy *Faulty) AlignUnit(opt FileOptions) int64 { return fy.backing.AlignUnit(opt) }

func (fy *Faulty) RecommendStripe(totalBytes, bufSize int64, aggregators int) FileOptions {
	return fy.backing.RecommendStripe(totalBytes, bufSize, aggregators)
}

// TierIOCost forwards the cost-model tier hook; without one beneath, the
// generic topology formula applies (ok=false).
func (fy *Faulty) TierIOCost(node int, bytes int64) (float64, bool) {
	if t, ok := fy.backing.(interface {
		TierIOCost(node int, bytes int64) (float64, bool)
	}); ok {
		return t.TierIOCost(node, bytes)
	}
	return 0, false
}

// decide consumes one op decision: nil (after any latency spike),
// ErrTransient, or ErrTierDown.
func (fy *Faulty) decide(p *sim.Proc) error {
	if fy.plan.TierDown(p.Now()) {
		if !fy.down {
			fy.down = true
			p.Recorder().Registry().Add(fault.MetricTierDown, 1)
		}
		return fault.ErrTierDown
	}
	op := fy.ops
	fy.ops++
	switch fy.plan.Store(fy.tierID, op) {
	case fault.StoreTransient:
		p.Hold(transientLatency)
		p.Recorder().Registry().Add(fault.MetricStoreTransients, 1)
		return fault.ErrTransient
	case fault.StoreSlow:
		p.Hold(fy.plan.SlowPenalty(fy.tierID, op))
		p.Recorder().Registry().Add(fault.MetricSlowSpikes, 1)
	}
	return nil
}

// absorb runs the decision loop for the plain (no-error) interface: the
// modeled client library retries transients internally until one sticks, so
// fault-oblivious callers see latency, never failure. A tier outage cannot
// be absorbed; the op falls through to the backing tier's fallback if one
// exists, else proceeds against the (nominally down) tier so the oblivious
// caller still completes — recovery-aware callers use Try.
func (fy *Faulty) absorb(p *sim.Proc) System {
	for tries := 0; tries < 64; tries++ {
		switch err := fy.decide(p); err {
		case nil:
			return fy.backing
		case fault.ErrTierDown:
			if d := DegradedSystemOf(fy.backing); d != nil {
				return d
			}
			return fy.backing
		}
	}
	// Pathological schedule (rate ~1): give up absorbing, let the op land.
	return fy.backing
}

// book absorbs the op's fault decisions, then books it on the tier they
// leave.
func (fy *Faulty) book(p *sim.Proc, node int, f *File, segs []Seg, op Op) (int64, string, []Seg) {
	return fy.absorb(p).book(p, node, f, segs, op)
}
