package storage

import (
	"errors"

	"tapioca/internal/fault"
	"tapioca/internal/sim"
)

// Verdict is how one climb of the recovery ladder ended.
type Verdict uint8

const (
	// Issued: the op may be issued on the returned tier, the primary one.
	Issued Verdict = iota
	// IssuedOnFallback: the primary tier is down; the op may be issued on
	// the returned fallback tier behind it.
	IssuedOnFallback
	// Exhausted: no rung remained (recovery unarmed, retry budget spent, or
	// no working fallback tier). The returned tier is the one that failed.
	Exhausted
)

// Outcome reports one climb of the ladder: its verdict, the transient
// retries it took and the virtual backoff it waited.
type Outcome struct {
	Verdict   Verdict
	Retries   int64
	BackoffNs int64
}

// Ladder is one client's storage recovery policy, shared by the TAPIOCA
// pipeline and the MPI-IO baseline so both meet storage faults alike.
// Transient errors retry after fault.Backoff while under
// fault.RetryAttempts and fault.RetryBudget; a tier outage degrades once to
// the tier behind it (DegradedSystemOf). The degrade is sticky: once the
// primary tier is down, every later climb starts on the fallback. Anything
// else exhausts the ladder, and the caller decides what exhaustion means.
type Ladder struct {
	primary  System
	fallback System // the tier behind primary, once primary went down
	armed    bool
}

// NewLadder returns the ladder of a client issuing on sys. Unarmed, the
// first error exhausts it.
func NewLadder(sys System, armed bool) Ladder {
	return Ladder{primary: sys, armed: armed}
}

// Sys is the tier the client's traffic targets: the primary, or the
// fallback once the primary went down.
func (l *Ladder) Sys() System {
	if l.fallback != nil {
		return l.fallback
	}
	return l.primary
}

// Resolve climbs the ladder for one op about to be issued and returns the
// tier to issue it on. It charges failure latency and backoff as virtual
// time and counts recovery.retries, recovery.backoff_ns and
// recovery.degraded_rounds. On a system without a fault plan it returns
// Sys() at once, with no hold and no allocation.
func (l *Ladder) Resolve(p *sim.Proc) (System, Outcome) {
	var out Outcome
	for {
		sys := l.Sys()
		tier, err := try(p, sys)
		if err == nil {
			if l.fallback != nil {
				out.Verdict = IssuedOnFallback
				p.Recorder().Registry().Add(fault.MetricDegradedRounds, 1)
			}
			return tier, out
		}
		down := errors.Is(err, fault.ErrTierDown)
		if l.armed && down && l.fallback == nil {
			if l.fallback = DegradedSystemOf(sys); l.fallback != nil {
				continue
			}
		}
		// A fallback tier that is down too ends the climb: it has no rung
		// below it, and a dead tier costs no virtual time to retry.
		if !l.armed || down || out.Retries >= fault.RetryAttempts || out.BackoffNs >= fault.RetryBudget {
			out.Verdict = Exhausted
			return sys, out
		}
		d := fault.Backoff(int(out.Retries))
		p.Hold(d)
		out.Retries++
		out.BackoffNs += d
		reg := p.Recorder().Registry()
		reg.Add(fault.MetricRetries, 1)
		reg.Add(fault.MetricBackoffNs, d)
	}
}
