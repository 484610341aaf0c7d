package mpiio

import (
	"errors"

	"tapioca/internal/fault"
	"tapioca/internal/storage"
)

// This file gives the MPI-IO baseline the same storage-fault hygiene a real
// ROMIO stack has: bounded retry with virtual-time backoff on transient
// errors and a fall-back to the tier behind a dead burst buffer. Every round
// flush (dense, sieved or run by run) and every round read goes through the
// guarded path; the independent (non-collective) calls stay on the plain
// storage.Do path, where the modeled client library absorbs transients
// internally.

// ioSys is the tier the handle's round I/O currently targets: the opened
// system, or the degraded fallback once the primary tier went down.
func (fh *File) ioSys() storage.System {
	if fh.degraded != nil {
		return fh.degraded
	}
	return fh.sys
}

// guarded issues one blocking round write (or read) with the recovery loop.
// On a system without a fault plan this is one plain storage.Do; with one,
// transients retry under the fixed retry policy, a tier outage degrades when a
// fallback tier exists, and an exhausted budget hands the op back to the
// self-healing plain path so the collective still completes. Every round I/O
// served by the fallback tier counts as one degraded round, as in core.
func (fh *File) guarded(op storage.Op, segs []storage.Seg) {
	p := fh.c.Proc()
	node := fh.c.Node()
	for attempt, spent := 0, int64(0); ; {
		sys := fh.ioSys()
		tier, err := storage.Try(p, sys)
		if err == nil {
			storage.Do(p, tier, node, fh.f, segs, op)
			if fh.degraded != nil {
				p.Recorder().Registry().Add(fault.MetricDegradedRounds, 1)
			}
			return
		}
		reg := p.Recorder().Registry()
		if errors.Is(err, fault.ErrTierDown) {
			if d := storage.DegradedSystemOf(sys); d != nil {
				fh.degraded = d
				continue
			}
			storage.Do(p, sys, node, fh.f, segs, op) // no fallback tier; the plain path completes the op
			return
		}
		if attempt < fault.RetryAttempts && spent < fault.RetryBudget {
			d := fault.Backoff(attempt)
			attempt++
			spent += d
			p.Hold(d)
			reg.Add(fault.MetricRetries, 1)
			reg.Add(fault.MetricBackoffNs, d)
			continue
		}
		storage.Do(p, sys, node, fh.f, segs, op) // budget exhausted: absorb internally, keep the collective alive
		return
	}
}
