package mpiio

import "tapioca/internal/storage"

// This file gives the MPI-IO baseline the same storage-fault hygiene as the
// TAPIOCA pipeline: every round flush (dense, sieved or run by run) and every
// round read climbs the shared storage.Ladder, with bounded retry and
// virtual-time backoff on transient errors and a fall-back to the tier behind
// a dead burst buffer.

// guarded issues one blocking round write (or read) on the tier the recovery
// ladder resolves. On a system without a fault plan that is one plain
// storage.Do. Where core loses a flush the ladder exhausts on, the baseline
// does not: an exhausted ladder returns the tier that failed, and the plain
// self-healing path on it completes the op so the collective stays alive.
func (fh *File) guarded(op storage.Op, segs []storage.Seg) {
	p := fh.c.Proc()
	tier, _ := fh.ladder.Resolve(p)
	storage.Do(p, tier, fh.c.Node(), fh.f, segs, op)
}
