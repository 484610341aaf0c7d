package core

import (
	"tapioca/internal/cost"
	"tapioca/internal/fault"
	"tapioca/internal/sim"
	"tapioca/internal/storage"
)

// This file is the recovery side of the deterministic fault plane
// (internal/fault): storage faults climb the shared storage.Ladder (bounded
// retry with virtual-time backoff, then degraded-mode writes past a dead
// burst-buffer tier), and a flush the ladder cannot place is lost; aggregator
// failover re-elects over the survivors and replays the dead aggregator's
// un-flushed rounds from rank-side payload buffers; and verify-and-repair
// scrubs corrupted flush extents. Every path here is gated on Config.Faults;
// a nil plan leaves the pipeline on its original code path.

// flushAsync issues one round's virtual flush (write, or read-path
// prefetch) on the tier the recovery ladder resolves, fallback tier
// included, with the round's own extents. A flush the ladder exhausts on
// (recovery off, retry budget spent, or no working fallback tier) is counted
// as lost and returns nil: its bytes never land. The chaos experiment's
// goodput subtracts LostBytes; correctness tests run with recovery armed and
// assert it stays zero. Stats mirror the ladder's outcome. Without
// Config.Faults it is one plain storage.Start.
func (w *Writer) flushAsync(p *sim.Proc, fl flushInfo, op storage.Op) *sim.Event {
	if w.cfg.Faults == nil {
		return storage.Start(p, w.sys, w.pc.Node(), w.f, fl.segs, op)
	}
	tier, out := w.ladder.Resolve(p)
	w.stats.Retries += out.Retries
	w.stats.BackoffNs += out.BackoffNs
	switch out.Verdict {
	case storage.Exhausted:
		w.stats.LostFlushes++
		w.stats.LostBytes += fl.bytes
		w.rec.Registry().Add(fault.MetricLostFlushes, 1)
		return nil
	case storage.IssuedOnFallback:
		w.stats.DegradedFlushes++
	}
	return storage.Start(p, tier, w.pc.Node(), w.f, fl.segs, op)
}

// deathRound resolves this partition's scheduled aggregator death, or -1.
// Single-member partitions host no deaths: there is no survivor to elect.
func (w *Writer) deathRound() int {
	if w.cfg.Faults == nil || w.pc.Size() < 2 {
		return -1
	}
	return w.cfg.Faults.AggregatorDeath(w.part, w.plan.parts[w.part].rounds)
}

// lostRounds is the deterministic replay set of a death at the top of round
// r: under the double-buffer schedule the only flushes that can still be in
// flight are rounds r-2 and r-1 (anything older was waited by a
// buffer-reuse guard). Every member computes the same set from the shared
// plan — no aggregator-local state crosses ranks. SingleBuffer flushes
// synchronously, so nothing is ever in flight.
func (w *Writer) lostRounds(r int) []int {
	if w.cfg.SingleBuffer {
		return nil
	}
	pp := &w.plan.parts[w.part]
	var lost []int
	for _, q := range []int{r - 2, r - 1} {
		if q >= 0 && pp.flush[q].bytes > 0 {
			lost = append(lost, q)
		}
	}
	return lost
}

// reelect re-runs the §IV-B election over the partition's surviving
// candidates. Every member holds the full cached member table, so each rank
// elects over the filtered table and lands on the same winner.
func (w *Writer) reelect(dead int) int {
	pp := &w.plan.parts[w.part]
	cand := make([]cost.Member, 0, len(pp.members)-1)
	idx := make([]int, 0, len(pp.members)-1)
	for i, m := range pp.members {
		if i != dead {
			cand = append(cand, m)
			idx = append(idx, i)
		}
	}
	e := &cost.Election{
		Model:     w.model(),
		Members:   cand,
		IOBytes:   pp.bytes,
		Partition: w.part,
	}
	return idx[w.cfg.Placement.Elect(e)]
}

// failover handles the aggregator death scheduled at the top of round r.
// Collective over the partition: every member pays detection and election
// time, computes the same replacement and the same replay set.
//
// Without Config.Recovery, the death is terminal: the demoted aggregator
// returns ErrAggregatorDead and its members, with nobody left to fence
// with, park until the engine's deadlock detector names them (with their
// phase labels) — the diagnosable no-recovery baseline.
//
// With Config.Recovery: the survivors re-elect over the remaining
// candidates, the dead aggregator's un-flushed rounds are replayed from the
// members' rank-side payload buffers into the new aggregator's window, and
// the new aggregator flushes them synchronously (with retry) before normal
// rounds resume. The demoted rank survives as a member — the model is
// gray failure of the aggregator role (its NVRAM lease expires, its buffers
// are fenced off) — so its own declared data still lands.
func (w *Writer) failover(p *sim.Proc, r int, pending *[2]*sim.Event, jobs *storeJobs, dataErr *error) error {
	reg := w.rec.Registry()
	if !w.cfg.Recovery {
		if w.isAgg {
			reg.Add(fault.MetricAggrDeaths, 1)
			return fault.ErrAggregatorDead
		}
		return nil
	}
	// Detection plus the local re-election compute, charged on every member.
	p.Hold(fault.DetectLatency + ElectionOverhead)

	wasAgg := w.isAgg
	newAgg := w.reelect(w.aggLocal)
	w.aggLocal = newAgg
	w.isAgg = w.pc.Rank() == newAgg
	w.stats.AggregatorWorldRank = w.pc.WorldRankOf(newAgg)
	w.stats.Failovers++
	if w.tp != nil {
		// Collapse the aggregation tree to its node-staged degenerate under
		// the new root: interior relays would still target the old root's
		// window. The fence budget stays frozen (fences are collective), so
		// the remaining interior phases run as empty fences.
		w.tp.collapsed = true
	}
	if w.isAgg {
		reg.Add(fault.MetricAggrDeaths, 1)
		reg.Add(fault.MetricFailovers, 1)
	}
	if wasAgg {
		// The demoted aggregator's in-flight virtual flushes complete by
		// timer with no waiter; its background store jobs are joined here,
		// in proc context, so the replacement's replay rewrites are ordered
		// after them on the host side (the engine serializes procs).
		jobs.join(0, dataErr)
		jobs.join(1, dataErr)
		pending[0], pending[1] = nil, nil
	}
	for _, q := range w.lostRounds(r) {
		w.replayRound(p, jobs, q, dataErr)
	}
	// Serializing fence: normal rounds resume only once the replacement's
	// replay flushes have landed (round r reuses the r-2 buffer).
	w.win.Fence()
	return nil
}

// replayRound re-runs round q's aggregation into the replacement
// aggregator's window and flushes it through flushRound, like any round. The
// bytes come from the members' own payload buffers (data-plane sessions) or
// move as virtual counts (phantom sessions) — the dead aggregator
// contributes nothing beyond its own declared data, which it still holds as
// a member. Replay is off the steady-state schedule and the serializing
// fence in failover needs the bytes durable, so the replacement joins the
// store job at once and waits for the flush. The original corruption key
// for round q was consumed at first flush, so the replay rewrites clean
// bytes over any damage.
func (w *Writer) replayRound(p *sim.Proc, jobs *storeJobs, q int, dataErr *error) {
	pp := &w.plan.parts[w.part]
	bufID := int64(q % 2)
	var deferredFree int64
	for _, pc := range w.plan.piecesOf(w.c.Rank()) {
		if pc.round != q {
			if pc.round > q {
				break
			}
			continue
		}
		if deferredFree > 0 {
			p.HoldUntil(deferredFree)
		}
		deferredFree = w.put(q, bufID, pc, false, dataErr)
	}
	w.win.FenceAfter(deferredFree)
	if !w.isAgg || pp.flush[q].bytes == 0 {
		return
	}
	ev := w.flushRound(p, jobs, q, bufID, false)
	jobs.join(bufID, dataErr)
	if ev != nil {
		ev.Wait(p)
	}
	w.stats.ReplayedRounds++
	w.rec.Registry().Add(fault.MetricReplayedRounds, 1)
}

// repairBlock is the scrub granularity of verify-and-repair: the targeted
// re-read/re-write covers at most this much of the extent around the
// damaged byte, not the whole round.
const repairBlock = 64 << 10

// locateByte maps the k-th positional byte of segs (enumeration order) to
// its file offset and the containing contiguous run. ok=false when k is
// past the segments' total bytes.
func locateByte(segs []storage.Seg, k int64) (off, runOff, runLen int64, ok bool) {
	for _, s := range segs {
		for i := int64(0); i < s.Runs(); i++ {
			if k < s.Len {
				return s.Off + i*s.Stride + k, s.Off + i*s.Stride, s.Len, true
			}
			k -= s.Len
		}
	}
	return 0, 0, 0, false
}

// checkCorruption consumes round r's corruption decision (proc context). It
// returns the damaged positional byte indexes to hand to storeRound. With
// Config.Recovery it also prices the targeted scrub — a blocking re-read and
// re-write of a repairBlock-sized window of the damaged extent against the
// current tier — and counts the repair; the host-side job then performs the
// real verify-and-rewrite (see applyDamage).
func (w *Writer) checkCorruption(p *sim.Proc, r int, fl flushInfo) (dmg []int64, repair bool) {
	k, ok := w.cfg.Faults.TakeCorruption(w.part, r, fl.bytes)
	if !ok {
		return nil, false
	}
	reg := w.rec.Registry()
	reg.Add(fault.MetricCorruptions, 1)
	dmg = []int64{k}
	if !w.cfg.Recovery {
		return dmg, false
	}
	if off, runOff, runLen, ok := locateByte(fl.segs, k); ok {
		within := off - runOff
		lo := runOff + within - within%repairBlock
		n := runLen - (lo - runOff)
		if n > repairBlock {
			n = repairBlock
		}
		scrub := []storage.Seg{storage.Contig(lo, n)}
		sys := w.ladder.Sys()
		node := w.pc.Node()
		storage.Do(p, sys, node, w.f, scrub, storage.OpRead)
		storage.Do(p, sys, node, w.f, scrub, storage.OpWrite)
	}
	w.stats.RepairedExtents++
	reg.Add(fault.MetricRepairedExtents, 1)
	return dmg, true
}

// applyDamage runs on the host side of a store job, after the round's bytes
// landed: it flips the damaged byte in the backing store (the modeled
// bit-flip between buffer and platter), then — with repair on — performs
// the verify-and-repair pass: re-read the scrub window, compare against the
// source bytes, and rewrite exactly the ranges that differ. Without repair
// the flip stays, and end-to-end CRC verification reports it.
func applyDamage(f *storage.File, layout []storage.Seg, src []byte, dmg []int64, repair bool) error {
	for _, k := range dmg {
		off, runOff, runLen, ok := locateByte(layout, k)
		if !ok {
			continue
		}
		var b [1]byte
		if err := f.StoreReadAt(b[:], off); err != nil {
			return err
		}
		b[0] ^= 0xFF
		if err := f.StoreWriteAt(b[:], off); err != nil {
			return err
		}
		if !repair {
			continue
		}
		// Positional index of the run's first byte within src.
		runPos := k - (off - runOff)
		within := off - runOff
		lo := within - within%repairBlock
		n := runLen - lo
		if n > repairBlock {
			n = repairBlock
		}
		want := src[runPos+lo : runPos+lo+n]
		got := make([]byte, n)
		if err := f.StoreReadAt(got, runOff+lo); err != nil {
			return err
		}
		for i := int64(0); i < n; i++ {
			if got[i] != want[i] {
				if err := f.StoreWriteAt(want[i:i+1], runOff+lo+i); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
