package core

import (
	"fmt"
	"time"

	"tapioca/internal/obs"
	"tapioca/internal/sim"
	"tapioca/internal/storage"
)

// hostClock returns the wall-clock start of a host-side measurement, or the
// zero time when observability is off. Host timings (real store work on
// background goroutines) go only to the registry, under the "host." prefix
// — never into the deterministic virtual-time trace.
func hostClock(rec *obs.Recorder) time.Time {
	if rec == nil {
		return time.Time{}
	}
	return time.Now()
}

// hostObserve records the wall seconds since start into a "host." histogram.
// The registry is goroutine-safe, so background store jobs report directly.
func hostObserve(rec *obs.Recorder, name string, start time.Time) {
	if start.IsZero() {
		return
	}
	rec.Registry().Observe(name, time.Since(start).Seconds())
}

// storeJob is one round's real store I/O (a flush, prefetch or replay)
// running on a background goroutine, off the simulation's critical path:
// the schedule that overlaps the virtual flush with the next round's
// aggregation carries the actual bytes too. At most one job per buffer is
// in flight (the join point precedes the next launch).
type storeJob struct {
	done chan struct{}
	err  error
}

// storeJobs holds a session's store jobs, one slot per aggregation buffer.
// Every store I/O of a data-plane session runs as a job, whatever the buffer
// mode; storeJobs.join is its only completion point.
type storeJobs [2]*storeJob

// launch runs fn on a background goroutine as buffer bufID's job.
// Everything fn touches must be captured in a synchronized context before
// the launch (window slices, layouts, the file's attached store).
func (js *storeJobs) launch(bufID int64, fn func() error) {
	j := &storeJob{done: make(chan struct{})}
	go func() {
		defer close(j.done)
		j.err = fn()
	}()
	js[bufID] = j
}

// join waits for buffer bufID's store job, if any: the first job error is
// kept in *errp. Joining costs no virtual time; it is the host-side
// happens-before edge that lets the buffer be reused.
func (js *storeJobs) join(bufID int64, errp *error) {
	j := js[bufID]
	if j == nil {
		return
	}
	<-j.done
	if j.err != nil && *errp == nil {
		*errp = j.err
	}
	js[bufID] = nil
}

// waitFlush blocks on a flush (or prefetch) event and books the wait to the
// storage phase under the named trace span. A nil event — no flush, or one
// absorbed as lost — costs nothing.
func (w *Writer) waitFlush(p *sim.Proc, ev *sim.Event, span string, bytes int64) {
	if ev == nil {
		return
	}
	start := p.Now()
	ev.Wait(p)
	if w.rec != nil {
		w.rec.Phase(obs.PhaseStorage, p.Now()-start)
		p.TraceSpan("tapioca", span, start, p.Now(), bytes)
	}
}

// storeRound lands one filled buffer in the backing store. dmg and repair
// carry the fault plane's corruption decision for this round (both zero on
// the fault-free path): after the write lands, applyDamage flips the damaged
// byte and — with repair on — scrubs it back.
func (w *Writer) storeRound(buf []byte, layout []storage.Seg, dmg []int64, repair bool) error {
	t := hostClock(w.rec)
	err := w.f.StoreWrite(layout, buf)
	hostObserve(w.rec, "host.store_write_seconds", t)
	if err == nil && len(dmg) > 0 {
		err = applyDamage(w.f, layout, buf, dmg, repair)
	}
	return err
}

// flushRound is the aggregator's flush of round r's filled buffer bufID —
// the one flush step of Algorithm 3, shared by the steady-state pipeline
// and failover replay. In order: on a round's first flush under
// Config.Faults, its corruption decision, whose repair scrub books storage;
// the data plane's store job; and the non-blocking virtual flush, whose
// event the caller waits on its own schedule.
func (w *Writer) flushRound(p *sim.Proc, jobs *storeJobs, r int, bufID int64, first bool) *sim.Event {
	fl := w.plan.parts[w.part].flush[r]
	var dmg []int64
	var repair bool
	if first && w.cfg.Faults != nil {
		dmg, repair = w.checkCorruption(p, r, fl)
	}
	if w.pl != nil {
		// The fence published every member's payload; hand the filled
		// buffer to a background store job. Everything the job touches is
		// resolved here, in proc context.
		buf := w.win.LocalData()[bufID*w.cfg.BufferSize:][:fl.bytes]
		layout := w.plan.layoutOf(w.part, r)
		w.f.EnsureStore()
		jobs.launch(bufID, func() error {
			return w.storeRound(buf, layout, dmg, repair)
		})
	}
	ev := w.flushAsync(p, fl, storage.OpWrite)
	w.stats.BytesFlushed += fl.bytes
	w.stats.Flushes++
	return ev
}

// runWrite executes the paper's Algorithm 3 over the partition: for every
// round, members put their pieces into the active buffer via one-sided
// communication; the fence closes the epoch; the aggregator then flushes the
// filled buffer with a non-blocking write while the next round aggregates
// into the other buffer. Before reusing a buffer, the aggregator waits for
// its previous flush — arriving late at the fence, which is how a slow
// storage phase throttles the whole partition.
//
// Round r's fence is attended by the ranks that move data around it: the
// aggregator and the members with pieces in round r or r+1 (see
// countAttendance). Every other member skips the round and goes on to its
// next attended fence or the closing barrier. Its arrival would have been
// the previous release, no later than the aggregator's, and it books
// nothing, so every release — priced with the whole partition's tree cost —
// lands at the same instant. Sessions where members meet mid-round keep
// every member at every fence: staged shapes (node rendezvous, tree level
// fences), SingleBuffer (the serializing fence) and Config.Faults (failover
// re-election).
//
// Every round's flush goes through flushRound. The buffer mode decides only
// the virtual-time wait: double buffering parks the flush event until the
// buffer's next reuse, SingleBuffer waits for it at once and then fences
// again to serialize the next round's aggregation.
//
// With the data plane on, the same schedule moves real bytes, zero-copy:
// each put's payload is gathered by dataplane.Plane.Each directly into the
// aggregator's window memory (Win.PutGather — no intermediate buffer), and
// the aggregator's real store I/O for round r runs as a background store job
// in both buffer modes, joined before the fence that would let members
// overwrite that buffer. Data-plane errors are deferred to the return value:
// the fences and the closing barrier are collective, so a rank must finish
// the round structure in lockstep even when its store fails.
func (w *Writer) runWrite() error {
	pp := &w.plan.parts[w.part]
	p := w.c.Proc()
	myPieces := w.plan.piecesOf(w.c.Rank())
	var pending [2]*sim.Event
	var jobs storeJobs
	var dataErr error
	rec := w.rec
	faults := w.cfg.Faults != nil
	deadRound := w.deathRound()
	sparse := !faults && !w.cfg.SingleBuffer && !w.cfg.Shape().Staged()
	idx := 0
	for r := 0; r < pp.rounds; r++ {
		if sparse && !w.isAgg && (idx == len(myPieces) || myPieces[idx].round > r+1) {
			w.win.SkipFences(1) // no pieces in round r or r+1
			continue
		}
		bufID := int64(r % 2)
		if faults || rec != nil {
			p.SetPhaseLabel(fmt.Sprintf("tapioca round %d/%d", r+1, pp.rounds))
		}
		if r == deadRound {
			if err := w.failover(p, r, &pending, &jobs, &dataErr); err != nil {
				return err
			}
		}
		var roundStart int64
		var roundPut int64
		if faults || rec != nil {
			roundStart = p.Now()
		}
		if rec != nil {
			roundPut = w.stats.BytesPut
		}
		// The round's puts: the plan coalesces each rank's contribution to
		// one piece per round in the common case, and the last put's
		// injection hold is deferred into the fence (FenceAfter) — one
		// context switch per rank per round instead of two. Under a staged
		// shape the rank's role for the round decides where its pieces go:
		// the aggregator, the node leader, or its own coalesced span put.
		var deferredFree int64
		var st roundStep
		if w.tp != nil {
			st = w.tp.step(r, w.aggLocal)
		}
		ownStart := idx
		for idx < len(myPieces) && myPieces[idx].round == r {
			pc := myPieces[idx]
			idx++
			w.stats.BytesPut += pc.bytes
			if st.role == putVertex {
				continue
			}
			if deferredFree > 0 {
				p.HoldUntil(deferredFree) // yield before booking another put
			}
			deferredFree = w.put(r, bufID, pc, st.role == putDeposit, &dataErr)
		}
		own := myPieces[ownStart:idx]
		if st.rendezvous {
			// Node rendezvous: members contribute their deposit-completion
			// times to the shared-memory fence (the leader, with no deposit,
			// contributes zero), so the leader reads the staged region only
			// after every deposit has landed.
			w.tp.nodeComm.FenceLocal(deferredFree)
			deferredFree = 0
		}
		if st.role == putVertex && st.level == 0 {
			deferredFree, _ = w.spanPut(r, bufID, st, own, &dataErr)
		}
		if rec != nil {
			// Aggregation phase: the puts loop plus the deferred injection
			// hold that FenceAfter will ride into the fence.
			aggEnd := p.Now()
			if deferredFree > aggEnd {
				aggEnd = deferredFree
			}
			rec.Phase(obs.PhaseAggregation, aggEnd-roundStart)
			p.TraceSpan("tapioca", "gather", roundStart, aggEnd, w.stats.BytesPut-roundPut)
		}
		if w.tp != nil && w.tp.fences > 0 {
			// Interior tree levels, deepest first: a vertex at depth d
			// forwards its whole subtree span to its parent, and the level's
			// fence publishes it before depth d−1 reads. The fence count is
			// the partition's frozen budget — every member fences every
			// level every round, engaged, collapsed, or idle (staged shapes
			// keep full participation). Depth-1 relays forward last, riding
			// the round's main fence exactly like an inline span put.
			for d := w.tp.fences + 1; d >= 2; d-- {
				levelStart := p.Now()
				var sent int64
				if st.role == putVertex && st.level == d {
					deferredFree, sent = w.spanPut(r, bufID, st, own, &dataErr)
				}
				w.win.FenceAfter(deferredFree)
				deferredFree = 0
				if rec != nil {
					rec.Phase(obs.PhaseExchange, p.Now()-levelStart)
					p.TraceSpan("tapioca", fmt.Sprintf("tree-level-%d", d), levelStart, p.Now(), sent)
				}
			}
			if st.role == putVertex && st.level == 1 {
				deferredFree, _ = w.spanPut(r, bufID, st, own, &dataErr)
			}
		}
		// Join the store job still reading the other buffer: the fence we
		// are about to enter releases members into the round that next
		// overwrites it. (The virtual flush completion is enforced
		// separately by pending[…] below — joining here costs no virtual
		// time, it is the host-side happens-before edge.)
		jobs.join(1-bufID, &dataErr)
		// Buffer-reuse guard: the fence cannot release until the aggregator
		// has finished the flush that last used this buffer.
		if w.isAgg {
			w.waitFlush(p, pending[bufID], "flush-wait", 0)
			pending[bufID] = nil
		}
		var fenceStart int64
		if rec != nil {
			if fenceStart = p.Now(); deferredFree > fenceStart {
				fenceStart = deferredFree
			}
		}
		attend := w.pc.Size()
		if sparse {
			attend = int(pp.writeFence[r])
		}
		w.win.FenceOf(attend, deferredFree)
		if rec != nil {
			rec.Phase(obs.PhaseExchange, p.Now()-fenceStart)
			p.TraceSpan("tapioca", "exchange", fenceStart, p.Now(), 0)
		}
		if w.isAgg && pp.flush[r].bytes > 0 {
			ev := w.flushRound(p, &jobs, r, bufID, true)
			if w.cfg.SingleBuffer {
				w.waitFlush(p, ev, "flush-wait", pp.flush[r].bytes)
			} else {
				pending[bufID] = ev
			}
		}
		if w.cfg.SingleBuffer {
			// Ablation: with one buffer the next round's aggregation cannot
			// start until the flush lands; a second fence serializes it.
			serStart := p.Now()
			w.win.Fence()
			if rec != nil {
				rec.Phase(obs.PhaseExchange, p.Now()-serStart)
			}
		}
		if rec != nil {
			p.TraceSpan("tapioca", "round", roundStart, p.Now(), w.stats.BytesPut-roundPut)
		}
		if faults && w.isAgg {
			// Per-round latency distribution (p99 under faults is a headline
			// number of the chaos experiment). Faults-only: the zero-fault
			// metrics snapshot must stay byte-identical to the baseline.
			rec.Registry().Observe("tapioca.round_seconds", sim.ToSeconds(p.Now()-roundStart))
		}
	}
	if faults || rec != nil {
		p.SetPhaseLabel("tapioca drain")
	}
	// Drain outstanding flushes, then close the session collectively.
	if w.isAgg {
		for _, ev := range pending {
			w.waitFlush(p, ev, "flush-wait", 0)
		}
	}
	jobs.join(0, &dataErr)
	jobs.join(1, &dataErr)
	barStart := p.Now()
	w.pc.Barrier()
	if w.interiorTree() != nil {
		w.stats.TreeLevelMessages = w.tp.msgs
	}
	if rec != nil {
		rec.Phase(obs.PhaseExchange, p.Now()-barStart)
		w.sessionMetrics(rec)
	}
	return dataErr
}

// sessionMetrics folds this rank's session totals into the metrics registry
// once the pipeline closes. Every rank contributes its put bytes; only the
// aggregator contributes the partition-level round/flush counters, so the
// sums are per partition, not duplicated per member.
func (w *Writer) sessionMetrics(rec *obs.Recorder) {
	reg := rec.Registry()
	reg.Add("tapioca.bytes_put", w.stats.BytesPut)
	if t := w.interiorTree(); t != nil {
		reg.SetMax("tapioca.tree.levels", float64(t.Levels))
		reg.SetMax("tapioca.tree.fanin", float64(t.MaxFanIn))
		for d := 1; d < len(w.tp.msgs); d++ {
			if w.tp.msgs[d] > 0 {
				reg.Add(fmt.Sprintf("tapioca.tree.level.%d.messages", d), w.tp.msgs[d])
			}
		}
	}
	if !w.isAgg {
		return
	}
	reg.Add("tapioca.rounds", int64(w.stats.Rounds))
	reg.Add("tapioca.flushes", w.stats.Flushes)
	reg.Add("tapioca.bytes_flushed", w.stats.BytesFlushed)
}

// runRead executes the reverse pipeline: the aggregator prefetches round
// r+1 into the inactive buffer while members pull round r's pieces with
// one-sided gets. Two fences bound each round: one publishing the buffer,
// one closing the get epoch. Both are attended by the aggregator and the
// members with pieces in round r only; the others skip the round, for the
// reason runWrite gives. No read configuration has members meet mid-round.
//
// With the data plane on, the prefetch's real store read runs as a
// background store job in both buffer modes, joined before the fence that
// publishes its buffer (under SingleBuffer, right after its launch, since
// that round's prefetch is not overlapped), and each member's get scatters
// its piece straight out of window memory into the payload buffers it
// passed to InitData (Win.GetScatter — no intermediate buffer).
func (w *Writer) runRead() error {
	pp := &w.plan.parts[w.part]
	p := w.c.Proc()
	myPieces := w.plan.piecesOf(w.c.Rank())
	var pending [2]*sim.Event
	var jobs storeJobs
	var prefetchErr error
	rec := w.rec
	prefetch := func(r int) {
		if w.isAgg && r < pp.rounds && pp.flush[r].bytes > 0 {
			if w.pl != nil {
				// Fill the inactive buffer from the backing store; the next
				// fence publishes it to the members' gets.
				buf := w.win.LocalData()[int64(r%2)*w.cfg.BufferSize:][:pp.flush[r].bytes]
				layout := w.plan.layoutOf(w.part, r)
				jobs.launch(int64(r%2), func() error {
					t := hostClock(rec)
					err := w.f.StoreRead(layout, buf)
					hostObserve(rec, "host.store_read_seconds", t)
					return err
				})
			}
			pending[r%2] = w.flushAsync(p, pp.flush[r], storage.OpRead)
			w.stats.BytesFlushed += pp.flush[r].bytes
			w.stats.Flushes++
		}
	}
	if !w.cfg.SingleBuffer {
		prefetch(0)
	}
	idx := 0
	for r := 0; r < pp.rounds; r++ {
		if !w.isAgg && (idx == len(myPieces) || myPieces[idx].round > r) {
			w.win.SkipFences(2) // no pieces in round r
			continue
		}
		attend := int(pp.readFence[r])
		bufID := int64(r % 2)
		var roundStart, roundPut int64
		if rec != nil {
			roundStart = p.Now()
			roundPut = w.stats.BytesPut
		}
		if w.cfg.SingleBuffer {
			// Ablation: no prefetch — read this round's data synchronously.
			prefetch(r)
		}
		// The aggregator publishes the buffer once its read lands; the
		// background byte job for this buffer must be joined before the
		// publishing fence.
		jobs.join(bufID, &prefetchErr)
		if w.isAgg && pending[bufID] != nil {
			w.waitFlush(p, pending[bufID], "read-wait", pp.flush[r].bytes)
			pending[bufID] = nil
		}
		fenceStart := p.Now()
		w.win.FenceOf(attend, 0)
		if rec != nil {
			rec.Phase(obs.PhaseExchange, p.Now()-fenceStart)
		}
		// Members pull their pieces; the aggregator prefetches the next
		// round into the other buffer meanwhile.
		var getStart int64
		if rec != nil {
			getStart = p.Now()
		}
		var scatter func(src []byte) // nil: phantom gets
		if w.pl != nil {
			lo, hi := storage.SpanAll(pp.flush[r].segs)
			scatter = func(src []byte) {
				if n := w.pl.Scatter(src, lo, hi); n != int64(len(src)) && prefetchErr == nil {
					// Deferred like prefetch errors: the round structure
					// must complete on every rank.
					prefetchErr = fmt.Errorf("core: round %d scatter consumed %d bytes, plan expects %d", r, n, len(src))
				}
			}
		}
		for idx < len(myPieces) && myPieces[idx].round == r {
			pc := myPieces[idx]
			w.win.GetScatter(w.aggLocal, bufID*w.cfg.BufferSize+pc.bufOff, pc.bytes, scatter)
			w.stats.BytesPut += pc.bytes
			idx++
		}
		if rec != nil {
			rec.Phase(obs.PhaseAggregation, p.Now()-getStart)
			p.TraceSpan("tapioca", "scatter", getStart, p.Now(), w.stats.BytesPut-roundPut)
		}
		if !w.cfg.SingleBuffer {
			prefetch(r + 1)
		}
		closeStart := p.Now()
		w.win.FenceOf(attend, 0) // closes the get epoch
		if rec != nil {
			rec.Phase(obs.PhaseExchange, p.Now()-closeStart)
			p.TraceSpan("tapioca", "round", roundStart, p.Now(), w.stats.BytesPut-roundPut)
		}
	}
	jobs.join(0, &prefetchErr)
	jobs.join(1, &prefetchErr)
	barStart := p.Now()
	w.pc.Barrier()
	if rec != nil {
		rec.Phase(obs.PhaseExchange, p.Now()-barStart)
		w.sessionMetrics(rec)
	}
	return prefetchErr
}
