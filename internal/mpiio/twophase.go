package mpiio

import (
	"fmt"
	"iter"
	"sort"

	"tapioca/internal/dataplane"
	"tapioca/internal/sim"
	"tapioca/internal/storage"
)

// schedule is the per-collective-call two-phase plan, computed once (on the
// last rank to enter the collective) from every rank's access pattern.
type schedule struct {
	lo, hi int64
	rounds int

	// sendPieces[rank] lists what each rank contributes, per (agg, round),
	// sorted by round (stable, preserving build order within a round) so the
	// round driver walks each rank's pieces with a forward cursor (cur).
	sendPieces [][]sendPiece
	cur        []int32
	// aggRounds[agg][round] aggregates all contributions for one flush.
	aggRounds [][]roundData

	// errs holds each rank's first data-plane error of the call. Only the
	// aggregators touch the store, partly on other ranks' behalf (read-back
	// scatter), so errors are kept per rank in the shared plan.
	errs map[int]error
}

// roundSends yields round k's pieces in booking order: rank by rank — in
// order, or comm-rank order when order is nil — each rank's pieces in build
// order. That is the order the ranks themselves would book them in at the
// round's start instant. Rounds must be walked in ascending order, each
// exactly once and to the end.
func (s *schedule) roundSends(k int, order []int) iter.Seq2[int, sendPiece] {
	return func(yield func(int, sendPiece) bool) {
		if s.cur == nil {
			s.cur = make([]int32, len(s.sendPieces))
		}
		for i := range s.sendPieces {
			r := i
			if order != nil {
				r = order[i]
			}
			ps := s.sendPieces[r]
			for ; int(s.cur[r]) < len(ps) && ps[s.cur[r]].round == k; s.cur[r]++ {
				if !yield(r, ps[s.cur[r]]) {
					return
				}
			}
		}
	}
}

// fail records rank's data-plane error unless it already has one.
func (s *schedule) fail(rank int, err error) {
	if err == nil {
		return
	}
	if s.errs == nil {
		s.errs = map[int]error{}
	}
	if s.errs[rank] == nil {
		s.errs[rank] = err
	}
}

// sortPieces orders every rank's pieces by round. The sort is stable: within
// a round, pieces keep the order the schedule builder emitted, so the
// per-round fabric bookings are issued in exactly the order the unsorted
// full-scan loop used to issue them. Insertion sort: per-rank lists are a
// handful of short ascending runs (one per declared segment), and the
// reflection-based library sorts allocate per rank.
func (s *schedule) sortPieces() {
	for r := range s.sendPieces {
		ps := s.sendPieces[r]
		for i := 1; i < len(ps); i++ {
			for j := i; j > 0 && ps[j].round < ps[j-1].round; j-- {
				ps[j], ps[j-1] = ps[j-1], ps[j]
			}
		}
	}
}

type sendPiece struct {
	agg, round int
	bytes      int64
}

type roundData struct {
	segs   []storage.Seg
	bytes  int64
	pieces int // incoming piece count (two-sided receive processing)
	// wlo/whi is the round's file window within the aggregator's domain —
	// the range the data plane scatters/gathers for this (agg, round).
	wlo, whi int64
}

// buildSchedule computes file domains, rounds and piece routing from the
// gathered per-rank segment lists. One layout rule covers both domain
// kinds: the file is cut into chunks of width w from origin, and chunk c
// belongs to aggregator c mod nAggr and fills its rounds
// [(c/nAggr)*sub, (c/nAggr+1)*sub), one buffer window each, with
// sub = ceil(w/bufSize). Block domains (cyclic false) split the span nAggr
// ways, rounded up to alignTo, so each aggregator owns at most one chunk.
// Stripe-cyclic domains (cyclic true, alignTo > 0) use alignTo-wide stripes
// from the unit boundary at or below the lowest byte.
func buildSchedule(allSegs [][]storage.Seg, nAggr int, bufSize, alignTo int64, cyclic bool) *schedule {
	s := &schedule{}
	first := true
	for _, segs := range allSegs {
		for _, sg := range segs {
			if sg.Empty() {
				continue
			}
			lo, hi := sg.Span()
			if first || lo < s.lo {
				s.lo = lo
			}
			if first || hi > s.hi {
				s.hi = hi
			}
			first = false
		}
	}
	if first {
		return s // nothing to do
	}
	n := int64(nAggr)
	origin, w := s.lo, (s.hi-s.lo+n-1)/n
	if cyclic {
		origin, w = s.lo/alignTo*alignTo, alignTo
	} else if alignTo > 1 {
		w = (w + alignTo - 1) / alignTo * alignTo
	}
	sub := int((w + bufSize - 1) / bufSize)
	s.rounds = int((s.hi-1-origin)/w/n+1) * sub
	s.sendPieces = make([][]sendPiece, len(allSegs))
	s.aggRounds = make([][]roundData, nAggr)
	for a := range s.aggRounds {
		s.aggRounds[a] = make([]roundData, s.rounds)
	}
	for r, segs := range allSegs {
		for _, sg := range segs {
			if sg.Empty() {
				continue
			}
			glo, ghi := sg.Span()
			for c, cLast := (glo-origin)/w, (ghi-1-origin)/w; c <= cLast; c++ {
				agg, k := int(c%n), int(c/n)
				clo := origin + c*w
				j := 0
				if glo > clo {
					j = int((glo - clo) / bufSize)
				}
				for ; j < sub; j++ {
					wlo := clo + int64(j)*bufSize
					whi := min(wlo+bufSize, clo+w, s.hi)
					if whi <= wlo || wlo >= ghi {
						break
					}
					pieces := sg.Intersect(wlo, whi)
					b := storage.TotalBytes(pieces)
					if b == 0 {
						continue
					}
					round := k*sub + j
					s.sendPieces[r] = append(s.sendPieces[r], sendPiece{agg: agg, round: round, bytes: b})
					rd := &s.aggRounds[agg][round]
					rd.segs = append(rd.segs, pieces...)
					rd.bytes += b
					rd.pieces++
					rd.wlo, rd.whi = wlo, whi
				}
			}
		}
	}
	s.sortPieces()
	return s
}

// WriteAtAll performs a collective two-phase write of this rank's segments.
// All ranks of the communicator must call it with their (possibly empty)
// patterns. Rounds are synchronous: aggregation exchange, then the
// aggregators' flush, then a barrier — the classic ROMIO structure with no
// overlap between phases.
func (fh *File) WriteAtAll(segs []storage.Seg) error {
	return fh.WriteAtAllData(segs, nil)
}

// WriteAtAllData is WriteAtAll with the data plane enabled: data holds the
// segments' payload bytes packed in enumeration order, and the aggregators
// land the actual bytes in the file's backing store. Data-plane mode is a
// collective property of the call — every rank passes payload bytes, or
// every rank nil.
func (fh *File) WriteAtAllData(segs []storage.Seg, data []byte) error {
	return fh.collectiveIO(segs, data, false)
}

// ReadAtAll performs a collective two-phase read: aggregators read their
// file-domain rounds and scatter the pieces back.
func (fh *File) ReadAtAll(segs []storage.Seg) error {
	return fh.ReadAtAllData(segs, nil)
}

// ReadAtAllData is ReadAtAll with the data plane enabled: dst (packed in
// segment enumeration order) is filled from the file's backing store as the
// aggregators scatter their round pieces back.
func (fh *File) ReadAtAllData(segs []storage.Seg, dst []byte) error {
	return fh.collectiveIO(segs, dst, true)
}

func (fh *File) collectiveIO(segs []storage.Seg, data []byte, read bool) error {
	if fh.closed {
		return fmt.Errorf("mpiio: collective I/O on closed file %q", fh.f.Name)
	}
	if fh.treeErr != nil {
		// Hints are a collective property: every rank opened with the same
		// unparsable plan, so every rank reports it.
		return fh.treeErr
	}
	var pl *dataplane.Plane
	if data != nil {
		var err error
		if pl, err = dataplane.New([][]storage.Seg{segs}, [][]byte{data}); err != nil {
			return err
		}
	}
	c := fh.c
	alignTo := int64(0)
	if fh.hints.AlignDomains || fh.hints.CyclicDomains {
		alignTo = fh.sys.OptimalUnit(fh.f)
	}
	cyclic := fh.hints.CyclicDomains && alignTo > 0
	// Gather every rank's pattern and build the plan exactly once.
	bytes := int64(32*len(segs) + 16)
	plan := c.Collective("mpiio-plan", segs, bytes, func(contribs []any) any {
		allSegs := make([][]storage.Seg, len(contribs))
		for i, x := range contribs {
			if x != nil {
				allSegs[i] = x.([]storage.Seg)
			}
		}
		return buildSchedule(allSegs, len(fh.aggrs), fh.hints.CBBufferSize, alignTo, cyclic)
	}).(*schedule)
	// Data plane: share every rank's payload plane — the simulated transport
	// of the two-phase sends' payload slices. The extra collective exists
	// only in data-plane calls, so a rank passing payload bytes while
	// another passes nil fails loudly as a mismatched collective.
	var planes []*dataplane.Plane
	if pl != nil {
		planes = c.Collective("mpiio-data", pl, 16, func(contribs []any) any {
			ps := make([]*dataplane.Plane, len(contribs))
			for i, x := range contribs {
				if x != nil {
					ps[i] = x.(*dataplane.Plane)
				}
			}
			return ps
		}).([]*dataplane.Plane)
	}
	if plan.rounds > 0 && plan.hi > plan.lo && fh.ac != nil {
		fh.runRounds(plan, planes, read)
	}
	// Non-aggregators wait out every round here, in a single park.
	c.Barrier()
	return plan.errs[c.Rank()]
}

// runRounds drives the call's rounds on the aggregators; non-aggregators go
// straight from the plan to the call's closing barrier. The aggregators sync
// once per round on their own sub-communicator, and the last one to arrive
// books every rank's round traffic on the ranks' behalf. The virtual
// schedule is exactly that of ROMIO's structure, in which all P ranks join an
// exchange collective and a barrier every round:
//
//   - the engine runs procs in (virtual time, proc id) order, and every rank
//     would enter a round at the same instant (the previous barrier's
//     release), so booking all ranks' traffic in ascending world rank at
//     that instant issues the same fabric calls in the same order;
//   - non-aggregators do nothing else between the plan and the final
//     barrier, so their absence changes no shared state;
//   - each sync's release is priced with the file communicator's size P, so
//     the aggregators resume exactly when the P-rank collectives it replaces
//     would have released them.
//
// Writes: sync k books round k's exchange at the round start, then releases
// the aggregators at the arrival-horizon exchange's end; after the flushes a
// last sync stands in for the final round barrier. Reads: aggregators read
// round k first, then sync k prices the data-ready exchange, books the
// scatter back to every rank (filling payload buffers on the data plane)
// and releases at the round barrier's end.
func (fh *File) runRounds(plan *schedule, planes []*dataplane.Plane, read bool) {
	c, p := fh.c, fh.c.Proc()
	for round := 0; round < plan.rounds; round++ {
		roundStart := p.Now()
		rd := plan.aggRounds[fh.myAgg][round]
		if read {
			if rd.bytes > 0 {
				lo, hi := storage.SpanAll(rd.segs)
				fh.guarded(storage.OpRead, []storage.Seg{storage.Contig(lo, hi-lo)})
			}
			fh.ac.CollectivePriced("mpiio-round", nil, func(_ []any, maxT int64) (any, int64) {
				ready := c.TreeCost(maxT, 16)
				p.HoldUntil(ready)
				return nil, c.TreeCost(fh.scatter(plan, round, planes), 0)
			})
		} else {
			horizon := fh.ac.CollectivePriced("mpiio-round", nil, func(_ []any, maxT int64) (any, int64) {
				start := maxT // round 0 starts as the plan collective releases
				if round > 0 {
					start = c.TreeCost(maxT, 0) // the previous round's barrier
				}
				p.HoldUntil(start)
				h, sent := fh.exchange(plan, round)
				return h, c.TreeCost(sent, 16)
			}).([]int64)
			fh.aggregate(plan, rd, horizon[fh.myAgg], planes)
		}
		p.TraceSpan("mpiio", "round", roundStart, p.Now(), rd.bytes)
	}
	if !read {
		fh.ac.CollectivePriced("mpiio-round", nil, func(_ []any, maxT int64) (any, int64) {
			return nil, c.TreeCost(maxT, 0) // the last round's barrier
		})
	}
}

// stageGroup is one coalesced (node, aggregator) message in the making: the
// slowest member deposit and the node's total payload for that aggregator.
type stageGroup struct{ at, bytes int64 }

// exchange books one write round's aggregation traffic for every rank, at
// the calling proc's current time (the round start), and returns the
// per-aggregator arrival horizons plus the latest time any sender finished
// injecting. Pieces go in booking order; with intra-node staging on, a piece
// bound for a remote-node aggregator becomes a memory-bandwidth deposit into
// the node leader instead (nodes hosting a single rank stay flat, as does
// traffic to an aggregator on the sender's node), and once every rank's
// pieces are booked each (node, aggregator) group sends one coalesced fabric
// message, in sorted key order, starting when its slowest deposit has
// landed. With a tree plan the coalesced messages route hop by hop through
// the shape's interior relays instead of straight to the aggregator node.
func (fh *File) exchange(plan *schedule, round int) (horizon []int64, sent int64) {
	c := fh.c
	fab := c.World().Fabric()
	now := c.Now()
	stage := fh.shape.Staged()
	h := make([]int64, len(fh.aggrs))
	sent = now
	var groups map[[2]int]*stageGroup
	for r, pc := range plan.roundSends(round, fh.order) {
		node := c.NodeOfRank(r)
		aggNode := c.NodeOfRank(fh.aggrs[pc.agg])
		if stage && aggNode != node && c.NodePeers(r) > 1 {
			sf, arr := fab.ReserveLocal(now, node, pc.bytes)
			sent = max(sent, sf)
			if groups == nil {
				groups = map[[2]int]*stageGroup{}
			}
			k := [2]int{node, pc.agg}
			g := groups[k]
			if g == nil {
				g = &stageGroup{}
				groups[k] = g
			}
			g.at = max(g.at, arr)
			g.bytes += pc.bytes
			continue
		}
		sf, arr := fab.Reserve(now, node, aggNode, pc.bytes)
		sent = max(sent, sf)
		h[pc.agg] = max(h[pc.agg], arr)
	}
	if groups == nil {
		return h, sent
	}
	keys := make([][2]int, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	if !fh.shape.Degenerate() {
		fh.treeHorizons(fab, groups, keys, h)
		return h, sent
	}
	for _, k := range keys {
		g := groups[k]
		_, arr := fab.Reserve(g.at, k[0], c.NodeOfRank(fh.aggrs[k[1]]), g.bytes)
		h[k[1]] = max(h[k[1]], arr)
	}
	return h, sent
}

// aggregate is one aggregator's write-round I/O phase: once every piece has
// arrived (horizon) it processes them — two-sided matching and
// staging-buffer assembly, CPU work TAPIOCA's one-sided puts avoid — and
// flushes. With the data plane on it first lands every contributing rank's
// payload within the round window, batched into one store call so
// lock-and-chunk overhead is paid per round, not per run.
func (fh *File) aggregate(plan *schedule, rd roundData, horizon int64, planes []*dataplane.Plane) {
	if rd.bytes == 0 {
		return
	}
	p := fh.c.Proc()
	p.HoldUntil(horizon)
	p.Hold(int64(rd.pieces)*fh.hints.RecvOverhead + sim.TransferTime(rd.bytes, fh.hints.CopyRate))
	if planes != nil {
		exts := fh.extScratch[:0]
		for _, rp := range planes {
			if rp == nil {
				continue
			}
			rp.Each(rd.wlo, rd.whi, func(off int64, chunk []byte) {
				exts = append(exts, storage.Extent{Off: off, P: chunk})
			})
		}
		plan.fail(fh.c.Rank(), fh.f.StoreWriteExtents(exts))
		fh.extScratch = exts
	}
	fh.flush(rd)
}

// flush writes one aggregation-buffer round. Dense rounds coalesce into a
// single contiguous write; sparse rounds either use write data sieving
// (read-modify-write of the touched span, ROMIO's default) or are written
// run by run.
func (fh *File) flush(rd roundData) {
	p := fh.c.Proc()
	node := fh.c.Node()
	lo, hi := storage.SpanAll(rd.segs)
	if rd.bytes >= hi-lo {
		// Fully dense: one contiguous write.
		fh.guarded(storage.OpWrite, []storage.Seg{storage.Contig(lo, rd.bytes)})
		return
	}
	if !fh.hints.DisableSieving {
		storage.Do(p, fh.sys, node, fh.f, rd.segs, storage.OpSieve)
		return
	}
	fh.guarded(storage.OpWrite, rd.segs)
}

// scatter books one read round's scatter for every rank, at the calling
// proc's current time (the data-ready exchange's end, by which every
// aggregator's data is ready), and returns when the last piece lands. With
// the data plane on, each rank's payload buffers are filled from the backing
// store as its pieces arrive.
func (fh *File) scatter(plan *schedule, round int, planes []*dataplane.Plane) int64 {
	c := fh.c
	fab := c.World().Fabric()
	now := c.Now()
	end := now
	for r, pc := range plan.roundSends(round, fh.order) {
		_, arr := fab.Reserve(now, c.NodeOfRank(fh.aggrs[pc.agg]), c.NodeOfRank(r), pc.bytes)
		end = max(end, arr)
		if planes != nil {
			rd := &plan.aggRounds[pc.agg][round]
			exts := fh.extScratch[:0]
			planes[r].Each(rd.wlo, rd.whi, func(off int64, chunk []byte) {
				exts = append(exts, storage.Extent{Off: off, P: chunk})
			})
			plan.fail(r, fh.f.StoreReadExtents(exts))
			fh.extScratch = exts
		}
	}
	return end
}
