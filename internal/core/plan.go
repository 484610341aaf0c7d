package core

import (
	"fmt"
	"slices"
	"sort"

	"tapioca/internal/cost"
	"tapioca/internal/mpi"
	"tapioca/internal/storage"
)

// plan is the global aggregation schedule computed once during Init.
type plan struct {
	partOf   []int      // comm rank → partition index
	parts    []partPlan // per partition
	withData bool       // layouts materialized (data-plane sessions)

	// pieces is the flat piece arena: rank r's puts are
	// pieces[pieceOff[r]:pieceOff[r+1]], rounds ascending. One arena instead
	// of per-rank slices keeps the plan's footprint flat at paper scale
	// (tens of thousands of ranks) and the per-rank views allocation-free.
	pieces   []putPiece
	pieceOff []int32

	model *cost.Model // the session's cost model, built by the first caller
}

// piecesOf returns rank r's puts (rounds ascending), a view into the arena.
func (p *plan) piecesOf(rank int) []putPiece {
	return p.pieces[p.pieceOff[rank]:p.pieceOff[rank+1]]
}

// putPiece is one rank's contribution to one round's buffer.
type putPiece struct {
	round  int
	bufOff int64
	bytes  int64
}

// partPlan is one partition's schedule.
type partPlan struct {
	rankLo int // first comm rank (members are [rankLo, rankLo+rankN))
	rankN  int // member count
	bytes  int64
	rounds int
	flush  []flushInfo // per round: the file extents the aggregator writes
	omega  []int64     // per partition-local rank: bytes it aggregates

	// layout is per round the aggregation buffer's file runs in buffer order
	// — member contributions pack local-rank-major, each member's bytes in
	// file-offset order — so a flush can scatter buffer bytes to the store
	// (and a read prefetch gather them back) positionally. Materialized only
	// for data-plane sessions; phantom plans carry nil.
	layout [][]storage.Seg

	// Session setup, filled once per partition (see InitData): comms holds
	// the members' partition-communicator handles by local rank; the setup
	// rendezvous fills the rest.
	comms   []*mpi.Comm
	members []cost.Member // election table
	agg     int           // elected aggregator's local rank
	costs   []float64     // per member: its own candidacy cost
	win     *mpi.Win      // the window over the aggregators' two buffers
	staging *staging      // staged shapes only

	// writeFence[r] and readFence[r] count the members attending round r's
	// write fence and read fences (see countAttendance).
	writeFence []int32
	readFence  []int32
}

// countAttendance fills the partition's per-round fence attendance under
// aggregator aggLocal. The aggregator attends every fence. A member attends
// write fence r if it has pieces in round r (its puts' sender-free time
// feeds the fence's latest arrival) or in round r+1 (it must be released
// from fence r before booking those puts), and both read fences of round r
// if it has pieces in round r. Every other member's arrival would carry
// nothing and come no later than the aggregator's, so leaving it out does
// not move the release (see runWrite).
func (pp *partPlan) countAttendance(p *plan, aggLocal int) {
	wf := make([]int32, pp.rounds)
	rf := make([]int32, pp.rounds)
	for i := range wf {
		wf[i], rf[i] = 1, 1 // the aggregator
	}
	for local := 0; local < pp.rankN; local++ {
		if local == aggLocal {
			continue
		}
		last := -1 // the member's previous round with pieces
		for _, pc := range p.piecesOf(pp.rankLo + local) {
			q := pc.round
			if q == last {
				continue
			}
			rf[q]++
			for r := max(q-1, last+1); r <= q; r++ {
				wf[r]++
			}
			last = q
		}
	}
	pp.writeFence, pp.readFence = wf, rf
}

type flushInfo struct {
	segs  []storage.Seg
	bytes int64
}

// region is a maximal merged span of a partition's declared data. Its member
// segments are the consecutive range msegs[m0:m1] of the builder's
// offset-sorted segment list — regions index the shared list instead of
// copying it.
type region struct {
	lo, hi int64
	bytes  int64
	m0, m1 int32
}

// dense reports whether the region's data tiles its span exactly — the
// common case (HACC AoS records, SoA blocks, IOR), which permits O(1)
// contiguous flush extents.
func (r *region) dense() bool { return r.bytes == r.hi-r.lo }

// memberSeg is one declared segment tagged with its partition-local rank.
type memberSeg struct {
	local int32
	seg   storage.Seg
}

// bySpan orders a partition's segments by (offset, local rank). A typed
// sort.Interface compares by index, where slices.SortFunc would copy two
// memberSegs into every comparison and sort.Slice swaps by reflection; both
// measured slower on banded and HACC SoA partitions.
type bySpan []memberSeg

func (s bySpan) Len() int      { return len(s) }
func (s bySpan) Swap(i, j int) { s[i], s[j] = s[j], s[i] }
func (s bySpan) Less(i, j int) bool {
	return s[i].seg.Off < s[j].seg.Off || s[i].seg.Off == s[j].seg.Off && s[i].local < s[j].local
}

// pieceRec is a piece before distribution into the plan's rank-major arena.
type pieceRec struct {
	local int32
	piece putPiece
}

// window is one aggregation round's cut of a region's byte stream.
type window struct {
	rg     int32 // region index
	t0, t1 int64 // region-local stream byte range
}

// planBuilder holds the scratch one buildPlan call reuses across partitions,
// so plan construction allocates only what the plan itself retains.
type planBuilder struct {
	msegs   []memberSeg
	regions []region
	windows []window
	recs    []pieceRec
	touched []int32
	fill    []int64
	counts  []int32
	lruns   []storage.Seg // per-member layout scratch (data-plane builds)
}

// bytesBefore returns how many of the region's data bytes lie in [rg.lo, x).
func (b *planBuilder) bytesBefore(rg *region, x int64) int64 {
	if x <= rg.lo {
		return 0
	}
	if x >= rg.hi {
		return rg.bytes
	}
	if rg.dense() {
		return x - rg.lo
	}
	var n int64
	for _, ms := range b.msegs[rg.m0:rg.m1] {
		n += ms.seg.BytesIn(rg.lo, x)
	}
	return n
}

// fileOffsetAt inverts bytesBefore: the smallest file offset x with
// bytesBefore(x) == target. Exact, because the cumulative byte function
// increases by at most one per byte of file offset.
func (b *planBuilder) fileOffsetAt(rg *region, target int64) int64 {
	if target <= 0 {
		return rg.lo
	}
	if target >= rg.bytes {
		return rg.hi
	}
	if rg.dense() {
		return rg.lo + target
	}
	lo, hi := rg.lo, rg.hi
	for lo < hi {
		mid := (lo + hi) / 2
		if b.bytesBefore(rg, mid) < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// extract returns the region's data extents within [x0, x1), compacted so
// adjacent window-clipping fragments read as whole runs again.
func (b *planBuilder) extract(rg *region, x0, x1 int64) []storage.Seg {
	if x1 <= x0 {
		return nil
	}
	if rg.dense() {
		lo, hi := max(x0, rg.lo), min(x1, rg.hi)
		if hi <= lo {
			return nil
		}
		return []storage.Seg{storage.Contig(lo, hi-lo)}
	}
	var out []storage.Seg
	for _, ms := range b.msegs[rg.m0:rg.m1] {
		out = append(out, ms.seg.Intersect(x0, x1)...)
	}
	return storage.Compact(out)
}

// buildPlan partitions ranks, merges each partition's declared data into
// regions, and cuts the per-partition aggregation stream into rounds of up
// to bufSize bytes. When alignUnit > 0 (the file system's optimal unit:
// Lustre stripe, GPFS block), window cuts snap to unit boundaries in file
// space wherever the data is dense — so buffer flushes are stripe/block
// aligned, the behaviour behind the paper's Table I 1:1 optimum.
// When withData is set, each round's buffer-ordered file-run layout is
// materialized alongside (the data plane's flush/prefetch map); phantom
// plans skip that work entirely.
func buildPlan(all [][]storage.Seg, nAggr int, bufSize, alignUnit int64, withData bool) *plan {
	nRanks := len(all)
	if nAggr > nRanks {
		nAggr = nRanks
	}
	p := &plan{
		partOf:   make([]int, nRanks),
		parts:    make([]partPlan, nAggr),
		pieceOff: make([]int32, nRanks+1),
		withData: withData,
	}
	for r := 0; r < nRanks; r++ {
		p.partOf[r] = r * nAggr / nRanks
	}
	b := &planBuilder{}
	// Each partition starts at the first rank r with r*nAggr/nRanks == part,
	// the rank→partition map the MPI-IO baseline's elections share.
	for part := range p.parts {
		lo := cost.PartitionStart(part, nAggr, nRanks)
		hi := cost.PartitionStart(part+1, nAggr, nRanks)
		buildPartition(p, b, part, lo, hi, all, bufSize, alignUnit)
		distributePieces(p, b, lo, hi)
	}
	return p
}

// layoutOf returns the buffer-ordered file runs of one partition round
// (data-plane plans only).
func (p *plan) layoutOf(part, round int) []storage.Seg {
	return p.parts[part].layout[round]
}

func buildPartition(p *plan, b *planBuilder, part, rankLo, rankHi int, all [][]storage.Seg, bufSize, alignUnit int64) {
	pp := &p.parts[part]
	pp.rankLo = rankLo
	pp.rankN = rankHi - rankLo
	pp.omega = make([]int64, pp.rankN)
	b.recs = b.recs[:0]

	// Collect the partition's segments in (offset, local rank) order. Taken
	// member by member they already are where each member's bytes follow the
	// previous member's (IOR blocks, HACC AoS), so the list is sorted only
	// when it steps back somewhere: members interleave (banded blocks),
	// write into several file-wide regions (HACC SoA) or list segments out
	// of order.
	lists := all[rankLo:rankHi]
	total := 0
	for _, segs := range lists {
		total += len(segs)
	}
	msegs, sorted := slices.Grow(b.msegs[:0], total), true
	for i, segs := range lists {
		for _, s := range segs {
			if s.Empty() {
				continue
			}
			if n := len(msegs); n > 0 && s.Off < msegs[n-1].seg.Off {
				sorted = false
			}
			msegs = append(msegs, memberSeg{local: int32(i), seg: s})
			pp.omega[i] += s.Bytes()
		}
		pp.bytes += pp.omega[i]
	}
	b.msegs = msegs
	if pp.bytes == 0 {
		return
	}
	if !sorted {
		sort.Sort(bySpan(msegs))
	}
	b.recs = slices.Grow(b.recs, len(msegs)) // most segments become one piece

	// Merge overlapping/adjacent spans into regions. The sorted order means
	// each region's members are one consecutive index range.
	regions := b.regions[:0]
	for i := range msegs {
		slo, shi := msegs[i].seg.Span()
		if last := len(regions) - 1; last >= 0 && slo <= regions[last].hi {
			rg := &regions[last]
			if shi > rg.hi {
				rg.hi = shi
			}
			rg.bytes += msegs[i].seg.Bytes()
			rg.m1 = int32(i + 1)
		} else {
			regions = append(regions, region{lo: slo, hi: shi, bytes: msegs[i].seg.Bytes(), m0: int32(i), m1: int32(i + 1)})
		}
	}
	b.regions = regions
	for ri := range regions {
		rg := &regions[ri]
		if rg.bytes > rg.hi-rg.lo {
			panic(fmt.Sprintf("core: partition %d region [%d,%d) overdeclared: %d bytes in %d span (overlapping writes?)",
				part, rg.lo, rg.hi, rg.bytes, rg.hi-rg.lo))
		}
	}

	// Cut each region into round windows. Windows never cross regions, and
	// cuts snap to alignUnit boundaries (file space) in dense regions when
	// a boundary falls within reach of the buffer size.
	windows := b.windows[:0]
	for ri := range regions {
		rg := &regions[ri]
		pos := int64(0)
		for pos < rg.bytes {
			next := pos + bufSize
			if alignUnit > 0 && rg.dense() {
				if cand := (rg.lo+pos+bufSize)/alignUnit*alignUnit - rg.lo; cand > pos {
					next = cand
				}
			}
			if next > rg.bytes {
				next = rg.bytes
			}
			windows = append(windows, window{rg: int32(ri), t0: pos, t1: next})
			pos = next
		}
	}
	b.windows = windows
	pp.rounds = len(windows)
	pp.flush = make([]flushInfo, pp.rounds)
	if p.withData {
		pp.layout = make([][]storage.Seg, pp.rounds)
	}

	// Per-rank pieces: one pass per window over the region's segments
	// (sorted by offset; a cursor retires segments wholly before the moving
	// window), accumulating per-local byte counts — adjacent contributions
	// of a rank coalesce here, so a contiguous file region becomes exactly
	// one put and one flush extent per round. Buffer offsets are assigned in
	// local-rank order per round.
	if cap(b.fill) < pp.rankN {
		b.fill = make([]int64, pp.rankN)
	}
	fill := b.fill[:pp.rankN]
	touched := b.touched[:0]
	cursorRegion := int32(-1)
	var cursor int32
	for round := range windows {
		wd := &windows[round]
		rg := &regions[wd.rg]
		x0 := b.fileOffsetAt(rg, wd.t0)
		x1 := b.fileOffsetAt(rg, wd.t1)
		pp.flush[round] = flushInfo{segs: b.extract(rg, x0, x1), bytes: wd.t1 - wd.t0}

		if wd.rg != cursorRegion {
			cursorRegion, cursor = wd.rg, rg.m0
		}
		touched = touched[:0]
		i0, iHi := cursor, rg.m1
		for i := cursor; i < rg.m1; i++ {
			ms := &msegs[i]
			slo, shi := ms.seg.Span()
			if slo >= x1 {
				iHi = i
				break // offset-sorted: nothing later can intersect either
			}
			if shi <= x0 {
				if i == cursor {
					cursor++ // wholly before every future window of the region
				}
				continue
			}
			if n := ms.seg.BytesIn(x0, x1); n > 0 {
				if fill[ms.local] == 0 {
					touched = append(touched, ms.local)
				}
				fill[ms.local] += n
			}
		}
		sortInt32(touched)
		var off int64
		for _, l := range touched {
			b.recs = append(b.recs, pieceRec{local: l, piece: putPiece{round: round, bufOff: off, bytes: fill[l]}})
			off += fill[l]
			fill[l] = 0
		}
		if off != pp.flush[round].bytes {
			panic(fmt.Sprintf("core: partition %d round %d fill %d != flush %d", part, round, off, pp.flush[round].bytes))
		}
		if off > bufSize {
			panic(fmt.Sprintf("core: partition %d round %d overfills buffer: %d > %d", part, round, off, bufSize))
		}
		if p.withData {
			pp.layout[round] = buildLayout(b, msegs, touched, i0, iHi, x0, x1)
			if n := storage.TotalBytes(pp.layout[round]); n != off {
				panic(fmt.Sprintf("core: partition %d round %d layout %d bytes != fill %d", part, round, n, off))
			}
		}
	}
	b.touched = touched
}

// buildLayout materializes one round's buffer layout: for each touched
// member in buffer order (ascending local rank), its file runs within
// [x0, x1) in strict file-offset order — the order dataplane.Plane gathers
// and scatters in. Runs are enumerated individually and re-compacted so even
// interleaved strided declarations of one member map positionally.
func buildLayout(b *planBuilder, msegs []memberSeg, touched []int32, i0, iHi int32, x0, x1 int64) []storage.Seg {
	var out []storage.Seg
	for _, l := range touched {
		member := b.lruns[:0]
		for i := i0; i < iHi; i++ {
			ms := &msegs[i]
			if ms.local != l {
				continue
			}
			for _, sg := range ms.seg.Intersect(x0, x1) {
				for k := int64(0); k < sg.Count; k++ {
					member = append(member, storage.Contig(sg.Off+k*sg.Stride, sg.Len))
				}
			}
		}
		// Insertion sort by offset: a member's runs are already ascending
		// unless its declared segments interleave.
		for i := 1; i < len(member); i++ {
			for j := i; j > 0 && member[j].Off < member[j-1].Off; j-- {
				member[j], member[j-1] = member[j-1], member[j]
			}
		}
		b.lruns = member
		out = append(out, storage.Compact(member)...)
	}
	return out
}

// distributePieces redistributes the partition's round-major piece records
// into the plan's rank-major arena (rounds stay ascending per rank) and
// fills the ranks' arena offsets.
func distributePieces(p *plan, b *planBuilder, rankLo, rankHi int) {
	n := rankHi - rankLo
	if cap(b.counts) < n {
		b.counts = make([]int32, n)
	}
	counts := b.counts[:n]
	for i := range counts {
		counts[i] = 0
	}
	for i := range b.recs {
		counts[b.recs[i].local]++
	}
	base := int32(len(p.pieces))
	p.pieces = slices.Grow(p.pieces, len(b.recs))[:len(p.pieces)+len(b.recs)]
	off := base
	for i := 0; i < n; i++ {
		p.pieceOff[rankLo+i] = off
		c := counts[i]
		counts[i] = off // becomes the rank's write cursor
		off += c
	}
	p.pieceOff[rankHi] = off
	for i := range b.recs {
		rec := &b.recs[i]
		p.pieces[counts[rec.local]] = rec.piece
		counts[rec.local]++
	}
}

// sortInt32 is an insertion sort for the small per-window touched lists —
// allocation-free and nearly free on the already-sorted common case.
func sortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
