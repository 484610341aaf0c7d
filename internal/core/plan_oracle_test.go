package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"tapioca/internal/cost"
	"tapioca/internal/storage"
)

// This file keeps the pre-arena plan builder (maps + per-rank piece slices,
// exactly as shipped before the flat-arena rewrite) as a test oracle: for
// randomized workloads the rewritten builder must reproduce its partitions,
// flush run sets, and per-rank piece lists bit for bit.

type refRegion struct {
	lo, hi int64
	bytes  int64
	segs   []storage.Seg
}

func (r *refRegion) dense() bool { return r.bytes == r.hi-r.lo }

func (r *refRegion) bytesBefore(x int64) int64 {
	if x <= r.lo {
		return 0
	}
	if x >= r.hi {
		return r.bytes
	}
	if r.dense() {
		return x - r.lo
	}
	var n int64
	for _, s := range r.segs {
		n += storage.TotalBytes(s.Intersect(r.lo, x))
	}
	return n
}

func (r *refRegion) fileOffsetAt(target int64) int64 {
	if target <= 0 {
		return r.lo
	}
	if target >= r.bytes {
		return r.hi
	}
	if r.dense() {
		return r.lo + target
	}
	lo, hi := r.lo, r.hi
	for lo < hi {
		mid := (lo + hi) / 2
		if r.bytesBefore(mid) < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (r *refRegion) extract(x0, x1 int64) []storage.Seg {
	if x1 <= x0 {
		return nil
	}
	if r.dense() {
		lo, hi := max(x0, r.lo), min(x1, r.hi)
		if hi <= lo {
			return nil
		}
		return []storage.Seg{storage.Contig(lo, hi-lo)}
	}
	return storage.IntersectAll(r.segs, x0, x1)
}

type refPart struct {
	ranks  []int
	bytes  int64
	rounds int
	flush  []flushInfo
	omega  []int64
}

type refPlan struct {
	partOf []int
	parts  []refPart
	pieces [][]putPiece
}

func buildPlanReference(all [][]storage.Seg, nAggr int, bufSize, alignUnit int64) *refPlan {
	nRanks := len(all)
	if nAggr > nRanks {
		nAggr = nRanks
	}
	p := &refPlan{
		partOf: make([]int, nRanks),
		parts:  make([]refPart, nAggr),
		pieces: make([][]putPiece, nRanks),
	}
	for r := 0; r < nRanks; r++ {
		p.partOf[r] = r * nAggr / nRanks
	}
	for part := range p.parts {
		lo := cost.PartitionStart(part, nAggr, nRanks)
		hi := cost.PartitionStart(part+1, nAggr, nRanks)
		buildPartitionReference(p, part, lo, hi, all, bufSize, alignUnit)
	}
	return p
}

func buildPartitionReference(p *refPlan, part, rankLo, rankHi int, all [][]storage.Seg, bufSize, alignUnit int64) {
	pp := &p.parts[part]
	for r := rankLo; r < rankHi; r++ {
		pp.ranks = append(pp.ranks, r)
	}
	pp.omega = make([]int64, len(pp.ranks))

	type memberSeg struct {
		local int
		seg   storage.Seg
	}
	var msegs []memberSeg
	for i, r := range pp.ranks {
		for _, s := range all[r] {
			if s.Empty() {
				continue
			}
			msegs = append(msegs, memberSeg{local: i, seg: s})
			pp.omega[i] += s.Bytes()
			pp.bytes += s.Bytes()
		}
	}
	if pp.bytes == 0 {
		return
	}
	sort.Slice(msegs, func(a, b int) bool {
		if msegs[a].seg.Off != msegs[b].seg.Off {
			return msegs[a].seg.Off < msegs[b].seg.Off
		}
		return msegs[a].local < msegs[b].local
	})

	var regions []*refRegion
	for _, ms := range msegs {
		slo, shi := ms.seg.Span()
		last := len(regions) - 1
		if last >= 0 && slo <= regions[last].hi {
			rg := regions[last]
			if shi > rg.hi {
				rg.hi = shi
			}
			rg.bytes += ms.seg.Bytes()
			rg.segs = append(rg.segs, ms.seg)
		} else {
			regions = append(regions, &refRegion{lo: slo, hi: shi, bytes: ms.seg.Bytes(), segs: []storage.Seg{ms.seg}})
		}
	}

	type window struct {
		rg     *refRegion
		t0, t1 int64
	}
	var windows []window
	for _, rg := range regions {
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
			windows = append(windows, window{rg: rg, t0: pos, t1: next})
			pos = next
		}
	}
	pp.rounds = len(windows)
	pp.flush = make([]flushInfo, pp.rounds)
	for round, wd := range windows {
		x0 := wd.rg.fileOffsetAt(wd.t0)
		x1 := wd.rg.fileOffsetAt(wd.t1)
		pp.flush[round] = flushInfo{segs: wd.rg.extract(x0, x1), bytes: wd.t1 - wd.t0}
	}

	roundFill := make([]int64, pp.rounds)
	type pieceKey struct {
		local, round int
	}
	pieceBytes := map[pieceKey]int64{}
	for round, wd := range windows {
		x0 := wd.rg.fileOffsetAt(wd.t0)
		x1 := wd.rg.fileOffsetAt(wd.t1)
		for _, ms := range msegs {
			slo, shi := ms.seg.Span()
			if shi <= x0 || slo >= x1 || slo < wd.rg.lo || slo >= wd.rg.hi {
				continue
			}
			b := storage.TotalBytes(ms.seg.Intersect(x0, x1))
			if b > 0 {
				pieceBytes[pieceKey{ms.local, round}] += b
			}
		}
	}
	keys := make([]pieceKey, 0, len(pieceBytes))
	for k := range pieceBytes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].round != keys[b].round {
			return keys[a].round < keys[b].round
		}
		return keys[a].local < keys[b].local
	})
	for _, k := range keys {
		b := pieceBytes[k]
		commRank := pp.ranks[k.local]
		p.pieces[commRank] = append(p.pieces[commRank], putPiece{
			round:  k.round,
			bufOff: roundFill[k.round],
			bytes:  b,
		})
		roundFill[k.round] += b
	}
}

// runSet expands a segment list into its ordered contiguous runs.
func runSet(segs []storage.Seg) [][2]int64 {
	out := [][2]int64{}
	storage.Enumerate(segs, 1<<22, func(off, length int64) {
		out = append(out, [2]int64{off, length})
	})
	return out
}

func comparePlans(got *plan, want *refPlan, bufSize int64) error {
	if !reflect.DeepEqual(got.partOf, want.partOf) {
		return fmt.Errorf("partOf: got %v, want %v", got.partOf, want.partOf)
	}
	if len(got.parts) != len(want.parts) {
		return fmt.Errorf("parts: got %d, want %d", len(got.parts), len(want.parts))
	}
	for i := range got.parts {
		g, w := &got.parts[i], &want.parts[i]
		if g.rankN != len(w.ranks) || (g.rankN > 0 && g.rankLo != w.ranks[0]) {
			return fmt.Errorf("part %d members: got [%d,+%d), want %v", i, g.rankLo, g.rankN, w.ranks)
		}
		if g.bytes != w.bytes || g.rounds != w.rounds {
			return fmt.Errorf("part %d shape: got (%d B, %d rounds), want (%d, %d)", i, g.bytes, g.rounds, w.bytes, w.rounds)
		}
		if !reflect.DeepEqual(g.omega, w.omega) {
			return fmt.Errorf("part %d omega: got %v, want %v", i, g.omega, w.omega)
		}
		for r := range g.flush {
			if g.flush[r].bytes != w.flush[r].bytes {
				return fmt.Errorf("part %d round %d flush bytes: got %d, want %d", i, r, g.flush[r].bytes, w.flush[r].bytes)
			}
			// The rewritten extract may compact adjacent fragments; the run
			// set itself must be identical, in order.
			if gr, wr := runSet(g.flush[r].segs), runSet(w.flush[r].segs); !reflect.DeepEqual(gr, wr) {
				return fmt.Errorf("part %d round %d flush runs: got %v, want %v", i, r, gr, wr)
			}
		}
	}
	for r := range want.pieces {
		gp := got.piecesOf(r)
		wp := want.pieces[r]
		if len(gp) != len(wp) {
			return fmt.Errorf("rank %d: %d pieces, want %d", r, len(gp), len(wp))
		}
		for i := range gp {
			if gp[i] != wp[i] {
				return fmt.Errorf("rank %d piece %d: got %+v, want %+v", r, i, gp[i], wp[i])
			}
		}
	}
	return nil
}

// TestPlanMatchesReference pins the flat-arena plan builder to the original
// map-based implementation across randomized workloads, partition counts,
// buffer sizes, and alignment units.
func TestPlanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	aligns := []int64{0, 4096, 32768}
	for trial := 0; trial < 400; trial++ {
		ranks := rng.Intn(14) + 1
		all := randomWorkload(rng, ranks)
		nAggr := rng.Intn(6) + 1
		bufSize := int64(rng.Intn(63)+1) * 1024
		align := aligns[rng.Intn(len(aligns))]

		got := buildPlan(all, nAggr, bufSize, align, false)
		want := buildPlanReference(all, nAggr, bufSize, align)
		if err := comparePlans(got, want, bufSize); err != nil {
			t.Fatalf("trial %d (ranks=%d aggr=%d buf=%d align=%d): %v", trial, ranks, nAggr, bufSize, align, err)
		}
	}
}

// fuzzDecl decodes a declared pattern from fuzz bytes, four per rank: a
// kind and its sizes. Kinds 0 and 7 declare nothing. Kinds 1–3 (one block,
// a strided run, two blocks) declare inside the rank's own 64 KiB region.
// Kinds 4 and 5 put blocks in a shared banded area, rank r's block j in
// slot r of band j, so ranks interleave band by band (and merge into one
// region where full slots abut); kind 5 lists its blocks in descending
// order with an empty segment after the first. Kind 6 is a sparse strided
// run starting at one offset shared by every kind-6 rank, so those ranks
// tie on offset (they overlap there, but never declare more bytes than
// their span).
func fuzzDecl(data []byte) [][]storage.Seg {
	const region, half = 1 << 16, 1 << 15
	const slot, bands = 1 << 8, 16 * region // banded area: 16 slots a band
	const ties = bands + 16*16*slot
	all := make([][]storage.Seg, max(1, len(data)/4))
	for r := range all {
		if 4*r+3 >= len(data) {
			break
		}
		kind, a, c := data[4*r]%8, int64(data[4*r+1])<<8|int64(data[4*r+2]), int64(data[4*r+3])
		base := int64(r) * region
		switch kind {
		case 1:
			all[r] = []storage.Seg{storage.Contig(base, 1+a%(region-1))}
		case 2:
			length := 1 + c%32
			stride := length + a%64
			all[r] = []storage.Seg{storage.Strided(base, length, stride, 1+(a>>6)%(region/stride))}
		case 3:
			all[r] = []storage.Seg{storage.Contig(base, 1+a%(half-1)), storage.Contig(base+half, 1+c*97%(half-1))}
		case 4, 5:
			n, length := 1+a%16, 1+c%slot
			for j := int64(0); j < n; j++ {
				all[r] = append(all[r], storage.Contig(bands+(j*16+int64(r))*slot, length))
			}
			if kind == 5 {
				slices.Reverse(all[r])
				all[r] = slices.Insert(all[r], 1, storage.Contig(bands, 0))
			}
		case 6:
			all[r] = []storage.Seg{storage.Strided(ties, 1, 32+int64(r), 2+c%8)}
		}
	}
	return all
}

// FuzzBuildPlan pins the plan builder to the reference implementation on
// random declared patterns, aggregator counts, buffer sizes and alignment
// units.
func FuzzBuildPlan(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint16(0), uint8(0))
	f.Add([]byte{1, 255, 255, 0, 1, 0, 10, 0, 1, 128, 0, 0}, uint8(2), uint16(3), uint8(1))
	f.Add([]byte{2, 7, 3, 9, 0, 0, 0, 0, 3, 40, 1, 200, 2, 255, 0, 31}, uint8(3), uint16(40), uint8(2))
	f.Add([]byte{3, 1, 2, 3, 3, 4, 5, 6, 3, 7, 8, 9, 1, 0, 0, 0, 2, 1, 1, 1}, uint8(7), uint16(62), uint8(0))
	// Banded ranks, full slots (one region across ranks) and partial ones.
	f.Add([]byte{4, 0, 15, 255, 4, 0, 15, 255, 4, 0, 15, 255, 4, 0, 7, 100}, uint8(1), uint16(900), uint8(0))
	// A descending banded rank between ascending ones, and offset ties.
	f.Add([]byte{4, 0, 9, 255, 5, 0, 9, 255, 4, 0, 9, 255, 6, 0, 0, 3, 6, 0, 0, 5, 6, 0, 0, 0}, uint8(1), uint16(1000), uint8(1))
	f.Add([]byte{5, 0, 15, 40, 6, 0, 0, 7, 5, 0, 3, 255, 6, 0, 0, 1, 1, 0, 10, 0}, uint8(2), uint16(300), uint8(0))
	// Offset ties across ranks in a list that steps back, so the order
	// between tied ranks comes from the sort's tie-break.
	f.Add([]byte{6, 0, 0, 0, 6, 0, 0, 0, 1, 0, 0, 0}, uint8(0), uint16(0), uint8(2))
	aligns := []int64{0, 4096, 32768}
	f.Fuzz(func(t *testing.T, data []byte, aggrs uint8, buf uint16, align uint8) {
		if len(data) > 64 {
			data = data[:64] // 16 ranks
		}
		all := fuzzDecl(data)
		nAggr := int(aggrs%8) + 1
		bufSize := 512 + int64(buf)%(63<<10)
		alignUnit := aligns[int(align)%len(aligns)]
		got := buildPlan(all, nAggr, bufSize, alignUnit, false)
		want := buildPlanReference(all, nAggr, bufSize, alignUnit)
		if err := comparePlans(got, want, bufSize); err != nil {
			t.Fatalf("ranks=%d aggr=%d buf=%d align=%d: %v", len(all), nAggr, bufSize, alignUnit, err)
		}
	})
}

// TestPlanMatchesReferenceHACCLike pins the builder on the paper's
// workloads: HACC AoS/SoA interleavings and IOR blocks, where coalescing
// and dense-region fast paths all engage.
func TestPlanMatchesReferenceHACCLike(t *testing.T) {
	const ranks = 24
	varSizes := []int64{4, 4, 4, 4, 4, 4, 4, 8, 2}
	const particleBytes = 38
	particles := int64(700)
	var aos [][]storage.Seg
	for r := 0; r < ranks; r++ {
		base := int64(r) * particles * particleBytes
		var segs []storage.Seg
		var fieldOff int64
		for _, sz := range varSizes {
			segs = append(segs, storage.Strided(base+fieldOff, sz, particleBytes, particles))
			fieldOff += sz
		}
		aos = append(aos, segs)
	}
	var ior [][]storage.Seg
	for r := 0; r < ranks; r++ {
		ior = append(ior, []storage.Seg{storage.Contig(int64(r)*1<<15, 1<<15)})
	}
	for _, tc := range []struct {
		name string
		all  [][]storage.Seg
	}{{"hacc-aos", aos}, {"ior", ior}} {
		for _, nAggr := range []int{1, 3, 8} {
			for _, buf := range []int64{4096, 65536} {
				for _, align := range []int64{0, 8192} {
					got := buildPlan(tc.all, nAggr, buf, align, false)
					want := buildPlanReference(tc.all, nAggr, buf, align)
					if err := comparePlans(got, want, buf); err != nil {
						t.Fatalf("%s aggr=%d buf=%d align=%d: %v", tc.name, nAggr, buf, align, err)
					}
				}
			}
		}
	}
}
