package mpiio

import (
	"fmt"
	"testing"

	"tapioca/internal/storage"
)

// fuzzPattern decodes every rank's access pattern from fuzz bytes, five per
// rank: a kind (nothing, one block, a strided run, or two-field AoS
// records) and its offset and sizes. Offsets stay under 512 KiB and each
// rank's pattern under 16 KiB, so the byte walk stays cheap; ranks may
// overlap one another, as independent MPI-IO callers can.
func fuzzPattern(data []byte) [][]storage.Seg {
	all := make([][]storage.Seg, max(1, len(data)/5))
	for r := range all {
		if 5*r+4 >= len(data) {
			break
		}
		d := data[5*r : 5*r+5]
		off := (int64(d[1])<<8 | int64(d[2])) * 8
		a, c := int64(d[3]), int64(d[4])
		switch d[0] % 4 {
		case 1:
			all[r] = []storage.Seg{storage.Contig(off, 1+(a<<8|c)%(16<<10))}
		case 2:
			length := 1 + c%64
			all[r] = []storage.Seg{storage.Strided(off, length, length+a%128, 1+(a^c))}
		case 3:
			n := 1 + (a<<8|c)%1024
			all[r] = []storage.Seg{storage.Strided(off, 4, 12, n), storage.Strided(off+4, 8, 12, n)}
		}
	}
	return all
}

// layoutRef states each layout's byte ownership from its definition: the
// owning aggregator, round and buffer window of file byte x.
type layoutRef struct {
	lo, hi, bufSize int64
	nAggr           int64
	domain          int64 // block: each aggregator's file-domain width
	unit            int64 // cyclic: stripe width (0 for block domains)
}

func newLayoutRef(allSegs [][]storage.Seg, nAggr int, bufSize, alignTo int64, cyclic bool) (layoutRef, bool) {
	ref := layoutRef{bufSize: bufSize, nAggr: int64(nAggr)}
	first := true
	for _, segs := range allSegs {
		for _, sg := range segs {
			if sg.Empty() {
				continue
			}
			if first || sg.Off < ref.lo {
				ref.lo = sg.Off
			}
			if first || sg.End() > ref.hi {
				ref.hi = sg.End()
			}
			first = false
		}
	}
	if cyclic {
		ref.unit = alignTo
		return ref, !first
	}
	ref.domain = (ref.hi - ref.lo + ref.nAggr - 1) / ref.nAggr
	if alignTo > 1 && ref.domain%alignTo != 0 {
		ref.domain += alignTo - ref.domain%alignTo
	}
	return ref, !first
}

// rounds is the number of rounds every aggregator runs.
func (l layoutRef) rounds() int {
	if l.unit == 0 {
		return int((l.domain + l.bufSize - 1) / l.bufSize)
	}
	stripes := l.hi/l.unit - l.lo/l.unit
	if l.hi%l.unit != 0 {
		stripes++
	}
	sub := (l.unit + l.bufSize - 1) / l.bufSize
	return int((stripes+l.nAggr-1)/l.nAggr) * int(sub)
}

// owner returns byte x's aggregator, round and round window [wlo, whi).
func (l layoutRef) owner(x int64) (agg, round int, wlo, whi int64) {
	if l.unit == 0 {
		a := (x - l.lo) / l.domain
		dlo := l.lo + a*l.domain
		j := (x - dlo) / l.bufSize
		wlo = dlo + j*l.bufSize
		return int(a), int(j), wlo, min(wlo+l.bufSize, dlo+l.domain, l.hi)
	}
	st := x/l.unit - l.lo/l.unit
	sub := (l.unit + l.bufSize - 1) / l.bufSize
	j := x % l.unit / l.bufSize
	wlo = x/l.unit*l.unit + j*l.bufSize
	return int(st % l.nAggr), int(st/l.nAggr*sub + j), wlo, min(wlo+l.bufSize, x/l.unit*l.unit+l.unit, l.hi)
}

// eachByte calls f on every file byte of sg, run by run.
func eachByte(sg storage.Seg, f func(x int64)) {
	for i := int64(0); i < sg.Count; i++ {
		for x := sg.Off + i*sg.Stride; x < sg.Off+i*sg.Stride+sg.Len; x++ {
			f(x)
		}
	}
}

// checkSchedule walks every byte of every rank's pattern and checks the
// schedule against the layout's definition: each byte lands in exactly one
// piece of its owning (aggregator, round), inside that round's window; each
// rank's pieces are sorted by round and carry exactly its bytes per
// (aggregator, round); and each round's totals match the pieces sent to it.
func checkSchedule(s *schedule, allSegs [][]storage.Seg, nAggr int, bufSize, alignTo int64, cyclic bool) error {
	ref, nonEmpty := newLayoutRef(allSegs, nAggr, bufSize, alignTo, cyclic)
	if !nonEmpty {
		if s.rounds != 0 || s.hi != s.lo {
			return fmt.Errorf("empty pattern: rounds=%d range=[%d,%d)", s.rounds, s.lo, s.hi)
		}
		return nil
	}
	if s.lo != ref.lo || s.hi != ref.hi || s.rounds != ref.rounds() {
		return fmt.Errorf("range [%d,%d) rounds %d, want [%d,%d) rounds %d", s.lo, s.hi, s.rounds, ref.lo, ref.hi, ref.rounds())
	}
	if len(s.aggRounds) != nAggr {
		return fmt.Errorf("%d aggregators scheduled, want %d", len(s.aggRounds), nAggr)
	}
	// Per (aggregator, round) tallies, indexed agg*rounds + round.
	at := func(agg, round int) int { return agg*s.rounds + round }
	want := make([]int32, ref.hi-ref.lo) // pattern bytes covering each file byte
	sentBytes := make([]int64, nAggr*s.rounds)
	sentPieces := make([]int, nAggr*s.rounds)
	perRank := make([]int64, nAggr*s.rounds)
	for r, segs := range allSegs {
		clear(perRank)
		for _, sg := range segs {
			eachByte(sg, func(x int64) {
				want[x-ref.lo]++
				a, k, _, _ := ref.owner(x)
				perRank[at(a, k)]++
			})
		}
		ps := s.sendPieces[r]
		for i, p := range ps {
			if i > 0 && p.round < ps[i-1].round {
				return fmt.Errorf("rank %d: piece %d round %d after round %d", r, i, p.round, ps[i-1].round)
			}
			if p.bytes <= 0 || p.agg >= nAggr || p.round >= s.rounds {
				return fmt.Errorf("rank %d: piece of %d bytes to agg %d round %d", r, p.bytes, p.agg, p.round)
			}
			perRank[at(p.agg, p.round)] -= p.bytes
			sentBytes[at(p.agg, p.round)] += p.bytes
			sentPieces[at(p.agg, p.round)]++
		}
		for i, b := range perRank {
			if b != 0 {
				return fmt.Errorf("rank %d: agg %d round %d off by %d bytes", r, i/s.rounds, i%s.rounds, b)
			}
		}
	}
	got := make([]int32, len(want))
	for a, rds := range s.aggRounds {
		if len(rds) != s.rounds {
			return fmt.Errorf("agg %d has %d rounds, want %d", a, len(rds), s.rounds)
		}
		for k, rd := range rds {
			if i := at(a, k); rd.bytes != sentBytes[i] || rd.pieces != sentPieces[i] {
				return fmt.Errorf("agg %d round %d: %d bytes in %d pieces, sent %d in %d", a, k, rd.bytes, rd.pieces, sentBytes[i], sentPieces[i])
			}
			for _, sg := range rd.segs {
				var err error
				eachByte(sg, func(x int64) {
					if err != nil {
						return
					}
					if x < ref.lo || x >= ref.hi {
						err = fmt.Errorf("agg %d round %d holds byte %d outside [%d,%d)", a, k, x, ref.lo, ref.hi)
						return
					}
					got[x-ref.lo]++
					ownA, ownK, wlo, whi := ref.owner(x)
					switch {
					case ownA != a || ownK != k:
						err = fmt.Errorf("byte %d in agg %d round %d, owned by agg %d round %d", x, a, k, ownA, ownK)
					case rd.wlo != wlo || rd.whi != whi:
						err = fmt.Errorf("agg %d round %d window [%d,%d), want [%d,%d)", a, k, rd.wlo, rd.whi, wlo, whi)
					}
				})
				if err != nil {
					return err
				}
			}
		}
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("byte %d scheduled %d times, pattern covers it %d times", ref.lo+int64(i), got[i], want[i])
		}
	}
	return nil
}

// FuzzBuildSchedule checks the two-phase schedule builder, block and
// stripe-cyclic, against a byte walk of random access patterns, aggregator
// counts, buffer sizes and alignment units.
func FuzzBuildSchedule(f *testing.F) {
	// HACC-like: two ranks of 1,000 AoS records, two SoA field blocks and a
	// 4-byte AoS variable every 38 bytes, back to back.
	hacc := []byte{3, 0, 0, 3, 231, 3, 5, 220, 3, 231, 1, 11, 184, 15, 159, 1, 13, 172, 15, 159, 2, 15, 160, 34, 3}
	// IOR-like: one 16 KiB block per rank, back to back.
	ior := []byte{1, 0, 0, 63, 255, 1, 8, 0, 63, 255, 1, 16, 0, 63, 255, 1, 24, 0, 63, 255}
	f.Add([]byte{}, uint8(0), uint16(0), uint8(0), false)
	f.Add(hacc, uint8(3), uint16(4000), uint8(1), true)
	f.Add(hacc, uint8(3), uint16(4000), uint8(2), false)
	f.Add(ior, uint8(1), uint16(16384), uint8(2), true)
	f.Add(ior, uint8(2), uint16(9000), uint8(1), false)
	aligns := []int64{0, 4096, 32768}
	f.Fuzz(func(t *testing.T, data []byte, aggrs uint8, buf uint16, align uint8, cyclic bool) {
		if len(data) > 80 {
			data = data[:80] // 16 ranks
		}
		all := fuzzPattern(data)
		nAggr := int(aggrs%8) + 1
		bufSize := 256 + int64(buf)
		alignTo := aligns[int(align)%len(aligns)]
		cyclic = cyclic && alignTo > 0 // as collectiveIO decides
		s := buildSchedule(all, nAggr, bufSize, alignTo, cyclic)
		if err := checkSchedule(s, all, nAggr, bufSize, alignTo, cyclic); err != nil {
			t.Fatalf("ranks=%d aggr=%d buf=%d align=%d cyclic=%v: %v", len(all), nAggr, bufSize, alignTo, cyclic, err)
		}
	})
}
