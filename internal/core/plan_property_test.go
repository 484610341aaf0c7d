package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tapioca/internal/storage"
)

// randomWorkload builds a non-overlapping random declaration set: each rank
// gets a disjoint base region filled with a random mix of contiguous and
// strided segments.
func randomWorkload(rng *rand.Rand, ranks int) [][]storage.Seg {
	all := make([][]storage.Seg, ranks)
	const regionSize = 1 << 16
	for r := 0; r < ranks; r++ {
		base := int64(r) * regionSize
		switch rng.Intn(4) {
		case 0: // nothing
		case 1: // one contiguous block
			all[r] = []storage.Seg{storage.Contig(base, int64(rng.Intn(regionSize-1)+1))}
		case 2: // strided pattern within the region
			length := int64(rng.Intn(32) + 1)
			stride := length + int64(rng.Intn(64))
			maxCount := int64(regionSize) / stride
			if maxCount < 1 {
				maxCount = 1
			}
			count := rng.Int63n(maxCount) + 1
			all[r] = []storage.Seg{storage.Strided(base, length, stride, count)}
		default: // two contiguous pieces
			a := int64(rng.Intn(regionSize/2-1) + 1)
			bOff := base + int64(regionSize/2)
			b := int64(rng.Intn(regionSize/2-1) + 1)
			all[r] = []storage.Seg{storage.Contig(base, a), storage.Contig(bOff, b)}
		}
	}
	return all
}

// TestPlanInvariantsProperty fuzzes buildPlan: for random workloads,
// partition counts, buffer sizes and alignment units, the plan must
// conserve bytes (flush totals == declared totals == piece totals), never
// overfill a buffer window, and keep flush extents inside the declared
// span.
func TestPlanInvariantsProperty(t *testing.T) {
	f := func(seed int64, aggrsU, bufU, alignU uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ranks := rng.Intn(12) + 1
		nAggr := int(aggrsU%8) + 1
		bufSize := int64(bufU%63+1) * 1024
		var align int64
		if alignU%3 == 1 {
			align = 4096
		} else if alignU%3 == 2 {
			align = 32768
		}
		all := randomWorkload(rng, ranks)

		var declared int64
		for _, segs := range all {
			declared += storage.TotalBytes(segs)
		}
		p := buildPlan(all, nAggr, bufSize, align, false)

		var flushed, pieces int64
		for _, pp := range p.parts {
			for _, fl := range pp.flush {
				flushed += fl.bytes
				if storage.TotalBytes(fl.segs) != fl.bytes {
					return false
				}
				if fl.bytes > bufSize {
					return false // overfilled buffer
				}
			}
		}
		for _, pc := range p.pieces {
			pieces += pc.bytes
			if pc.bufOff < 0 || pc.bufOff+pc.bytes > bufSize {
				return false // piece outside the buffer window
			}
		}
		return flushed == declared && pieces == declared
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPlanFlushOrderProperty: within a partition, flush extents must be
// non-overlapping across rounds (each byte flushed exactly once).
func TestPlanFlushOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		ranks := rng.Intn(10) + 1
		all := randomWorkload(rng, ranks)
		p := buildPlan(all, rng.Intn(4)+1, int64(rng.Intn(8191)+1024), 0, false)
		for _, pp := range p.parts {
			type iv struct{ lo, hi int64 }
			var got []iv
			for _, fl := range pp.flush {
				storage.Enumerate(fl.segs, 1<<20, func(off, length int64) {
					got = append(got, iv{off, off + length})
				})
			}
			for i := range got {
				for j := i + 1; j < len(got); j++ {
					if got[i].lo < got[j].hi && got[j].lo < got[i].hi {
						t.Fatalf("trial %d: overlapping flush extents [%d,%d) and [%d,%d)",
							trial, got[i].lo, got[i].hi, got[j].lo, got[j].hi)
					}
				}
			}
		}
	}
}
