package storage

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestContigBasics(t *testing.T) {
	s := Contig(100, 50)
	if s.Bytes() != 50 || s.Runs() != 1 || s.End() != 150 {
		t.Fatalf("contig = %+v", s)
	}
	lo, hi := s.Span()
	if lo != 100 || hi != 150 {
		t.Fatalf("span = [%d,%d)", lo, hi)
	}
}

func TestStridedBasics(t *testing.T) {
	// HACC AoS-like: 4-byte runs every 38 bytes.
	s := Strided(0, 4, 38, 1000)
	if s.Bytes() != 4000 || s.Runs() != 1000 {
		t.Fatalf("strided = %+v", s)
	}
	if s.End() != 38*999+4 {
		t.Fatalf("end = %d", s.End())
	}
}

func TestStridedOverlapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for overlapping runs")
		}
	}()
	Strided(0, 10, 5, 3)
}

func TestIntersectContig(t *testing.T) {
	s := Contig(100, 100) // [100,200)
	cases := []struct {
		lo, hi    int64
		wantBytes int64
	}{
		{0, 100, 0},
		{200, 300, 0},
		{0, 150, 50},
		{150, 400, 50},
		{120, 130, 10},
		{100, 200, 100},
		{0, 1000, 100},
	}
	for _, c := range cases {
		got := TotalBytes(s.Intersect(c.lo, c.hi))
		if got != c.wantBytes {
			t.Errorf("Intersect[%d,%d) = %d bytes, want %d", c.lo, c.hi, got, c.wantBytes)
		}
	}
}

func TestIntersectStridedMiddle(t *testing.T) {
	s := Strided(0, 4, 10, 10) // runs at 0,10,...,90
	// Window [25, 67): runs at 30,40,50,60 fully; none clipped.
	out := s.Intersect(25, 67)
	if TotalBytes(out) != 16 {
		t.Fatalf("bytes = %d, want 16 (%+v)", TotalBytes(out), out)
	}
	if TotalRuns(out) != 4 {
		t.Fatalf("runs = %d, want 4", TotalRuns(out))
	}
}

func TestIntersectStridedClippedEnds(t *testing.T) {
	s := Strided(0, 10, 20, 5) // [0,10) [20,30) [40,50) [60,70) [80,90)
	// Window [5, 85): head clipped to [5,10), tail clipped to [80,85).
	out := s.Intersect(5, 85)
	if TotalBytes(out) != 5+10+10+10+5 {
		t.Fatalf("bytes = %d (%+v)", TotalBytes(out), out)
	}
	if len(out) != 3 {
		t.Fatalf("segments = %d, want head+middle+tail (%+v)", len(out), out)
	}
}

func TestIntersectSingleRunWindowInside(t *testing.T) {
	s := Strided(0, 100, 200, 3)
	// Window entirely inside run 1: [210, 250).
	out := s.Intersect(210, 250)
	if TotalBytes(out) != 40 || len(out) != 1 {
		t.Fatalf("out = %+v", out)
	}
	if out[0].Off != 210 {
		t.Fatalf("off = %d", out[0].Off)
	}
}

func TestIntersectWindowBetweenRuns(t *testing.T) {
	s := Strided(0, 4, 100, 5)
	out := s.Intersect(10, 90) // gap between run 0 and run 1
	if len(out) != 0 {
		t.Fatalf("out = %+v, want empty", out)
	}
}

// Property: intersection preserves bytes exactly (checked by enumeration).
func TestIntersectBytesProperty(t *testing.T) {
	f := func(off uint16, lenB, strideExtra, count uint8, wloU, wspan uint16) bool {
		length := int64(lenB%64) + 1
		stride := length + int64(strideExtra%64)
		cnt := int64(count%32) + 1
		s := Strided(int64(off), length, stride, cnt)
		lo := int64(wloU)
		hi := lo + int64(wspan)
		got := TotalBytes(s.Intersect(lo, hi))
		var want int64
		Enumerate([]Seg{s}, 1<<20, func(o, l int64) {
			a, b := max(o, lo), min(o+l, hi)
			if b > a {
				want += b - a
			}
		})
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: intersection output segments lie within the window and within
// the source span, and never overlap each other.
func TestIntersectContainmentProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		length := rng.Int63n(50) + 1
		stride := length + rng.Int63n(50)
		s := Strided(rng.Int63n(1000), length, stride, rng.Int63n(20)+1)
		lo := rng.Int63n(2000)
		hi := lo + rng.Int63n(2000)
		out := s.Intersect(lo, hi)
		var prevEnd int64 = -1
		for _, o := range out {
			olo, ohi := o.Span()
			if olo < lo || ohi > hi {
				t.Fatalf("segment %+v outside window [%d,%d)", o, lo, hi)
			}
			if olo < s.Off || ohi > s.End() {
				t.Fatalf("segment %+v outside source %+v", o, s)
			}
			if olo < prevEnd {
				t.Fatalf("segments overlap: %+v", out)
			}
			prevEnd = ohi
		}
	}
}

func TestSpanAll(t *testing.T) {
	segs := []Seg{Contig(500, 10), Contig(100, 10), Strided(200, 5, 50, 4)}
	lo, hi := SpanAll(segs)
	if lo != 100 || hi != 510 {
		t.Fatalf("span = [%d,%d)", lo, hi)
	}
}

func TestEnumerateLimitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on limit")
		}
	}()
	Enumerate([]Seg{Strided(0, 1, 2, 1000)}, 10, func(o, l int64) {})
}

func TestIntersectAllMultipleSegs(t *testing.T) {
	segs := []Seg{Contig(0, 100), Contig(200, 100)}
	out := IntersectAll(segs, 50, 250)
	if TotalBytes(out) != 100 {
		t.Fatalf("bytes = %d (%+v)", TotalBytes(out), out)
	}
}

// FuzzCompact checks Compact's documented invariants on the lists the
// planner and the flushes compact: valid, non-overlapping strided patterns
// in file order, clipped at window cuts with IntersectAll so they break into
// head, middle and tail fragments. CompactInto must leave its input alone
// and describe the same run set: TotalBytes, TotalRuns, SpanAll, BytesIn on
// random windows and the Enumerate run list all match the fragments'.
//
// patterns holds uvarint quadruples (gap, len-1, stride-len, count-1): gap 0
// starts a pattern where the previous one's next run would start, gap g > 0
// starts it g-1 bytes after the previous one's end. cuts holds uvarint
// offsets into the patterns' span; probe seeds the BytesIn windows.
func FuzzCompact(f *testing.F) {
	// One strided pattern clipped at a window boundary: two fragments that
	// compact back into one segment.
	f.Add(uvarints(0, 999, 7192, 63), uvarints(32*8192), uint64(1))
	// Equal run lengths continuing at a different stride must not merge.
	f.Add(uvarints(0, 9, 90, 2, 0, 9, 40, 2), uvarints(), uint64(2))
	// Adjacent contiguous runs, a single run at a wide stride, cuts mid-run.
	f.Add(uvarints(0, 9, 0, 0, 1, 9, 0, 0, 0, 9, 5, 0, 0, 9, 5, 4), uvarints(15, 33, 34, 70), uint64(3))
	// Cuts inside the gaps and runs of a long sparse pattern.
	f.Add(uvarints(7, 3, 12, 40, 0, 3, 12, 40), uvarints(5, 100, 101, 333, 640, 641), uint64(4))
	f.Fuzz(func(t *testing.T, patterns, cuts []byte, probe uint64) {
		pats := decodePatterns(patterns)
		if len(pats) == 0 {
			return
		}
		lo, hi := SpanAll(pats)
		bounds := []int64{lo, hi}
		for v, rest := readUvarint(cuts); len(bounds) < 18 && rest != nil; v, rest = readUvarint(rest) {
			bounds = append(bounds, lo+int64(v%uint64(hi-lo+1)))
		}
		slices.Sort(bounds)
		var frags []Seg
		for i := 1; i < len(bounds); i++ {
			frags = append(frags, IntersectAll(pats, bounds[i-1], bounds[i])...)
		}
		in := slices.Clone(frags)
		out := CompactInto(nil, frags)
		if !slices.Equal(frags, in) {
			t.Fatalf("CompactInto changed its input: %+v, was %+v", frags, in)
		}
		if len(out) > len(in) {
			t.Fatalf("compacted %d segments into %d", len(in), len(out))
		}
		if TotalBytes(out) != TotalBytes(in) || TotalRuns(out) != TotalRuns(in) {
			t.Fatalf("compacted %+v: %d bytes in %d runs, fragments %+v have %d in %d",
				out, TotalBytes(out), TotalRuns(out), in, TotalBytes(in), TotalRuns(in))
		}
		if olo, ohi := SpanAll(out); olo != lo || ohi != hi {
			t.Fatalf("compacted span [%d, %d), fragments span [%d, %d)", olo, ohi, lo, hi)
		}
		if got, want := runList(out), runList(in); !slices.Equal(got, want) {
			t.Fatalf("compacted %+v enumerates %v, fragments %+v enumerate %v", out, got, in, want)
		}
		rng := rand.New(rand.NewSource(int64(probe)))
		for range 16 {
			a, b := lo-1+rng.Int63n(hi-lo+2), lo-1+rng.Int63n(hi-lo+2)
			a, b = min(a, b), max(a, b)
			if got, want := bytesIn(out, a, b), bytesIn(in, a, b); got != want {
				t.Fatalf("compacted %+v holds %d bytes in [%d, %d), fragments %+v hold %d", out, got, a, b, in, want)
			}
		}
	})
}

// decodePatterns reads FuzzCompact's pattern encoding: at most eight
// non-overlapping patterns of at most 64 runs, in file order.
func decodePatterns(data []byte) []Seg {
	var segs []Seg
	var vals [4]uint64
	for len(segs) < 8 {
		for i := range vals {
			if vals[i], data = readUvarint(data); data == nil {
				return segs
			}
		}
		length := int64(vals[1]%(1<<16)) + 1
		s := Strided(0, length, length+int64(vals[2]%(1<<16)), int64(vals[3]%64)+1)
		if n := len(segs); n > 0 {
			prev := segs[n-1]
			if gap := int64(vals[0] % (1 << 16)); gap == 0 {
				s.Off = prev.Off + prev.Count*prev.Stride
			} else {
				s.Off = prev.End() + gap - 1
			}
		}
		segs = append(segs, s)
	}
	return segs
}

// readUvarint reads one uvarint; rest is nil once data holds none.
func readUvarint(data []byte) (v uint64, rest []byte) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil
	}
	return v, data[n:]
}

func uvarints(vals ...uint64) []byte {
	var b []byte
	for _, v := range vals {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// runList enumerates a segment list's runs as (offset, length) pairs.
func runList(segs []Seg) [][2]int64 {
	var runs [][2]int64
	Enumerate(segs, 1<<16, func(off, length int64) { runs = append(runs, [2]int64{off, length}) })
	return runs
}

func bytesIn(segs []Seg, lo, hi int64) int64 {
	var n int64
	for _, s := range segs {
		n += s.BytesIn(lo, hi)
	}
	return n
}
