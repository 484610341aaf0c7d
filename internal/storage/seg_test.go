package storage

import (
	"math/rand"
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
