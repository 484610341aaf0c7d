package storage

import "fmt"

// Seg describes a (possibly strided) file access pattern compactly: Count
// runs of Len bytes, the i-th starting at Off + i*Stride. A contiguous
// extent is Count == 1. Runs never overlap (Stride >= Len when Count > 1).
//
// Segments are the currency of the whole I/O stack: HACC-IO's array-of-
// structures layout produces millions of 4-byte runs per collective write,
// which must be reasoned about in O(1) — never enumerated.
type Seg struct {
	Off    int64
	Len    int64
	Stride int64
	Count  int64
}

// Contig returns a contiguous segment [off, off+length).
func Contig(off, length int64) Seg {
	return Seg{Off: off, Len: length, Stride: length, Count: 1}
}

// Strided returns a strided segment: count runs of length bytes every
// stride bytes starting at off.
func Strided(off, length, stride, count int64) Seg {
	if count > 1 && stride < length {
		panic(fmt.Sprintf("storage: overlapping strided segment (stride %d < len %d)", stride, length))
	}
	return Seg{Off: off, Len: length, Stride: stride, Count: count}
}

// Bytes returns the total data bytes in the segment.
func (s Seg) Bytes() int64 { return s.Len * s.Count }

// Runs returns the number of contiguous runs.
func (s Seg) Runs() int64 { return s.Count }

// End returns the exclusive upper bound of the segment's span.
func (s Seg) End() int64 {
	if s.Count == 0 {
		return s.Off
	}
	return s.Off + s.Stride*(s.Count-1) + s.Len
}

// Span returns the [lo, hi) file range the segment touches.
func (s Seg) Span() (lo, hi int64) { return s.Off, s.End() }

// Empty reports whether the segment contains no bytes.
func (s Seg) Empty() bool { return s.Count <= 0 || s.Len <= 0 }

// Intersect clips the segment to the window [lo, hi), returning at most
// three segments (clipped head run, strided middle, clipped tail run).
func (s Seg) Intersect(lo, hi int64) []Seg { return s.AppendIntersect(nil, lo, hi) }

// AppendIntersect appends the segments of Intersect(lo, hi) to out and
// returns the extended slice.
func (s Seg) AppendIntersect(out []Seg, lo, hi int64) []Seg {
	if s.Empty() || hi <= lo || s.End() <= lo || s.Off >= hi {
		return out
	}
	if s.Count == 1 {
		o := max(s.Off, lo)
		e := min(s.Off+s.Len, hi)
		if e <= o {
			return out
		}
		return append(out, Contig(o, e-o))
	}
	// First run index whose end is after lo: run i spans
	// [Off+i*Stride, Off+i*Stride+Len).
	i0 := int64(0)
	if lo > s.Off+s.Len-1 {
		i0 = (lo - s.Off - s.Len + s.Stride) / s.Stride // ceil((lo-Off-Len+1)/Stride) for ints
		if s.Off+i0*s.Stride+s.Len <= lo {
			i0++
		}
	}
	// Last run index that starts before hi.
	i1 := (hi - 1 - s.Off) / s.Stride
	if i1 >= s.Count {
		i1 = s.Count - 1
	}
	if i0 > i1 {
		return out
	}
	// Head run, possibly clipped at lo.
	headOff := s.Off + i0*s.Stride
	headEnd := min(headOff+s.Len, hi)
	headOffClip := max(headOff, lo)
	headClipped := headOffClip != headOff || headEnd != headOff+s.Len
	// Tail run, possibly clipped at hi.
	tailOff := s.Off + i1*s.Stride
	tailEnd := min(tailOff+s.Len, hi)
	tailOffClip := max(tailOff, lo)
	tailClipped := tailOffClip != tailOff || tailEnd != tailOff+s.Len

	if i0 == i1 {
		if headEnd <= headOffClip {
			return out
		}
		return append(out, Contig(headOffClip, headEnd-headOffClip))
	}
	midFirst, midLast := i0, i1
	if headClipped {
		if headEnd > headOffClip {
			out = append(out, Contig(headOffClip, headEnd-headOffClip))
		}
		midFirst = i0 + 1
	}
	if tailClipped {
		midLast = i1 - 1
	}
	if midFirst <= midLast {
		out = append(out, Seg{
			Off:    s.Off + midFirst*s.Stride,
			Len:    s.Len,
			Stride: s.Stride,
			Count:  midLast - midFirst + 1,
		})
	}
	if tailClipped && tailEnd > tailOffClip {
		out = append(out, Contig(tailOffClip, tailEnd-tailOffClip))
	}
	return out
}

// BytesIn returns the data bytes of the segment inside the window [lo, hi) —
// TotalBytes(s.Intersect(lo, hi)) computed analytically, with no allocation.
func (s Seg) BytesIn(lo, hi int64) int64 {
	if s.Empty() || hi <= lo {
		return 0
	}
	return s.bytesBefore(hi) - s.bytesBefore(lo)
}

// bytesBefore returns the segment's data bytes at file offsets below x.
func (s Seg) bytesBefore(x int64) int64 {
	if x <= s.Off {
		return 0
	}
	if x >= s.End() {
		return s.Bytes()
	}
	if s.Count == 1 {
		return min(x-s.Off, s.Len)
	}
	// Runs fully below x, plus the clipped portion of the run containing x.
	i := (x - s.Off) / s.Stride
	if i >= s.Count {
		i = s.Count - 1
	}
	n := i * s.Len
	if part := x - (s.Off + i*s.Stride); part > 0 {
		n += min(part, s.Len)
	}
	return n
}

// IntersectAll clips every segment in segs to [lo, hi).
func IntersectAll(segs []Seg, lo, hi int64) []Seg {
	var out []Seg
	for _, s := range segs {
		out = append(out, s.Intersect(lo, hi)...)
	}
	return out
}

// Compact merges consecutive segments whose runs continue a single arithmetic
// pattern, in place. It is purely representational: the merged list describes
// exactly the same set of contiguous runs, so TotalBytes, TotalRuns, SpanAll,
// BytesIn and Intersect are all preserved — only the element count shrinks.
// Adjacent fragments produced by window clipping (e.g. a strided pattern cut
// at stripe boundaries and reassembled) collapse back into single segments,
// which keeps downstream stripe math linear in runs rather than fragments.
func Compact(segs []Seg) []Seg {
	if len(segs) < 2 {
		return segs
	}
	out := segs[:1]
	for _, s := range segs[1:] {
		if s.Empty() {
			continue
		}
		a := &out[len(out)-1]
		if s.Len == a.Len && s.Off == a.Off+a.Count*a.Stride &&
			(s.Count == 1 || s.Stride == a.Stride) {
			// s continues a's run pattern at a's own stride.
			a.Count += s.Count
			continue
		}
		if a.Count == 1 && s.Count == 1 && s.Len == a.Len && s.Off-a.Off >= a.Len {
			// Two equal-length runs define a stride of their own.
			a.Stride = s.Off - a.Off
			a.Count = 2
			continue
		}
		out = append(out, s)
	}
	return out
}

// CompactInto compacts segs into dst (reused backing, input untouched) — the
// aliasing-safe variant for pricing paths whose inputs are caller-owned.
func CompactInto(dst, segs []Seg) []Seg {
	dst = append(dst[:0], segs...)
	return Compact(dst)
}

// TotalBytes sums the data bytes over segments.
func TotalBytes(segs []Seg) int64 {
	var n int64
	for _, s := range segs {
		n += s.Bytes()
	}
	return n
}

// TotalRuns sums the contiguous-run counts over segments.
func TotalRuns(segs []Seg) int64 {
	var n int64
	for _, s := range segs {
		n += s.Runs()
	}
	return n
}

// SpanAll returns the overall [lo, hi) range of a non-empty segment list.
func SpanAll(segs []Seg) (lo, hi int64) {
	first := true
	for _, s := range segs {
		if s.Empty() {
			continue
		}
		slo, shi := s.Span()
		if first || slo < lo {
			lo = slo
		}
		if first || shi > hi {
			hi = shi
		}
		first = false
	}
	return lo, hi
}

// Enumerate expands segments into (offset, length) runs, calling fn for
// each. It is for tests and verification at small scale only; it panics if
// the expansion exceeds limit runs (guard against accidental blowups).
func Enumerate(segs []Seg, limit int64, fn func(off, length int64)) {
	var n int64
	for _, s := range segs {
		for i := int64(0); i < s.Count; i++ {
			n++
			if n > limit {
				panic(fmt.Sprintf("storage: Enumerate exceeded limit %d", limit))
			}
			fn(s.Off+i*s.Stride, s.Len)
		}
	}
}

// PageFootprint returns the bytes a sparse access dirties at page
// granularity: runs further apart than a page each dirty their own page(s),
// clamped to [TotalBytes, span]. Parallel file-system clients write back
// whole pages, which is what makes unsieved strided writes expensive.
func PageFootprint(segs []Seg, page int64) int64 {
	if len(segs) == 0 {
		return 0
	}
	lo, hi := SpanAll(segs)
	var pages int64
	for _, s := range segs {
		if s.Count > 1 && s.Stride >= page {
			pages += s.Count * ((s.Len + page - 1) / page)
		}
	}
	footprint := pages * page
	span := hi - lo
	if footprint == 0 || footprint > span {
		footprint = span
	}
	if b := TotalBytes(segs); footprint < b {
		footprint = b
	}
	return footprint
}

// pageSpan is the contiguous extent a page-granular client writes back for
// segs: from the span's start, the pattern's 4 KB page footprint.
func pageSpan(segs []Seg) []Seg {
	lo, _ := SpanAll(segs)
	return []Seg{Contig(lo, PageFootprint(segs, 4096))}
}
