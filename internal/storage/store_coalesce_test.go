package storage

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// randSegs generates a random declared pattern mixing contiguous extents,
// fully adjacent strided runs (Stride == Len, the coalescing fast case) and
// gapped strided runs, with occasional exact repeats so overlap-adjacent
// write ordering is exercised too.
func randSegs(rng *rand.Rand) []Seg {
	n := 1 + rng.Intn(6)
	segs := make([]Seg, 0, n)
	for i := 0; i < n; i++ {
		off := int64(rng.Intn(1 << 18))
		length := int64(1 + rng.Intn(300))
		switch rng.Intn(4) {
		case 0:
			segs = append(segs, Contig(off, length))
		case 1:
			segs = append(segs, Strided(off, length, length, int64(1+rng.Intn(8))))
		default:
			stride := length + int64(rng.Intn(200))
			segs = append(segs, Strided(off, length, stride, int64(1+rng.Intn(8))))
		}
		if rng.Intn(5) == 0 && len(segs) > 1 {
			segs = append(segs, segs[rng.Intn(len(segs))]) // overlap: repeat an earlier extent
		}
	}
	return segs
}

// storeWriteUncoalesced is the PR-5 reference path: one store call per run,
// in enumeration order.
func storeWriteUncoalesced(f *File, segs []Seg, src []byte) error {
	var pos int64
	for _, s := range segs {
		for i := int64(0); i < s.Count; i++ {
			if err := f.StoreWriteAt(src[pos:pos+s.Len], s.Off+i*s.Stride); err != nil {
				return err
			}
			pos += s.Len
		}
	}
	return nil
}

func storeReadUncoalesced(f *File, segs []Seg, dst []byte) error {
	var pos int64
	for _, s := range segs {
		for i := int64(0); i < s.Count; i++ {
			if err := f.StoreReadAt(dst[pos:pos+s.Len], s.Off+i*s.Stride); err != nil {
				return err
			}
			pos += s.Len
		}
	}
	return nil
}

// TestStoreWriteCoalescingMatchesUncoalesced is the coalescing equivalence
// property: for random strided/adjacent/overlapping patterns, the batched
// extent path must land byte-identical store content to the per-run path.
func TestStoreWriteCoalescingMatchesUncoalesced(t *testing.T) {
	rng := rand.New(rand.NewSource(20170905))
	for trial := 0; trial < 100; trial++ {
		segs := randSegs(rng)
		src := make([]byte, TotalBytes(segs))
		rng.Read(src)

		fast := &File{Name: "fast"}
		ref := &File{Name: "ref"}
		if err := fast.StoreWrite(segs, src); err != nil {
			t.Fatalf("trial %d: coalesced write: %v", trial, err)
		}
		if err := storeWriteUncoalesced(ref, segs, src); err != nil {
			t.Fatalf("trial %d: reference write: %v", trial, err)
		}

		lo, hi := SpanAll(segs)
		span := hi - lo
		a, b := make([]byte, span), make([]byte, span)
		if err := fast.StoreReadAt(a, lo); err != nil {
			t.Fatal(err)
		}
		if err := ref.StoreReadAt(b, lo); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("trial %d: coalesced and per-run writes landed different store content (segs %v)", trial, segs)
		}

		// Read path: both gather styles must return identical packed bytes.
		rd := make([]byte, len(src))
		rdRef := make([]byte, len(src))
		if err := fast.StoreRead(segs, rd); err != nil {
			t.Fatal(err)
		}
		if err := storeReadUncoalesced(fast, segs, rdRef); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rd, rdRef) {
			t.Fatalf("trial %d: coalesced and per-run reads returned different bytes", trial)
		}

		// The checksum must agree with the application-side CRC of what was
		// read back — and the parallel shard path with the serial one.
		sum, err := fast.StoreChecksum(segs)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := fast.storeChecksumSerial(segs)
		if err != nil {
			t.Fatal(err)
		}
		if sum != serial {
			t.Fatalf("trial %d: sharded checksum %#x != serial %#x", trial, sum, serial)
		}
		if want := CRC64(0, rd); sum != want {
			t.Fatalf("trial %d: store checksum %#x != CRC of read-back bytes %#x", trial, sum, want)
		}
	}
}

// TestStoreChecksumParallelMatchesSerial forces the sharded path with a
// payload big enough to cross the parallel threshold.
func TestStoreChecksumParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := &File{Name: "big"}
	segs := []Seg{
		Contig(0, 9<<20),
		Strided(16<<20, 64<<10, 128<<10, 96),
	}
	src := make([]byte, TotalBytes(segs))
	rng.Read(src)
	if err := f.StoreWrite(segs, src); err != nil {
		t.Fatal(err)
	}
	sum, err := f.StoreChecksum(segs)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := f.storeChecksumSerial(segs)
	if err != nil {
		t.Fatal(err)
	}
	if sum != serial {
		t.Fatalf("parallel checksum %#x != serial %#x", sum, serial)
	}
	if want := CRC64(0, src); sum != want {
		t.Fatalf("checksum %#x != CRC of source bytes %#x", sum, want)
	}
}

// TestInPlaceChecksumMatchesCopy checksums random sparse extent lists
// twice over one MemStore: in place, through its chunk walk, and through the
// copy path a store without the walk takes. The lists mix holes, runs that
// straddle chunk boundaries, strided segments and chunks never written.
func TestInPlaceChecksumMatchesCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 40; trial++ {
		m := NewMemStore()
		span := int64(1+rng.Intn(12)) * memChunk
		for w := rng.Intn(6); w > 0; w-- {
			buf := make([]byte, 1+rng.Intn(3*memChunk/2))
			rng.Read(buf)
			if _, err := m.WriteAt(buf, rng.Int63n(span)); err != nil {
				t.Fatal(err)
			}
		}
		var segs []Seg
		for k := 1 + rng.Intn(8); k > 0; k-- {
			off := rng.Int63n(span)
			if rng.Intn(2) == 0 {
				// A run ending just past a chunk boundary.
				off = (off/memChunk+1)*memChunk - int64(1+rng.Intn(100))
			}
			if rng.Intn(3) == 0 {
				l := int64(1 + rng.Intn(memChunk/4))
				segs = append(segs, Strided(off, l, l+int64(rng.Intn(memChunk)), int64(1+rng.Intn(6))))
			} else {
				segs = append(segs, Contig(off, int64(1+rng.Intn(2*memChunk))))
			}
		}

		inPlace := &File{Name: "walk"}
		inPlace.SetStore(m)
		copied := &File{Name: "copy"}
		copied.SetStore(struct{ Store }{m}) // not a *MemStore: the copy path
		got, err := inPlace.storeChecksumSerial(segs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := copied.storeChecksumSerial(segs)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: in-place checksum %#x != copied %#x (segs %v)", trial, got, want, segs)
		}
	}
}

func TestSplitSegsPreservesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		segs := randSegs(rng)
		for _, parts := range []int{1, 2, 3, 5, 16} {
			split := SplitSegs(segs, parts)
			if len(split) > parts && parts > 0 {
				t.Fatalf("SplitSegs(%d) produced %d parts", parts, len(split))
			}
			var whole, pieces []int64 // (off, len) pairs flattened
			Enumerate(segs, 1<<20, func(off, n int64) { whole = append(whole, off, n) })
			var total int64
			for _, part := range split {
				Enumerate(part, 1<<20, func(off, n int64) { pieces = append(pieces, off, n) })
				total += TotalBytes(part)
			}
			if total != TotalBytes(segs) {
				t.Fatalf("split parts hold %d bytes, original %d", total, TotalBytes(segs))
			}
			// The concatenated parts must enumerate the same byte stream:
			// compare via byte-position walk (runs may split mid-run).
			if !sameByteStream(whole, pieces) {
				t.Fatalf("trial %d parts %d: split enumeration diverges from original", trial, parts)
			}
		}
	}
}

// sameByteStream checks two flattened (off, len) run lists describe the same
// ordered byte stream, allowing different run subdivision.
func sameByteStream(a, b []int64) bool {
	ai, bi := 0, 2
	var aOff, aLeft, bOff, bLeft int64
	next := func(l []int64, i *int, off, left *int64) bool {
		if *i >= len(l) {
			return false
		}
		*off, *left = l[*i], l[*i+1]
		*i += 2
		return true
	}
	ai, bi = 0, 0
	for {
		if aLeft == 0 && !next(a, &ai, &aOff, &aLeft) {
			return bLeft == 0 && bi >= len(b)
		}
		if bLeft == 0 && !next(b, &bi, &bOff, &bLeft) {
			return false
		}
		if aOff != bOff {
			return false
		}
		n := aLeft
		if bLeft < n {
			n = bLeft
		}
		aOff += n
		bOff += n
		aLeft -= n
		bLeft -= n
	}
}

// TestMemStoreConcurrentAccess exercises the store's synchronization the way
// the overlapped pipeline does: concurrent extent writers on disjoint ranges
// with concurrent readers (run under -race in CI).
func TestMemStoreConcurrentAccess(t *testing.T) {
	m := NewMemStore()
	const workers = 8
	const bytesPer = 256 << 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w) * bytesPer
			p := make([]byte, bytesPer)
			for i := range p {
				p[i] = byte(w)
			}
			if err := m.WriteExtents([]Extent{{Off: base, P: p[:bytesPer/2]}, {Off: base + bytesPer/2, P: p[bytesPer/2:]}}); err != nil {
				t.Error(err)
			}
			got := make([]byte, bytesPer)
			if err := m.ReadExtents([]Extent{{Off: base, P: got}}); err != nil {
				t.Error(err)
			}
			if !bytes.Equal(got, p) {
				t.Errorf("worker %d read back different bytes", w)
			}
		}(w)
	}
	wg.Wait()
}
