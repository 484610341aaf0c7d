package dataplane

import (
	"bytes"
	"math/rand"
	"testing"

	"tapioca/internal/storage"
)

func TestNewValidates(t *testing.T) {
	if _, err := New([][]storage.Seg{{storage.Contig(0, 10)}}, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := New([][]storage.Seg{{storage.Contig(0, 10)}}, [][]byte{make([]byte, 9)}); err == nil {
		t.Fatal("short payload accepted")
	}
	if _, err := New([][]storage.Seg{{storage.Contig(0, 10), storage.Contig(5, 10)}},
		[][]byte{make([]byte, 20)}); err == nil {
		t.Fatal("overlapping runs accepted")
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	// Two interleaved strided ops: runs of op 0 at 0,20,40,... and of op 1
	// at 10,30,50,... — gather must produce strict file-offset order even
	// though neither op's packed buffer is file-contiguous.
	decl := [][]storage.Seg{
		{storage.Strided(0, 10, 20, 5)},
		{storage.Strided(10, 10, 20, 5)},
	}
	d0 := bytes.Repeat([]byte{0xAA}, 50)
	d1 := bytes.Repeat([]byte{0xBB}, 50)
	pl, err := New(decl, [][]byte{d0, d1})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Bytes() != 100 {
		t.Fatalf("Bytes = %d", pl.Bytes())
	}
	dst := make([]byte, 100)
	if n := pl.Gather(dst, 0, 100); n != 100 {
		t.Fatalf("gathered %d", n)
	}
	for i, b := range dst {
		want := byte(0xAA)
		if (i/10)%2 == 1 {
			want = 0xBB
		}
		if b != want {
			t.Fatalf("byte %d = %#x, want %#x", i, b, want)
		}
	}
	// Partial window, clipped mid-run.
	part := make([]byte, 100)
	if n := pl.Gather(part, 5, 35); n != 30 {
		t.Fatalf("window gathered %d, want 30", n)
	}

	// Scatter into a fresh plane restores the original buffers.
	r0, r1 := make([]byte, 50), make([]byte, 50)
	rpl, err := New(decl, [][]byte{r0, r1})
	if err != nil {
		t.Fatal(err)
	}
	if n := rpl.Scatter(dst, 0, 100); n != 100 {
		t.Fatalf("scattered %d", n)
	}
	if !bytes.Equal(r0, d0) || !bytes.Equal(r1, d1) {
		t.Fatal("scatter did not restore op buffers")
	}
	if rpl.Checksum() != pl.Checksum() {
		t.Fatal("checksums differ after round trip")
	}
}

func TestGatherWindowsPartitionStream(t *testing.T) {
	// Gathering in arbitrary window cuts must concatenate to the full
	// file-ordered stream, for random patterns.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var decl [][]storage.Seg
		var data [][]byte
		next := int64(rng.Intn(50))
		for op := 0; op < 1+rng.Intn(3); op++ {
			var segs []storage.Seg
			for s := 0; s < 1+rng.Intn(3); s++ {
				length := int64(1 + rng.Intn(40))
				count := int64(1 + rng.Intn(5))
				stride := length + int64(rng.Intn(30))
				segs = append(segs, storage.Strided(next, length, stride, count))
				next = segs[len(segs)-1].End() + int64(rng.Intn(20))
			}
			buf := make([]byte, storage.TotalBytes(segs))
			rng.Read(buf)
			decl = append(decl, segs)
			data = append(data, buf)
		}
		pl, err := New(decl, data)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, pl.Bytes())
		pl.Gather(want, 0, next+1)
		var got []byte
		lo := int64(0)
		for lo < next+1 {
			hi := lo + int64(1+rng.Intn(60))
			chunk := make([]byte, pl.Bytes())
			n := pl.Gather(chunk, lo, hi)
			got = append(got, chunk[:n]...)
			lo = hi
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: windowed gathers diverge from full stream", trial)
		}
	}
}

func TestPlaneChecksumParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Two declared ops, enough bytes to cross the parallel threshold, with
	// strided runs so shard cuts land mid-run and mid-stream.
	declared := [][]storage.Seg{
		{storage.Contig(0, 6<<20), storage.Strided(32<<20, 96<<10, 256<<10, 64)},
		{storage.Strided(8<<20, 1<<20, 2<<20, 6)},
	}
	data := make([][]byte, len(declared))
	for i, segs := range declared {
		data[i] = make([]byte, storage.TotalBytes(segs))
		rng.Read(data[i])
	}
	pl, err := New(declared, data)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pl.Checksum(), pl.checksumRange(0, 0, pl.total); got != want {
		t.Fatalf("parallel checksum %#x != serial %#x", got, want)
	}
}
