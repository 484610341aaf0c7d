package storage

import (
	"fmt"
	"hash/crc64"
	"math/rand"
	"testing"
)

func TestCRC64CombineMatchesConcatenation(t *testing.T) {
	table := crc64.MakeTable(crc64.ECMA)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		la, lb := rng.Intn(5000), rng.Intn(5000)
		a, b := make([]byte, la), make([]byte, lb)
		rng.Read(a)
		rng.Read(b)
		ca := crc64.Update(0, table, a)
		cb := crc64.Update(0, table, b)
		whole := crc64.Update(ca, table, b)
		if got := CRC64Combine(ca, cb, int64(lb)); got != whole {
			t.Fatalf("trial %d (|A|=%d |B|=%d): combine %#x, concatenated %#x", trial, la, lb, got, whole)
		}
	}
}

func TestCRC64CombineEdgeCases(t *testing.T) {
	table := crc64.MakeTable(crc64.ECMA)
	a := []byte("tapioca")
	ca := crc64.Update(0, table, a)
	if got := CRC64Combine(ca, 0, 0); got != ca {
		t.Fatalf("combining with the empty stream changed the checksum: %#x != %#x", got, ca)
	}
	if got := CRC64Combine(0, ca, int64(len(a))); got != ca {
		t.Fatalf("combining the empty prefix changed the checksum: %#x != %#x", got, ca)
	}
}

func TestCRC64CombineManyShards(t *testing.T) {
	table := crc64.MakeTable(crc64.ECMA)
	rng := rand.New(rand.NewSource(7))
	whole := make([]byte, 1<<16)
	rng.Read(whole)
	want := crc64.Update(0, table, whole)
	for _, shards := range []int{2, 3, 7, 64} {
		var crc uint64
		per := len(whole) / shards
		for i := 0; i < shards; i++ {
			lo, hi := i*per, (i+1)*per
			if i == shards-1 {
				hi = len(whole)
			}
			part := crc64.Update(0, table, whole[lo:hi])
			crc = CRC64Combine(crc, part, int64(hi-lo))
		}
		if crc != want {
			t.Fatalf("%d shards: merged %#x, direct %#x", shards, crc, want)
		}
	}
}

// TestCRC64MatchesTable checks the checksum kernel against hash/crc64 at
// every start offset 0–15 (the kernel loads unaligned), at every length up
// to a few fold blocks and at a spread of longer ones, from three start
// states.
func TestCRC64MatchesTable(t *testing.T) {
	table := crc64.MakeTable(crc64.ECMA)
	rng := rand.New(rand.NewSource(3))
	buf := make([]byte, 9000+16)
	rng.Read(buf)
	lengths := make([]int, 0, 600)
	for n := 0; n <= 320; n++ {
		lengths = append(lengths, n)
	}
	for n := 321; n <= 9000; n += 1 + rng.Intn(97) {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 9000)
	for _, crc := range []uint64{0, ^uint64(0), 0x0123456789abcdef} {
		for off := 0; off < 16; off++ {
			for _, n := range lengths {
				p := buf[off : off+n]
				if got, want := CRC64(crc, p), crc64.Update(crc, table, p); got != want {
					t.Fatalf("crc %#x, offset %d, length %d: kernel %#x, table %#x", crc, off, n, got, want)
				}
			}
		}
	}
}

// FuzzCRC64 checks the kernel against hash/crc64.Update over random bytes,
// start CRCs, start offsets 0–15 and lengths; the seeds straddle the 16-,
// 64- and 128-byte boundaries where the kernel changes stage.
func FuzzCRC64(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 15, 16, 17, 63, 64, 65, 79, 80, 127, 128, 129, 143, 144, 191, 192, 1000} {
		data := make([]byte, n+16)
		rng.Read(data)
		f.Add(data, rng.Uint64(), uint8(rng.Intn(16)), uint16(n))
	}
	table := crc64.MakeTable(crc64.ECMA)
	f.Fuzz(func(t *testing.T, data []byte, crc uint64, off uint8, n uint16) {
		lo := min(int(off%16), len(data))
		hi := min(lo+int(n), len(data))
		p := data[lo:hi]
		if got, want := CRC64(crc, p), crc64.Update(crc, table, p); got != want {
			t.Fatalf("crc %#x over %d bytes at offset %d: kernel %#x, table %#x", crc, len(p), lo, got, want)
		}
	})
}

// BenchmarkCRC64 compares the checksum kernel with hash/crc64 across the
// 64-byte cutoff below which CRC64 keeps the table.
func BenchmarkCRC64(b *testing.B) {
	table := crc64.MakeTable(crc64.ECMA)
	for _, size := range []int{64, 256, 4 << 10, 64 << 10} {
		p := make([]byte, size)
		rand.New(rand.NewSource(int64(size))).Read(p)
		b.Run(fmt.Sprintf("kernel/%dB", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			var crc uint64
			for range b.N {
				crc = CRC64(crc, p)
			}
		})
		b.Run(fmt.Sprintf("hash-crc64/%dB", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			var crc uint64
			for range b.N {
				crc = crc64.Update(crc, table, p)
			}
		})
	}
}
