package dataplane

import (
	"math/rand"
	"testing"

	"tapioca/internal/storage"
)

// BenchmarkDataPlane measures the host byte path in MB/s (b.SetBytes): the
// zero-copy gather/scatter against the PR-5 two-copy baseline, coalesced
// store I/O against the per-run baseline, the parallel checksum against the
// serial walk, and the composed write path (gather + store) the
// ≥2x acceptance criterion is judged on. The "-pr5" variants reconstruct the
// previous data path in-benchmark so both sides run on identical inputs.
func BenchmarkDataPlane(b *testing.B) {
	const (
		window = 4 << 20 // one aggregation-buffer's worth per iteration
		runLen = 256     // file-run granularity (interleaved strided patterns)
	)
	// A strided declared pattern whose runs tile [0, window): the layout an
	// aggregator's round buffer gathers from and scatters to.
	declared := [][]storage.Seg{
		{storage.Strided(0, runLen, 2*runLen, window/(2*runLen))},
		{storage.Strided(runLen, runLen, 2*runLen, window/(2*runLen))},
	}
	rng := rand.New(rand.NewSource(42))
	data := make([][]byte, len(declared))
	for i, segs := range declared {
		data[i] = make([]byte, storage.TotalBytes(segs))
		rng.Read(data[i])
	}
	pl, err := New(declared, data)
	if err != nil {
		b.Fatal(err)
	}
	win := make([]byte, window)
	pl.Gather(win, 0, window)
	segs := []storage.Seg{storage.Contig(0, window)}
	layoutRuns := make([]storage.Seg, 0, window/runLen)
	for off := int64(0); off < window; off += runLen {
		layoutRuns = append(layoutRuns, storage.Contig(off, runLen))
	}

	b.Run("gather-direct", func(b *testing.B) {
		// PutGather path: the plane writes straight into window memory.
		b.SetBytes(window)
		for i := 0; i < b.N; i++ {
			if n := pl.Gather(win, 0, window); n != window {
				b.Fatalf("gathered %d", n)
			}
		}
	})
	b.Run("gather-twocopy", func(b *testing.B) {
		// PR-5 path: gather into an intermediate buffer, then copy it into
		// the window (the copy a pre-gathered put payload paid).
		b.SetBytes(window)
		staging := make([]byte, window)
		for i := 0; i < b.N; i++ {
			if n := pl.Gather(staging, 0, window); n != window {
				b.Fatalf("gathered %d", n)
			}
			copy(win, staging)
		}
	})
	b.Run("scatter-direct", func(b *testing.B) {
		b.SetBytes(window)
		for i := 0; i < b.N; i++ {
			if n := pl.Scatter(win, 0, window); n != window {
				b.Fatalf("scattered %d", n)
			}
		}
	})
	b.Run("scatter-twocopy", func(b *testing.B) {
		b.SetBytes(window)
		staging := make([]byte, window)
		for i := 0; i < b.N; i++ {
			copy(staging, win)
			if n := pl.Scatter(staging, 0, window); n != window {
				b.Fatalf("scattered %d", n)
			}
		}
	})

	b.Run("store-write-coalesced", func(b *testing.B) {
		b.SetBytes(window)
		f := &storage.File{Name: "bench"}
		for i := 0; i < b.N; i++ {
			if err := f.StoreWrite(layoutRuns, win); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("store-write-perrun", func(b *testing.B) {
		// PR-5 path: one locked WriteAt per enumerated run.
		b.SetBytes(window)
		f := &storage.File{Name: "bench"}
		for i := 0; i < b.N; i++ {
			src := win
			var err error
			storage.Enumerate(layoutRuns, 1<<30, func(off, length int64) {
				if e := f.StoreWriteAt(src[:length], off); e != nil && err == nil {
					err = e
				}
				src = src[length:]
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("store-read-coalesced", func(b *testing.B) {
		b.SetBytes(window)
		f := &storage.File{Name: "bench"}
		if err := f.StoreWrite(segs, win); err != nil {
			b.Fatal(err)
		}
		dst := make([]byte, window)
		for i := 0; i < b.N; i++ {
			if err := f.StoreRead(layoutRuns, dst); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("store-read-perrun", func(b *testing.B) {
		b.SetBytes(window)
		f := &storage.File{Name: "bench"}
		if err := f.StoreWrite(segs, win); err != nil {
			b.Fatal(err)
		}
		dst := make([]byte, window)
		for i := 0; i < b.N; i++ {
			p := dst
			var err error
			storage.Enumerate(layoutRuns, 1<<30, func(off, length int64) {
				if e := f.StoreReadAt(p[:length], off); e != nil && err == nil {
					err = e
				}
				p = p[length:]
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})

	// Checksums need enough bytes to cross the 4 MiB/shard parallel
	// threshold, so they run on a larger plane.
	const big = 64 << 20
	bigDecl := [][]storage.Seg{{storage.Contig(0, big)}}
	bigData := [][]byte{make([]byte, big)}
	rng.Read(bigData[0])
	bigPl, err := New(bigDecl, bigData)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("checksum-parallel", func(b *testing.B) {
		b.SetBytes(big)
		for i := 0; i < b.N; i++ {
			bigPl.Checksum()
		}
	})
	b.Run("checksum-serial", func(b *testing.B) {
		b.SetBytes(big)
		for i := 0; i < b.N; i++ {
			bigPl.checksumRange(0, 0, bigPl.total)
		}
	})
	b.Run("store-checksum", func(b *testing.B) {
		b.SetBytes(big)
		f := &storage.File{Name: "bench"}
		if err := f.StoreWrite(bigDecl[0], bigData[0]); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := f.StoreChecksum(bigDecl[0]); err != nil {
				b.Fatal(err)
			}
		}
	})

	// The acceptance pair: one aggregation round's full byte path — gather
	// the window, land it in the store. The new path gathers directly into
	// window memory and issues one coalesced store call; the PR-5 path pays
	// the staging copy and a locked store call per run.
	b.Run("pipeline-new", func(b *testing.B) {
		b.SetBytes(window)
		f := &storage.File{Name: "bench"}
		for i := 0; i < b.N; i++ {
			if n := pl.Gather(win, 0, window); n != window {
				b.Fatalf("gathered %d", n)
			}
			if err := f.StoreWrite(layoutRuns, win); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pipeline-pr5", func(b *testing.B) {
		b.SetBytes(window)
		f := &storage.File{Name: "bench"}
		staging := make([]byte, window)
		for i := 0; i < b.N; i++ {
			if n := pl.Gather(staging, 0, window); n != window {
				b.Fatalf("gathered %d", n)
			}
			copy(win, staging)
			src := win
			var err error
			storage.Enumerate(layoutRuns, 1<<30, func(off, length int64) {
				if e := f.StoreWriteAt(src[:length], off); e != nil && err == nil {
					err = e
				}
				src = src[length:]
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
