package core

// Randomized round-trip property suite for the data plane: random
// Contig/Strided declared patterns across ranks, written with real payload
// bytes through the full aggregation pipeline (puts into window memory,
// double-buffered flushes into the backing store), then read back by a
// fresh session and verified byte-for-byte and by CRC-64 checksum — over
// every storage backend (NullFS, Lustre, GPFS, BurstBuffer). The suite also
// runs under the race detector in CI (the race-hotpath job covers
// internal/core), exercising the fence-ordered window copies.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"tapioca/internal/mpi"
	"tapioca/internal/netsim"
	"tapioca/internal/storage"
	"tapioca/internal/topology"
	"tapioca/internal/workload"
)

// genDeclared builds a random non-overlapping declared pattern: file space
// is walked once, handing each block to a random rank as a contiguous or
// strided segment in one of its declared operations. Occasionally two ranks
// interleave runs within a shared region, and a single rank interleaves two
// of its own operations — the layouts that stress buffer ordering hardest.
func genDeclared(rng *rand.Rand, ranks, blocks int) [][][]storage.Seg {
	decl := make([][][]storage.Seg, ranks)
	place := func(r, op int, s storage.Seg) {
		for len(decl[r]) <= op {
			decl[r] = append(decl[r], nil)
		}
		decl[r][op] = append(decl[r][op], s)
	}
	cursor := int64(rng.Intn(512))
	for b := 0; b < blocks; b++ {
		r := rng.Intn(ranks)
		op := rng.Intn(3)
		switch rng.Intn(4) {
		case 0: // contiguous block
			s := storage.Contig(cursor, int64(1+rng.Intn(4096)))
			place(r, op, s)
			cursor = s.End()
		case 1: // strided block
			l := int64(1 + rng.Intn(256))
			st := l + int64(rng.Intn(128))
			s := storage.Strided(cursor, l, st, int64(1+rng.Intn(8)))
			place(r, op, s)
			cursor = s.End()
		case 2: // two ranks interleave one region
			r2 := rng.Intn(ranks)
			l := int64(1 + rng.Intn(128))
			n := int64(2 + rng.Intn(5))
			place(r, op, storage.Strided(cursor, l, 2*l, n))
			place(r2, rng.Intn(3), storage.Strided(cursor+l, l, 2*l, n))
			cursor += 2 * l * n
		default: // one rank interleaves two of its own operations
			l := int64(1 + rng.Intn(128))
			n := int64(2 + rng.Intn(5))
			place(r, 0, storage.Strided(cursor, l, 2*l, n))
			place(r, 1+rng.Intn(2), storage.Strided(cursor+l, l, 2*l, n))
			cursor += 2 * l * n
		}
		cursor += int64(rng.Intn(64)) // occasional holes
	}
	return decl
}

// backend bundles one storage system under test with its topology/fabric.
type backend struct {
	name  string
	ranks int
	rpn   int
	build func() (storage.System, *netsim.Fabric)
}

func dataPlaneBackends() []backend {
	return []backend{
		{"nullfs", 16, 2, func() (storage.System, *netsim.Fabric) {
			topo := topology.NewFlat(8)
			return storage.NewNullFS(), netsim.New(topo, netsim.Config{Contention: netsim.ContentionLinks})
		}},
		{"lustre", 16, 2, func() (storage.System, *netsim.Fabric) {
			topo := topology.ThetaDragonfly(8, topology.RouteMinimal)
			fab := netsim.New(topo, netsim.Config{})
			return storage.NewLustre(topo, fab, storage.LustreConfig{NumOST: 8}), fab
		}},
		{"gpfs", 128, 1, func() (storage.System, *netsim.Fabric) {
			topo := topology.MiraTorus(128)
			fab := netsim.New(topo, netsim.Config{})
			return storage.NewGPFS(topo, fab, storage.GPFSConfig{}), fab
		}},
		{"burstbuffer", 16, 2, func() (storage.System, *netsim.Fabric) {
			topo := topology.ThetaDragonfly(8, topology.RouteMinimal)
			fab := netsim.New(topo, netsim.Config{})
			lustre := storage.NewLustre(topo, fab, storage.LustreConfig{NumOST: 8})
			return storage.NewBurstBuffer(lustre, storage.BurstBufferConfig{}), fab
		}},
	}
}

// TestDataPlaneRoundTrip is the acceptance property: a multi-rank random
// strided write with the data plane enabled, followed by a fresh read
// session over the same pattern, returns byte-identical data on every
// backend — checked run-by-run (workload.VerifyData), by per-rank checksum
// parity (write session vs read session vs backing store), and with
// multiple aggregation rounds in flight (small buffers).
func TestDataPlaneRoundTrip(t *testing.T) {
	trials := 3
	if testing.Short() || raceEnabledCore {
		trials = 1
	}
	for _, be := range dataPlaneBackends() {
		be := be
		t.Run(be.name, func(t *testing.T) {
			for trial := 0; trial < trials; trial++ {
				seed := int64(1000*trial) + 17
				rng := rand.New(rand.NewSource(seed))
				decl := genDeclared(rng, be.ranks, be.ranks*3)
				sys, fab := be.build()
				var mu sync.Mutex
				var failures []string
				fail := func(format string, args ...any) {
					mu.Lock()
					failures = append(failures, fmt.Sprintf(format, args...))
					mu.Unlock()
				}
				_, err := mpi.Run(mpi.Config{Ranks: be.ranks, RanksPerNode: be.rpn, Fabric: fab}, func(c *mpi.Comm) {
					var f *storage.File
					if c.Rank() == 0 {
						f = sys.Create("roundtrip", storage.FileOptions{StripeCount: 4, StripeSize: 16 << 10})
					}
					f = c.Bcast(0, 8, f).(*storage.File)
					mine := decl[c.Rank()]
					data := workload.FillData(mine, uint64(seed))
					cfg := Config{Aggregators: 4, BufferSize: 8 << 10, SingleBuffer: trial%2 == 1}

					w := New(c, sys, f, cfg)
					if err := w.InitData(mine, data); err != nil {
						fail("rank %d InitData(write): %v", c.Rank(), err)
						return
					}
					if err := w.WriteAll(); err != nil {
						fail("rank %d WriteAll: %v", c.Rank(), err)
						return
					}
					writeCRC := w.DataChecksum()
					c.Barrier()

					rbuf := make([][]byte, len(data))
					for i := range data {
						rbuf[i] = make([]byte, len(data[i]))
					}
					r := New(c, sys, f, cfg)
					if err := r.InitData(mine, rbuf); err != nil {
						fail("rank %d InitData(read): %v", c.Rank(), err)
						return
					}
					if err := r.ReadAll(); err != nil {
						fail("rank %d ReadAll: %v", c.Rank(), err)
						return
					}
					if err := workload.VerifyData(mine, uint64(seed), rbuf); err != nil {
						fail("rank %d read-back: %v", c.Rank(), err)
					}
					if got := r.DataChecksum(); got != writeCRC {
						fail("rank %d checksum: wrote %#x, read %#x", c.Rank(), writeCRC, got)
					}
					// Store-side checksum over the rank's extents in file-offset
					// run order (the Plane's checksum order): enumerate and sort.
					var runs []storage.Seg
					for _, segs := range mine {
						storage.Enumerate(segs, 1<<20, func(off, length int64) {
							runs = append(runs, storage.Contig(off, length))
						})
					}
					sort.Slice(runs, func(i, j int) bool { return runs[i].Off < runs[j].Off })
					if crc, err := f.StoreChecksum(runs); err != nil {
						fail("rank %d StoreChecksum: %v", c.Rank(), err)
					} else if crc != writeCRC {
						fail("rank %d store checksum %#x != write checksum %#x", c.Rank(), crc, writeCRC)
					}
					c.Barrier()
				})
				for _, f := range failures {
					t.Error(f)
				}
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if t.Failed() {
					t.Fatalf("trial %d (seed %d) failed", trial, seed)
				}
			}
		})
	}
}

// TestDataPlaneCodecRoundTrip writes and reads back real bytes through the
// full pipeline over both MemStore (default) and an on-disk FileStore, and
// with a single buffer: VerifyData and checksum parity against the store
// prove every round's bytes landed intact.
func TestDataPlaneCodecRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		backing string
		single  bool
	}{{"memstore", false}, {"filestore", false}, {"memstore", true}} {
		backing, single := tc.backing, tc.single
		name := backing
		if single {
			name += "-single"
		}
		t.Run(name, func(t *testing.T) {
			const ranks, rpn = 16, 2
			seed := int64(4242)
			rng := rand.New(rand.NewSource(seed))
			decl := genDeclared(rng, ranks, ranks*3)
			topo := topology.ThetaDragonfly(8, topology.RouteMinimal)
			fab := netsim.New(topo, netsim.Config{})
			sys := storage.NewLustre(topo, fab, storage.LustreConfig{NumOST: 8})
			dir := t.TempDir()
			var mu sync.Mutex
			var failures []string
			fail := func(format string, args ...any) {
				mu.Lock()
				failures = append(failures, fmt.Sprintf(format, args...))
				mu.Unlock()
			}
			_, err := mpi.Run(mpi.Config{Ranks: ranks, RanksPerNode: rpn, Fabric: fab}, func(c *mpi.Comm) {
				var f *storage.File
				if c.Rank() == 0 {
					f = sys.Create("roundtrip", storage.FileOptions{StripeCount: 4, StripeSize: 16 << 10})
					if backing == "filestore" {
						fs, err := storage.NewFileStore(dir + "/roundtrip.bin")
						if err != nil {
							panic(err)
						}
						f.SetStore(fs)
					}
				}
				f = c.Bcast(0, 8, f).(*storage.File)
				mine := decl[c.Rank()]
				data := workload.FillData(mine, uint64(seed))
				cfg := Config{Aggregators: 4, BufferSize: 8 << 10, SingleBuffer: single}

				w := New(c, sys, f, cfg)
				if err := w.InitData(mine, data); err != nil {
					fail("rank %d InitData(write): %v", c.Rank(), err)
					return
				}
				if err := w.WriteAll(); err != nil {
					fail("rank %d WriteAll: %v", c.Rank(), err)
					return
				}
				writeCRC := w.DataChecksum()
				c.Barrier()

				rbuf := make([][]byte, len(data))
				for i := range data {
					rbuf[i] = make([]byte, len(data[i]))
				}
				r := New(c, sys, f, cfg)
				if err := r.InitData(mine, rbuf); err != nil {
					fail("rank %d InitData(read): %v", c.Rank(), err)
					return
				}
				if err := r.ReadAll(); err != nil {
					fail("rank %d ReadAll: %v", c.Rank(), err)
					return
				}
				if err := workload.VerifyData(mine, uint64(seed), rbuf); err != nil {
					fail("rank %d read-back: %v", c.Rank(), err)
				}
				if got := r.DataChecksum(); got != writeCRC {
					fail("rank %d checksum: wrote %#x, read %#x", c.Rank(), writeCRC, got)
				}
				var runs []storage.Seg
				for _, segs := range mine {
					storage.Enumerate(segs, 1<<20, func(off, length int64) {
						runs = append(runs, storage.Contig(off, length))
					})
				}
				sort.Slice(runs, func(i, j int) bool { return runs[i].Off < runs[j].Off })
				if crc, err := f.StoreChecksum(runs); err != nil {
					fail("rank %d StoreChecksum: %v", c.Rank(), err)
				} else if crc != writeCRC {
					fail("rank %d store checksum %#x != write checksum %#x", c.Rank(), crc, writeCRC)
				}
				c.Barrier()
			})
			for _, f := range failures {
				t.Error(f)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDataPlaneModeMismatch: a rank attaching payload buffers while the
// session plan was built phantom is a collective misuse that must surface
// as a descriptive error — and Init still completes the collective setup
// (Split, WinCreate are comm-wide), so the agreeing ranks neither hang nor
// crash and the session can even finish as a phantom run.
func TestDataPlaneModeMismatch(t *testing.T) {
	topo := topology.NewFlat(2)
	fab := netsim.New(topo, netsim.Config{})
	sys := storage.NewNullFS()
	var mu sync.Mutex
	errs := map[int]error{}
	_, err := mpi.Run(mpi.Config{Ranks: 2, RanksPerNode: 1, Fabric: fab}, func(c *mpi.Comm) {
		f := sys.Lookup("f")
		if c.Rank() == 0 && f == nil {
			f = sys.Create("f", storage.FileOptions{})
		}
		f = c.Bcast(0, 8, f).(*storage.File)
		w := New(c, sys, f, Config{Aggregators: 1})
		decl := [][]storage.Seg{{storage.Contig(int64(c.Rank())*100, 100)}}
		var err error
		if c.Rank() == 0 {
			err = w.InitData(decl, [][]byte{make([]byte, 100)})
		} else {
			err = w.Init(decl)
		}
		mu.Lock()
		errs[c.Rank()] = err
		mu.Unlock()
		// Even an application that ignores the error must not hang or
		// nil-deref: the session degrades to phantom and completes.
		if werr := w.WriteAll(); werr != nil {
			panic(werr)
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	mismatches := 0
	for r, e := range errs {
		if e == nil {
			continue
		}
		if !strings.Contains(e.Error(), "data-plane mode is collective") {
			t.Fatalf("rank %d: unexpected error %v", r, e)
		}
		mismatches++
	}
	if mismatches == 0 {
		t.Fatal("no rank reported the data-plane mode mismatch")
	}
}
