package mpi

import (
	"bytes"
	"strings"
	"testing"

	"tapioca/internal/netsim"
	"tapioca/internal/sim"
	"tapioca/internal/topology"
)

// testConfig returns a small flat-topology MPI job config.
func testConfig(ranks, ranksPerNode int) Config {
	nodes := (ranks + ranksPerNode - 1) / ranksPerNode
	topo := topology.NewFlat(nodes)
	return Config{
		Ranks:        ranks,
		RanksPerNode: ranksPerNode,
		Fabric:       netsim.New(topo, netsim.Config{Contention: netsim.ContentionLinks}),
	}
}

func TestRunRankIdentity(t *testing.T) {
	const n = 8
	seen := make([]bool, n)
	_, err := Run(testConfig(n, 2), func(c *Comm) {
		if c.Size() != n {
			t.Errorf("size = %d", c.Size())
		}
		if c.WorldRank() != c.Rank() {
			t.Errorf("world rank %d != rank %d on world comm", c.WorldRank(), c.Rank())
		}
		if c.Node() != c.Rank()/2 {
			t.Errorf("rank %d on node %d, want %d", c.Rank(), c.Node(), c.Rank()/2)
		}
		seen[c.Rank()] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, ok := range seen {
		if !ok {
			t.Fatalf("rank %d did not run", r)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, _, err := NewWorld(Config{Ranks: 0}); err == nil {
		t.Error("expected error for zero ranks")
	}
	if _, _, err := NewWorld(Config{Ranks: 4}); err == nil {
		t.Error("expected error for missing fabric")
	}
	cfg := testConfig(4, 1)
	cfg.NodeOf = func(rank int) int { return 99 }
	if _, _, err := NewWorld(cfg); err == nil {
		t.Error("expected error for out-of-range node mapping")
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	const n = 6
	var releases []int64
	_, err := Run(testConfig(n, 1), func(c *Comm) {
		c.Compute(int64(c.Rank()) * 1000)
		c.Barrier()
		releases = append(releases, c.Now())
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range releases[1:] {
		if r != releases[0] {
			t.Fatalf("ranks released at different times: %v", releases)
		}
	}
	if releases[0] < int64(n-1)*1000 {
		t.Fatalf("release %d before last arrival", releases[0])
	}
}

func TestBcast(t *testing.T) {
	_, err := Run(testConfig(5, 1), func(c *Comm) {
		var payload any
		if c.Rank() == 2 {
			payload = []int{1, 2, 3}
		}
		got := c.Bcast(2, 100, payload)
		v := got.([]int)
		if len(v) != 3 || v[0] != 1 {
			t.Errorf("rank %d got %v", c.Rank(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceOps(t *testing.T) {
	_, err := Run(testConfig(4, 1), func(c *Comm) {
		v := float64(c.Rank() + 1)
		if got := c.AllreduceF64(OpSum, v); got != 10 {
			t.Errorf("sum = %v", got)
		}
		if got := c.AllreduceF64(OpMin, v); got != 1 {
			t.Errorf("min = %v", got)
		}
		if got := c.AllreduceF64(OpMax, v); got != 4 {
			t.Errorf("max = %v", got)
		}
		if got := c.AllreduceI64(OpSum, int64(c.Rank())); got != 6 {
			t.Errorf("isum = %v", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceMinLoc(t *testing.T) {
	_, err := Run(testConfig(5, 1), func(c *Comm) {
		costs := []float64{5, 3, 9, 3, 7} // tie between ranks 1 and 3
		v, loc := c.AllreduceMinLoc(costs[c.Rank()], c.Rank())
		if v != 3 || loc != 1 {
			t.Errorf("minloc = (%v, %d), want (3, 1)", v, loc)
		}
		vm, lm := c.AllreduceMaxLoc(costs[c.Rank()], c.Rank())
		if vm != 9 || lm != 2 {
			t.Errorf("maxloc = (%v, %d), want (9, 2)", vm, lm)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMismatchedCollectivesPanic(t *testing.T) {
	_, err := Run(testConfig(2, 1), func(c *Comm) {
		if c.Rank() == 0 {
			c.Barrier()
		} else {
			c.AllreduceF64(OpSum, 1)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "mismatched collectives") {
		t.Fatalf("err = %v", err)
	}
}

func TestSplitByParity(t *testing.T) {
	const n = 8
	_, err := Run(testConfig(n, 1), func(c *Comm) {
		sub := c.Split(c.Rank()%2, c.Rank())
		if sub.Size() != n/2 {
			t.Errorf("sub size = %d", sub.Size())
		}
		if sub.WorldRank() != c.Rank() {
			t.Errorf("world rank mangled: %d vs %d", sub.WorldRank(), c.Rank())
		}
		if want := c.Rank() / 2; sub.Rank() != want {
			t.Errorf("sub rank = %d, want %d", sub.Rank(), want)
		}
		// The subcommunicator must work for collectives.
		sum := sub.AllreduceI64(OpSum, int64(c.Rank()))
		want := int64(0 + 2 + 4 + 6)
		if c.Rank()%2 == 1 {
			want = 1 + 3 + 5 + 7
		}
		if sum != want {
			t.Errorf("sub allreduce = %d, want %d", sum, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitNegativeColorOptsOut(t *testing.T) {
	_, err := Run(testConfig(4, 1), func(c *Comm) {
		color := 0
		if c.Rank() == 3 {
			color = -1
		}
		sub := c.Split(color, 0)
		if c.Rank() == 3 {
			if sub != nil {
				t.Error("rank 3 should have no subcomm")
			}
			return
		}
		if sub.Size() != 3 {
			t.Errorf("sub size = %d", sub.Size())
		}
		sub.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitKeyOrdersRanks(t *testing.T) {
	const n = 4
	_, err := Run(testConfig(n, 1), func(c *Comm) {
		// Reverse order via key.
		sub := c.Split(0, n-c.Rank())
		if want := n - 1 - c.Rank(); sub.Rank() != want {
			t.Errorf("rank %d got sub rank %d, want %d", c.Rank(), sub.Rank(), want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCarveCostsNothing checks a carved communicator works for collectives,
// that building and handing it over inside an existing Bcast adds no
// virtual time, and that CollectivePriced releases at the caller's price.
func TestCarveCostsNothing(t *testing.T) {
	const n = 8
	members := []int{6, 1, 3}
	bcastEnd := func(carve bool) int64 {
		var end int64
		_, err := Run(testConfig(n, 2), func(c *Comm) {
			var payload any
			if c.Rank() == 0 {
				payload = []*Comm{}
				if carve {
					payload = c.Carve(members)
				}
			}
			hs := c.Bcast(0, 24, payload).([]*Comm)
			if c.Rank() == 0 {
				end = c.Now()
			}
			if !carve {
				return
			}
			for i, r := range members {
				if r != c.Rank() {
					continue
				}
				sub := c.Adopt(hs[i])
				if sub.Rank() != i || sub.Size() != 3 || sub.WorldRank() != r {
					t.Errorf("rank %d: carved rank %d/%d world %d", r, sub.Rank(), sub.Size(), sub.WorldRank())
				}
				if sum := sub.AllreduceI64(OpSum, int64(r)); sum != 10 {
					t.Errorf("carved allreduce = %d, want 10", sum)
				}
				at := c.Now()
				got := sub.CollectivePriced("test-priced", int64(r), func(contribs []any, maxT int64) (any, int64) {
					return contribs[0].(int64) + contribs[1].(int64) + contribs[2].(int64), c.TreeCost(maxT, 0) + 5
				})
				if got.(int64) != 10 {
					t.Errorf("priced collective result = %v, want 10", got)
				}
				if want := c.TreeCost(at, 0) + 5; c.Now() != want {
					t.Errorf("priced release at %d, want %d (world-priced barrier + 5)", c.Now(), want)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	if plain, carved := bcastEnd(false), bcastEnd(true); carved != plain {
		t.Fatalf("Bcast carrying a carved comm released at %d, plain at %d", carved, plain)
	}
}

// TestNodeMembership checks the cached node-peer counts and node count on
// the world and on a split communicator with uneven node occupancy.
func TestNodeMembership(t *testing.T) {
	const n = 8
	_, err := Run(testConfig(n, 3), func(c *Comm) { // nodes hold 3, 3, 2 ranks
		if got := c.Nodes(); got != 3 {
			t.Errorf("world nodes = %d, want 3", got)
		}
		want := 3
		if c.Node() == 2 {
			want = 2
		}
		if got := c.NodePeers(c.Rank()); got != want {
			t.Errorf("rank %d node peers = %d, want %d", c.Rank(), got, want)
		}
		odd := c.Split(c.Rank()%2, c.Rank()) // odd ranks 1,3,5,7 → nodes 0,1,1,2
		if c.Rank()%2 == 1 {
			if got := odd.Nodes(); got != 3 {
				t.Errorf("odd comm nodes = %d, want 3", got)
			}
			if got := odd.NodePeers(1); got != 2 {
				t.Errorf("odd comm rank 1 (world 3) node peers = %d, want 2", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveTimeAdvances(t *testing.T) {
	_, err := Run(testConfig(16, 4), func(c *Comm) {
		before := c.Now()
		c.Barrier()
		if c.Now() <= before {
			t.Error("barrier consumed no virtual time")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicEndToEnd(t *testing.T) {
	run := func() int64 {
		eng, err := Run(testConfig(12, 3), func(c *Comm) {
			c.Compute(int64(c.Rank()%3) * 500)
			c.AllreduceI64(OpSum, int64(c.Rank()))
			w := c.WinCreate(4096)
			// Every rank but the first puts into its left neighbour's window.
			var free int64
			if c.Rank() > 0 {
				free = w.PutGather(c.Rank()-1, 0, 4096, nil)
			}
			w.FenceAfter(free)
			c.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng.Now()
	}
	t1, t2 := run(), run()
	if t1 != t2 {
		t.Fatalf("non-deterministic end time: %d vs %d", t1, t2)
	}
	if t1 == 0 {
		t.Fatal("simulation consumed no time")
	}
}

// TestWinPutFence: ranks 1 and 2 put real bytes with a copy fill and rank 3
// a phantom put with a nil fill. After the fence the real bytes sit in rank
// 0's window memory, and the captured spans carry them; the phantom span
// carries none.
func TestWinPutFence(t *testing.T) {
	_, err := Run(testConfig(4, 1), func(c *Comm) {
		w := c.WinCreate(1 << 20)
		w.SetCapture(true)
		var free int64
		if r := c.Rank(); r != 0 {
			var fill func([]byte)
			if r != 3 {
				src := bytes.Repeat([]byte{byte(r)}, 1000)
				fill = func(dst []byte) { copy(dst, src) }
			}
			free = w.PutGather(0, int64(r-1)*1000, 1000, fill)
		}
		w.FenceAfter(free)
		if c.Rank() == 0 {
			if got := capturedBytes(w, 0); got != 3000 {
				t.Errorf("fill = %d, want 3000", got)
			}
			spans := w.CapturedWrites(0)
			if len(spans) != 3 {
				t.Fatalf("captured %d spans", len(spans))
			}
			mem := w.LocalData()
			for i, s := range spans {
				if s.Offset != int64(i)*1000 || s.Bytes != 1000 || s.From != i+1 {
					t.Errorf("span %d = %+v", i, s)
				}
				if s.From == 3 {
					if s.Payload != nil || mem[s.Offset] != 0 {
						t.Errorf("phantom put carried bytes: span payload %d bytes, window byte %d", len(s.Payload), mem[s.Offset])
					}
					continue
				}
				want := bytes.Repeat([]byte{byte(s.From)}, 1000)
				if !bytes.Equal(s.Payload, want) {
					t.Errorf("span %d payload does not hold rank %d's bytes", i, s.From)
				}
				if !bytes.Equal(mem[s.Offset:s.Offset+s.Bytes], want) {
					t.Errorf("window memory at %d does not hold rank %d's bytes", s.Offset, s.From)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFenceWaitsForPutArrival(t *testing.T) {
	// A fence must release no earlier than the arrival of the largest put.
	const bytes = 50_000_000 // 50 MB over 1 GB/s links: 50 ms
	_, err := Run(testConfig(2, 1), func(c *Comm) {
		w := c.WinCreate(bytes)
		var free int64
		if c.Rank() == 1 {
			free = w.PutGather(0, 0, bytes, nil)
		}
		release := w.FenceAfter(free)
		if release < sim.TransferTime(bytes, 1e9) {
			t.Errorf("fence released at %d, before put arrival", release)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPutIsAsyncForSender: a put leaves the sender's clock alone and
// returns when its injection ends; the fence entered at that instant
// releases no earlier.
func TestPutIsAsyncForSender(t *testing.T) {
	const bytes = 100_000_000
	_, err := Run(testConfig(2, 1), func(c *Comm) {
		w := c.WinCreate(bytes)
		var free int64
		if c.Rank() == 1 {
			before := c.Now()
			free = w.PutGather(0, 0, bytes, nil)
			if c.Now() != before {
				t.Errorf("put moved the sender's clock from %d to %d", before, c.Now())
			}
			if free < before+sim.TransferTime(bytes, 1e9) {
				t.Errorf("sender free at %d, before its injection ends", free)
			}
		}
		if rel := w.FenceAfter(free); rel < free {
			t.Errorf("fence released at %d, before the sender was free at %d", rel, free)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPutOutOfWindowPanics(t *testing.T) {
	_, err := Run(testConfig(2, 1), func(c *Comm) {
		w := c.WinCreate(100)
		if c.Rank() == 1 {
			w.PutGather(0, 50, 100, nil)
		}
		w.Fence()
	})
	if err == nil || !strings.Contains(err.Error(), "outside window") {
		t.Fatalf("err = %v", err)
	}
}

func TestGetThenFence(t *testing.T) {
	_, err := Run(testConfig(2, 1), func(c *Comm) {
		w := c.WinCreate(4096)
		if c.Rank() == 0 {
			w.GetScatter(1, 0, 4096, nil)
		}
		rel := w.Fence()
		if rel <= 0 {
			t.Errorf("fence release = %d", rel)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// capturedBytes sums the bytes of every captured span targeting rank r,
// across all epochs so far.
func capturedBytes(w *Win, r int) int64 {
	var n int64
	for _, s := range w.CapturedWrites(r) {
		n += s.Bytes
	}
	return n
}

func TestMultipleEpochs(t *testing.T) {
	const rounds = 4
	_, err := Run(testConfig(3, 1), func(c *Comm) {
		w := c.WinCreate(1 << 16)
		w.SetCapture(true)
		var before int64 // rank 0's captured bytes before this epoch
		for r := 0; r < rounds; r++ {
			var free int64
			if c.Rank() != 0 {
				free = w.PutGather(0, 0, 1<<10, nil)
			}
			w.FenceAfter(free)
			if c.Rank() == 0 {
				// Exactly this epoch's two puts, none carried over from the
				// last epoch and none yet from the next.
				total := capturedBytes(w, 0)
				if got := total - before; got != 2<<10 {
					t.Errorf("round %d fill = %d", r, got)
				}
				before = total
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRanksOnTorusNodes(t *testing.T) {
	topo := topology.MiraTorus(128)
	fab := netsim.New(topo, netsim.Config{Contention: netsim.ContentionLinks})
	cfg := Config{Ranks: 256, RanksPerNode: 2, Fabric: fab}
	_, err := Run(cfg, func(c *Comm) {
		if c.Node() != c.Rank()/2 {
			t.Errorf("rank %d node %d", c.Rank(), c.Node())
		}
		// Neighbour puts across the whole torus, closed by one fence.
		w := c.WinCreate(1024)
		w.SetCapture(true)
		next := (c.Rank() + 1) % c.Size()
		w.FenceAfter(w.PutGather(next, 0, 1024, nil))
		if got := capturedBytes(w, c.Rank()); got != 1024 {
			t.Errorf("rank %d window fill %d, want 1024", c.Rank(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
