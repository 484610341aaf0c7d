package mpi

import (
	"math/bits"
	"math/rand"
	"strings"
	"testing"
)

// gateOp is one step of a gate program that every rank runs in order.
type gateOp struct {
	kind  int     // one of the gateOp* kinds
	bytes int64   // per-rank payload of a collective
	mask  uint8   // fence attendance or carried ranks, by rank bit
	delay []int64 // per-rank compute before the step
}

const (
	gateOpBarrier    = iota // world Barrier
	gateOpCollective        // world Collective summing rank+1
	gateOpFence             // FenceOf by the ranks in mask (rank 0 always), SkipFences by the rest
	gateOpCarried           // the ranks in mask run CollectiveThenBarrier; the rest Collective, compute, Barrier
	gateOpSubBarrier        // Barrier on the rank-parity sub-communicator
	gateOpKinds
)

func (op gateOp) in(r int) bool { return r == 0 && op.kind == gateOpFence || op.mask&(1<<r) != 0 }

func (op gateOp) attendance(n int) int {
	return bits.OnesCount8(op.mask&uint8(1<<n-1) | 1)
}

func sumFinish(contribs []any) any {
	s := 0
	for _, x := range contribs {
		s += x.(int)
	}
	return s
}

// runGateProgram runs ops on n ranks and returns each rank's clock after
// every step, the sequential reference for those clocks, and the engine's
// park count. With plain, carried ranks run Collective then Barrier instead.
func runGateProgram(t testing.TB, n int, ops []gateOp, plain bool) (got, ref [][]int64, parks int64) {
	t.Helper()
	got = make([][]int64, n)
	start := make([]int64, n)
	var world *Comm
	subs := make([]*Comm, 2)
	eng, err := Run(testConfig(n, 2), func(c *Comm) {
		r := c.Rank()
		w := c.WinCreate(64)
		sub := c.Split(r%2, r)
		if r < 2 {
			subs[r] = sub
		}
		if r == 0 {
			world = c
		}
		start[r] = c.Now()
		got[r] = make([]int64, len(ops))
		want := n * (n + 1) / 2
		for i, op := range ops {
			d := op.delay[r]
			switch op.kind {
			case gateOpBarrier:
				c.Compute(d)
				c.Barrier()
			case gateOpCollective:
				c.Compute(d)
				if res := c.Collective("gate-test", r+1, op.bytes, sumFinish).(int); res != want {
					t.Errorf("step %d rank %d: collective result %d, want %d", i, r, res, want)
				}
			case gateOpFence:
				if !op.in(r) {
					w.SkipFences(1)
					break
				}
				c.Compute(d)
				w.FenceOf(op.attendance(n), 0)
			case gateOpCarried:
				c.Compute(d)
				var res any
				if op.in(r) && !plain {
					res = c.CollectiveThenBarrier("gate-test", r+1, op.bytes, sumFinish)
				} else {
					res = c.Collective("gate-test", r+1, op.bytes, sumFinish)
					if !op.in(r) {
						c.Compute(3 * d)
					}
					c.Barrier()
				}
				if res.(int) != want {
					t.Errorf("step %d rank %d: carried collective result %d, want %d", i, r, res, want)
				}
			case gateOpSubBarrier:
				c.Compute(d)
				sub.Barrier()
			}
			got[r][i] = c.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// The reference: every step released from its latest arrival, in order.
	ref = make([][]int64, n)
	clk := append([]int64(nil), start...)
	latest := func(in func(r int) bool, at func(r int) int64) int64 {
		m := int64(0)
		for r := range clk {
			if in(r) {
				m = max(m, at(r))
			}
		}
		return m
	}
	all := func(int) bool { return true }
	for r := range ref {
		ref[r] = make([]int64, len(ops))
	}
	for i, op := range ops {
		arrive := func(r int) int64 { return clk[r] + op.delay[r] }
		switch op.kind {
		case gateOpBarrier, gateOpCollective:
			bytes := int64(0)
			if op.kind == gateOpCollective {
				bytes = op.bytes
			}
			rel := world.TreeCost(latest(all, arrive), bytes)
			for r := range clk {
				clk[r] = rel
			}
		case gateOpFence:
			rel := world.TreeCost(latest(op.in, arrive), 0)
			for r := range clk {
				if op.in(r) {
					clk[r] = rel
				}
			}
		case gateOpCarried:
			r1 := world.TreeCost(latest(all, arrive), op.bytes)
			rel := world.TreeCost(latest(all, func(r int) int64 {
				if op.in(r) {
					return r1
				}
				return r1 + 3*op.delay[r]
			}), 0)
			for r := range clk {
				clk[r] = rel
			}
		case gateOpSubBarrier:
			for g, s := range subs {
				if s == nil {
					continue
				}
				group := func(r int) bool { return r%2 == g }
				rel := s.TreeCost(latest(group, arrive), 0)
				for r := range clk {
					if group(r) {
						clk[r] = rel
					}
				}
			}
		}
		for r := range clk {
			ref[r][i] = clk[r]
		}
	}
	return got, ref, eng.Parks()
}

// decodeGateProgram turns fuzz bytes into a rank count (2 to 8) and a
// program of at most 32 steps.
func decodeGateProgram(data []byte) (int, []gateOp) {
	if len(data) == 0 {
		return 0, nil
	}
	n := 2 + int(data[0])%7
	data = data[1:]
	var ops []gateOp
	for len(data) >= 3+n && len(ops) < 32 {
		op := gateOp{
			kind:  int(data[0]) % gateOpKinds,
			bytes: 8 * int64(data[1]%4),
			mask:  data[2],
			delay: make([]int64, n),
		}
		for r := range op.delay {
			op.delay[r] = int64(data[3+r]) * 97
		}
		ops = append(ops, op)
		data = data[3+n:]
	}
	return n, ops
}

func randomGateProgram(rng *rand.Rand, kinds []int, steps int) (int, []gateOp) {
	n := 2 + rng.Intn(7)
	ops := make([]gateOp, steps)
	for i := range ops {
		ops[i] = gateOp{kind: kinds[rng.Intn(len(kinds))], bytes: 8 * int64(rng.Intn(4)),
			mask: uint8(rng.Intn(256)), delay: make([]int64, n)}
		for r := range ops[i].delay {
			ops[i].delay[r] = rng.Int63n(20_000)
		}
	}
	return n, ops
}

func checkGateClocks(t testing.TB, got, ref [][]int64) {
	t.Helper()
	for r := range got {
		for i := range got[r] {
			if got[r][i] != ref[r][i] {
				t.Fatalf("rank %d step %d: clock %d, reference %d", r, i, got[r][i], ref[r][i])
			}
		}
	}
}

// TestCarriedArrivalMatchesBarrier: over random arrival times, a rank
// carried from a collective into the next barrier releases at the instant,
// and with the result, that parking at both gives — and parks less.
func TestCarriedArrivalMatchesBarrier(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		n, ops := randomGateProgram(rng, []int{gateOpCarried, gateOpBarrier, gateOpCollective}, 6)
		carried, ref, carriedParks := runGateProgram(t, n, ops, false)
		checkGateClocks(t, carried, ref)
		plain, _, plainParks := runGateProgram(t, n, ops, true)
		checkGateClocks(t, plain, ref)
		if carriedParks > plainParks {
			t.Fatalf("trial %d: %d parks carried, %d parked twice", trial, carriedParks, plainParks)
		}
	}
}

// TestCarriedIntoMismatchedCollectivePanics: a carried rank stands for a
// Barrier, so a next collective of another kind is a mismatch.
func TestCarriedIntoMismatchedCollectivePanics(t *testing.T) {
	_, err := Run(testConfig(3, 1), func(c *Comm) {
		if c.Rank() < 2 {
			c.CollectiveThenBarrier("gate-test", nil, 0, steadyFinish)
			return
		}
		c.Compute(1000) // arrive last, so ranks 0 and 1 are carried
		c.Collective("gate-test", nil, 0, steadyFinish)
		c.AllreduceF64(OpSum, 1)
	})
	if err == nil || !strings.Contains(err.Error(), "mismatched collectives") {
		t.Fatalf("err = %v, want a mismatched-collectives panic", err)
	}
}

// TestCarriedDeadlockNamesBarrier: a carried rank stuck in its barrier is
// reported as waiting at the barrier, not at the collective it parked in.
func TestCarriedDeadlockNamesBarrier(t *testing.T) {
	_, err := Run(testConfig(3, 1), func(c *Comm) {
		if c.Rank() < 2 {
			c.CollectiveThenBarrier("gate-plan", nil, 0, steadyFinish)
			return
		}
		c.Compute(1000)
		c.Collective("gate-plan", nil, 0, steadyFinish) // and never the barrier
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want a deadlock", err)
	}
	if msg := err.Error(); strings.Count(msg, barrierKind) != 2 || strings.Contains(msg, "gate-plan") {
		t.Fatalf("deadlock diagnostic %q, want both carried ranks at %s", msg, barrierKind)
	}
}

var steadyContrib = new(int)

func steadyFinish([]any) any { return steadyContrib }

// TestCollectiveSteadyStateAllocs: recycled gates make steady-state
// collectives free of allocations, carried ones included.
func TestCollectiveSteadyStateAllocs(t *testing.T) {
	const runs = 50
	for name, call := range map[string]func(c *Comm){
		"barrier":    func(c *Comm) { c.Barrier() },
		"collective": func(c *Comm) { c.Collective("gate-test", steadyContrib, 8, steadyFinish) },
		"carried": func(c *Comm) {
			if c.Rank() == 0 {
				c.Collective("gate-test", steadyContrib, 8, steadyFinish)
				c.Barrier()
				return
			}
			c.CollectiveThenBarrier("gate-test", steadyContrib, 8, steadyFinish)
		},
	} {
		var allocs float64
		_, err := Run(testConfig(4, 1), func(c *Comm) {
			if c.Rank() == 0 {
				c.Compute(1000) // arrive last, so the others are carried
				allocs = testing.AllocsPerRun(runs, func() { call(c) })
				return
			}
			for i := 0; i <= runs; i++ { // AllocsPerRun's warm-up call, then runs
				call(c)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("%s: %.2f allocations per call, want 0", name, allocs)
		}
	}
}

// FuzzGate drives random programs of collectives, sparse fences and carried
// arrivals on up to 8 ranks and checks every rank's release times against
// the sequential reference.
func FuzzGate(f *testing.F) {
	f.Add([]byte{6, 3, 1, 0x0f, 1, 2, 3, 4, 5, 6, 7, 8, 2, 0, 0x22, 9, 0, 0, 9, 0, 0, 9, 0, 4, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{2, 3, 2, 0xfe, 200, 0, 2, 0, 1, 0, 50, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, ops := decodeGateProgram(data)
		if n == 0 {
			return
		}
		got, ref, _ := runGateProgram(t, n, ops, false)
		checkGateClocks(t, got, ref)
	})
}
