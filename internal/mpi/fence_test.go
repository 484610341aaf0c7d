package mpi

import (
	"strings"
	"testing"
)

// fenceSchedule is the aggregation-like workload the sparse-fence tests
// replay: rank 0 owns the window target and does some local work after every
// release (a flush), and rank i > 0 puts into it only in the epochs where
// puts(i, e) holds.
const (
	fenceRanks  = 8
	fenceEpochs = 12
)

func puts(rank, epoch int) bool { return rank > 0 && (rank+epoch)%5 == 0 }

// attends is the participation rule of the TAPIOCA write pipeline: the
// target, plus every rank putting in epoch e or e+1.
func attends(rank, epoch int) bool {
	return rank == 0 || puts(rank, epoch) || (epoch+1 < fenceEpochs && puts(rank, epoch+1))
}

// runFenceSchedule runs the schedule with every rank at every fence, or
// (sparse) with each fence attended only by the ranks attends names. It
// returns rank 0's release time per epoch and the engine's end time.
func runFenceSchedule(t *testing.T, sparse bool) ([]int64, int64) {
	t.Helper()
	releases := make([]int64, fenceEpochs)
	eng, err := Run(testConfig(fenceRanks, 2), func(c *Comm) {
		w := c.WinCreate(1 << 20)
		for e := 0; e < fenceEpochs; e++ {
			if sparse && !attends(c.Rank(), e) {
				w.SkipFences(1)
				continue
			}
			var free int64
			if puts(c.Rank(), e) {
				free = w.PutGather(0, int64(c.Rank())<<10, int64(c.Rank())<<10, nil)
			}
			var rel int64
			if sparse {
				n := 0
				for r := 0; r < fenceRanks; r++ {
					if attends(r, e) {
						n++
					}
				}
				rel = w.FenceOf(n, free)
			} else {
				rel = w.FenceAfter(free)
			}
			if c.Rank() == 0 {
				releases[e] = rel
				c.Compute(int64(3000 + 700*(e%4)))
			}
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	return releases, eng.Now()
}

// TestSparseFenceMatchesFullFence: a fence attended only by the ranks that
// move data around it releases at exactly the instant the all-rank Fence
// gives on a twin run, epoch by epoch, and the job ends at the same time.
func TestSparseFenceMatchesFullFence(t *testing.T) {
	full, fullEnd := runFenceSchedule(t, false)
	sparse, sparseEnd := runFenceSchedule(t, true)
	for e := range full {
		if full[e] != sparse[e] {
			t.Errorf("epoch %d: sparse fence released at %d, full fence at %d", e, sparse[e], full[e])
		}
	}
	if fullEnd != sparseEnd {
		t.Errorf("end %d with sparse fences, %d with full fences", sparseEnd, fullEnd)
	}
}

// TestFenceEarlyArrivalHeld: a rank that skipped epoch 0 arrives at epoch 1's
// gate while epoch 0 is still open. It must be held until epoch 1 releases —
// after epoch 0, priced from epoch 1's latest arrival.
func TestFenceEarlyArrivalHeld(t *testing.T) {
	const late = 50_000
	var rel0, rel1 [3]int64
	_, err := Run(testConfig(3, 1), func(c *Comm) {
		w := c.WinCreate(1 << 10)
		if c.Rank() == 2 {
			w.SkipFences(1)
			rel1[2] = w.FenceOf(3, 0)
			return
		}
		if c.Rank() == 1 {
			c.Compute(late)
		}
		rel0[c.Rank()] = w.FenceOf(2, 0)
		if c.Rank() == 0 {
			c.Compute(late)
		}
		rel1[c.Rank()] = w.FenceOf(3, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel0[0] != rel0[1] || rel0[0] <= late {
		t.Fatalf("epoch 0 releases %v, want equal and after %d", rel0[:2], late)
	}
	if rel1[0] != rel1[1] || rel1[1] != rel1[2] {
		t.Fatalf("epoch 1 releases %v, want all equal", rel1)
	}
	if rel1[2] <= rel0[0]+late {
		t.Fatalf("early arrival released at %d, before epoch 1's last arrival at %d", rel1[2], rel0[0]+late)
	}
}

// TestFenceWrongCountDiagnosed: an arrival count that never fills the gate
// must end in the engine's deadlock error naming the fence, and one that
// fills it early must fail the straggler — never a hang.
func TestFenceWrongCountDiagnosed(t *testing.T) {
	_, err := Run(testConfig(3, 1), func(c *Comm) {
		w := c.WinCreate(1 << 10)
		if c.Rank() == 2 {
			w.SkipFences(1)
			return
		}
		w.FenceOf(3, 0) // counts rank 2, which skips
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") || !strings.Contains(err.Error(), fenceKind) {
		t.Fatalf("err = %v, want a deadlock naming %s", err, fenceKind)
	}
	_, err = Run(testConfig(3, 1), func(c *Comm) {
		w := c.WinCreate(1 << 10)
		if c.Rank() == 2 {
			c.Compute(1000)
		}
		w.FenceOf(2, 0) // three arrivals at a gate of two
	})
	if err == nil || !strings.Contains(err.Error(), "already released") {
		t.Fatalf("err = %v, want the late arrival diagnosed", err)
	}
}

// TestFenceOutOfOrderReleasePanics: a gate cannot release while an earlier
// epoch is still open.
func TestFenceOutOfOrderReleasePanics(t *testing.T) {
	_, err := Run(testConfig(2, 1), func(c *Comm) {
		w := c.WinCreate(1 << 10)
		if c.Rank() == 0 {
			w.SkipFences(1)
			w.FenceOf(1, 0)
			return
		}
		c.Compute(1000)
		w.FenceOf(1, 0)
	})
	if err == nil || !strings.Contains(err.Error(), "complete before epoch 0 released") {
		t.Fatalf("err = %v, want an out-of-order release panic", err)
	}
}

// TestFenceSteadyStateAllocs: recycled gates make a steady-state fence free
// of allocations, full and sparse alike.
func TestFenceSteadyStateAllocs(t *testing.T) {
	const runs = 50
	for _, sparse := range []bool{false, true} {
		var allocs float64
		_, err := Run(testConfig(4, 1), func(c *Comm) {
			w := c.WinCreate(1 << 10)
			fence := func() {
				if sparse {
					w.FenceOf(2, 0)
				} else {
					w.Fence()
				}
			}
			switch {
			case c.Rank() == 0:
				allocs = testing.AllocsPerRun(runs, fence)
			case !sparse || c.Rank() == 1:
				for i := 0; i <= runs; i++ { // AllocsPerRun's warm-up call, then runs
					fence()
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("sparse=%v: %.2f allocations per fence, want 0", sparse, allocs)
		}
	}
}
