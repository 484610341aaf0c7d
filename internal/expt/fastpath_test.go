package expt

import (
	"reflect"
	"testing"
	"time"

	"tapioca/internal/fault"
	"tapioca/internal/tree"
)

// TestTracedAndFlatTreeRunsMatchPlain: a figure run with the flight
// recorder live and a zero-rate fault profile armed, and one run with the
// degenerate flat tree shape, must each produce a byte-identical Result to
// the plain serial run. The covered subset spans both platforms
// (torus/GPFS, dragonfly/Lustre), both I/O stacks (TAPIOCA, MPI-IO), reads
// and writes, and both contention models. The transfer fast paths under
// these runs are pinned by their own layers' oracles.
func TestTracedAndFlatTreeRunsMatchPlain(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment grid")
	}
	t.Parallel()
	subset := []string{"fig7", "fig10", "fig11", "table1", "abl-contention"}
	if raceEnabled {
		subset = []string{"fig10"}
	}
	for _, id := range subset {
		s := ByID(id)
		if s == nil {
			t.Fatalf("unknown spec %q", id)
		}
		t.Run(id, func(t *testing.T) {
			plain, _ := s.Run(Env{Workers: 1})

			// Tracing and the fault-plane plumbing must perturb nothing on
			// the zero-fault path.
			zero := fault.Profile(7, 0)
			traced, _ := s.Run(Env{Workers: 1, Faults: &zero, Observer: NewObserver(true)})
			if !reflect.DeepEqual(plain, traced) {
				t.Fatalf("traced zero-fault run diverged from the plain run:\nplain: %+v\ntraced: %+v", plain, traced)
			}

			// The degenerate-tree leg: arming the flat tree shape routes every
			// cell through the aggregation-tree config path (and the MPI-IO
			// Tree hint), which must collapse to exactly the default pipeline
			// — byte-identical figures.
			treed, _ := s.Run(Env{Workers: 1, Tree: &tree.Shape{Kind: tree.Flat}})
			if !reflect.DeepEqual(plain, treed) {
				t.Fatalf("degenerate flat tree shape diverged from the plain run:\nplain: %+v\ntree: %+v", plain, treed)
			}
		})
	}
}

// TestFullScaleSmoke keeps the paper-scale path honest in every CI run,
// including -short: one registered full-scale figure (fig10-full: 512 nodes
// × 16 ranks = 8,192 simulated ranks on the Theta dragonfly) must complete
// within a hard time budget and report a sane shape. The budget is generous
// — the point is catching order-of-magnitude regressions of the per-message
// path, which would blow straight through it.
func TestFullScaleSmoke(t *testing.T) {
	t.Parallel()
	budget := 4 * time.Minute
	if raceEnabled {
		budget = 20 * time.Minute // race-built simulations run ~10-20x slower
	}
	s := ByID("fig10-full")
	if s == nil {
		t.Fatal("fig10-full not registered")
	}
	start := time.Now()
	res, _ := s.Run(Env{})
	elapsed := time.Since(start)
	if elapsed > budget {
		t.Fatalf("fig10-full took %v, budget %v", elapsed, budget)
	}
	if len(res.Rows) == 0 || len(res.Rows[0].Values) != 2 {
		t.Fatalf("unexpected shape: %+v", res)
	}
	for _, row := range res.Rows {
		for i, v := range row.Values {
			if v <= 0 {
				t.Fatalf("row %v series %d: %v GB/s", row.X, i, v)
			}
		}
	}
	t.Logf("fig10-full (8192 ranks, %d cells) in %v", len(res.Rows)*2, elapsed)
}
