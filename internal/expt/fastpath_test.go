package expt

import (
	"reflect"
	"testing"
	"time"

	"tapioca/internal/fault"
	"tapioca/internal/netsim"
	"tapioca/internal/storage"
	"tapioca/internal/topology"
	"tapioca/internal/tree"
)

// TestFastPathsMatchReference is the equivalence contract of the transfer
// fast paths: with the netsim path cache and segment compaction disabled
// (the uncoalesced reference behaviour of a netsim.Config.Reference fabric),
// every figure must produce a byte-identical Result to the optimized run.
// The covered subset spans both platforms (torus/GPFS, dragonfly/Lustre),
// both I/O stacks (TAPIOCA, MPI-IO), reads and writes, and both contention
// models.
func TestFastPathsMatchReference(t *testing.T) {
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
			reference, _ := s.Run(Env{Workers: 1, reference: true})

			// The optimized run executes with the flight recorder live and a
			// zero-rate fault profile armed, so this equivalence also asserts
			// that tracing and the fault-plane plumbing perturb nothing on
			// the zero-fault path.
			zero := fault.Profile(7, 0)
			optimized, _ := s.Run(Env{Workers: 1, Faults: &zero, Observer: NewObserver(true)})
			if !reflect.DeepEqual(reference, optimized) {
				t.Fatalf("optimized run diverged from uncached/uncompacted reference:\nref: %+v\nopt: %+v", reference, optimized)
			}

			// The degenerate-tree leg: arming the flat tree shape routes every
			// cell through the aggregation-tree config path (and the MPI-IO
			// Tree hint), which must collapse to exactly the default pipeline
			// — byte-identical figures.
			treed, _ := s.Run(Env{Workers: 1, Tree: &tree.Shape{Kind: tree.Flat}})
			if !reflect.DeepEqual(reference, treed) {
				t.Fatalf("degenerate flat tree shape diverged from reference:\nref: %+v\ntree: %+v", reference, treed)
			}
		})
	}
}

// TestRigsWireReference guards the expt half of the reference wiring: every
// rig builder hands Env.reference to its fabric. A builder that dropped it
// would make TestFastPathsMatchReference compare a figure's optimized run
// with itself.
func TestRigsWireReference(t *testing.T) {
	t.Parallel()
	for _, ref := range []bool{false, true} {
		env := Env{reference: ref}
		rigs := map[string]*rig{
			"mira":           miraRig(env, 256, 1, storage.LockShared),
			"theta":          thetaRig(env, 64, 2, topology.RouteMinimal, 8),
			"chaos":          chaosRig(env, 64, 2, 8),
			"abl-contention": contentionRig(env, 64, 2, 8, netsim.ContentionEndpoint),
		}
		for name, r := range rigs {
			if got := r.fab.Config().Reference; got != ref {
				t.Errorf("%s rig: fabric Reference = %v, want %v", name, got, ref)
			}
		}
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
