package expt

// Tests for the chaos experiment and the fault-plane plumbing at the
// experiment layer: the abl-faults figure must be deterministic serial vs
// parallel (fault schedules are pure functions of seed and virtual time, and
// each cell owns its plan), a zero-rate armed profile must leave every
// figure byte-identical to an unarmed run, and the per-cell virtual-time
// watchdog must kill a cell as a structured CellError wrapping the engine's
// BudgetError instead of hanging the grid.

import (
	"errors"
	"flag"
	"os"
	"reflect"
	"testing"

	"tapioca/internal/fault"
	"tapioca/internal/sim"
)

// TestChaosDeterminism: the abl-faults figure — every cell carrying its own
// instantiated fault plan — produces a deeply equal Result (rows, notes,
// recovery-event totals) and identical counters serial and on a worker
// pool. Its cells count fabric messages like every other figure's: at least
// one, and never more than the transfers they are part of.
func TestChaosDeterminism(t *testing.T) {
	t.Parallel()
	s := ByID("abl-faults")
	serial, sc := s.Run(Env{Short: true, Workers: 1})
	parallel, pc := s.Run(Env{Short: true, Workers: 8})
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("abl-faults diverged serial vs parallel:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	if len(serial.Rows) != 2 || len(serial.Rows[0].Values) != 2 {
		t.Fatalf("short chaos sweep shape: %+v", serial.Rows)
	}
	if sc.Transfers != pc.Transfers || sc.FabricMessages != pc.FabricMessages {
		t.Fatalf("counters diverged: serial %+v, parallel %+v", sc, pc)
	}
	if sc.FabricMessages <= 0 || sc.FabricMessages > sc.Transfers {
		t.Fatalf("abl-faults counted %d fabric messages over %d transfers", sc.FabricMessages, sc.Transfers)
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/abl-faults.golden from the current code")

const ablFaultsGolden = "testdata/abl-faults.golden"

// TestAblationFaultsGolden pins the chaos figure's values: the rendered rows
// and notes (goodput, p99 round latency, lost bytes and recovery-event
// totals) at reduced scale. TestChaosDeterminism shows the figure repeats;
// this shows it does not drift. Regenerate with -update only for an intended
// change of recovery behaviour.
func TestAblationFaultsGolden(t *testing.T) {
	t.Parallel()
	res, _ := ByID("abl-faults").Run(Env{})
	got := Render(res)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ablFaultsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(ablFaultsGolden)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if got != string(want) {
		t.Fatalf("abl-faults drifted from %s:\ngot:\n%swant:\n%s", ablFaultsGolden, got, want)
	}
}

// TestZeroRateFaultsByteIdentical: arming a fault profile with rate 0 (the
// -faults flag's no-op configuration) must leave a figure byte-identical to
// a run with no profile armed at all — the zero-fault path is exactly the
// original code path.
func TestZeroRateFaultsByteIdentical(t *testing.T) {
	t.Parallel()
	s := ByID("abl-pipeline")
	if s == nil {
		t.Fatal("unknown spec abl-pipeline")
	}
	plain, _ := s.Run(Env{Workers: 1})
	cfg := fault.Profile(7, 0)
	armed, _ := s.Run(Env{Workers: 1, Faults: &cfg})
	if !reflect.DeepEqual(plain, armed) {
		t.Fatalf("zero-rate fault profile perturbed the figure:\nplain: %+v\narmed: %+v", plain, armed)
	}
}

// TestCellBudgetWatchdog: a cell that exceeds the virtual-time budget is
// killed by the engine and surfaces as a CellError (naming the cell's shape)
// wrapping the engine's BudgetError — the structured report a grid run
// prints instead of hanging.
func TestCellBudgetWatchdog(t *testing.T) {
	t.Parallel()
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				var ok bool
				if err, ok = r.(error); !ok {
					t.Fatalf("cell panicked with a non-error: %v", r)
				}
			}
		}()
		// 1 ns: any real cell blows through it immediately.
		chaosCell(Env{budget: 1}, 2, 2, 2, 0, true)
	}()
	if err == nil {
		t.Fatal("cell completed under a 1 ns budget")
	}
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("expected a CellError, got %T: %v", err, err)
	}
	if ce.Nodes != 2 || ce.Ranks != 4 {
		t.Errorf("CellError shape = %d nodes, %d ranks; want 2, 4", ce.Nodes, ce.Ranks)
	}
	var be *sim.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("CellError does not wrap the engine's BudgetError: %v", err)
	}
	if be.Limit != 1 {
		t.Errorf("BudgetError.Limit = %d, want 1", be.Limit)
	}
}
