package sim

import (
	"errors"
	"strings"
	"testing"
)

// A proc that advances its clock past the budget must terminate the run
// with a *BudgetError instead of spinning forever, and every proc must
// drain (TestRunReleasesEveryCoroutine checks that no carrier is left busy).
func TestBudgetExceeded(t *testing.T) {
	e := NewEngine()
	e.SetBudget(1000)
	steps := 0
	e.Spawn("runaway", func(p *Proc) {
		for {
			p.Hold(400)
			steps++
		}
	})
	e.Spawn("bystander", func(p *Proc) { p.Park("waiting on runaway") })
	err := e.Run()
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
	if be.Limit != 1000 || be.At <= 1000 {
		t.Fatalf("budget error fields: %+v", be)
	}
	if steps == 0 || steps > 4 {
		t.Fatalf("runaway took %d steps before the watchdog fired", steps)
	}
}

func TestBudgetUnderLimitHarmless(t *testing.T) {
	e := NewEngine()
	e.SetBudget(1_000_000)
	done := false
	e.Spawn("worker", func(p *Proc) { p.Hold(500); done = true })
	if err := e.Run(); err != nil || !done {
		t.Fatalf("run under budget failed: err=%v done=%v", err, done)
	}
}

// The deadlock diagnostic must carry each parked proc's phase label so a
// mid-pipeline hang names where in the pipeline each rank was stuck.
func TestDeadlockNamesPhaseLabels(t *testing.T) {
	e := NewEngine()
	e.Spawn("rank0", func(p *Proc) {
		p.SetPhaseLabel("tapioca round 3/8")
		p.Park("waiting for event flush")
	})
	e.Spawn("rank1", func(p *Proc) { p.Park("no label set") })
	err := e.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "[phase: tapioca round 3/8]") {
		t.Fatalf("deadlock diagnostic missing phase label: %v", msg)
	}
	if strings.Contains(msg, "rank1) at t=0: no label set [phase:") {
		t.Fatalf("unlabeled proc grew a phase label: %v", msg)
	}
}
