package sim

import "testing"

func TestEventWaitBeforeComplete(t *testing.T) {
	e := NewEngine()
	ev := NewEvent("io")
	var got int64
	e.Spawn("waiter", func(p *Proc) {
		got = ev.Wait(p)
	})
	e.Spawn("completer", func(p *Proc) {
		p.Hold(123)
		ev.Complete(p.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 123 {
		t.Fatalf("wait returned %d, want 123", got)
	}
}

func TestEventWaitAfterComplete(t *testing.T) {
	e := NewEngine()
	ev := NewEvent("io")
	e.Spawn("completer", func(p *Proc) {
		p.Hold(50)
		ev.Complete(p.Now())
	})
	e.Spawn("latewaiter", func(p *Proc) {
		p.Hold(1000)
		at := ev.Wait(p)
		if at != 50 {
			t.Errorf("completion at %d, want 50", at)
		}
		if p.Now() != 1000 {
			t.Errorf("clock = %d, want 1000 (no rewind)", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEventDoubleCompletePanics(t *testing.T) {
	e := NewEngine()
	ev := NewEvent("x")
	e.Spawn("a", func(p *Proc) {
		ev.Complete(0)
		ev.Complete(1)
	})
	if err := e.Run(); err == nil {
		t.Fatal("expected panic error for double complete")
	}
}
