package sim

// Flight-recorder overhead guards for the scheduler hot path:
//
//	BenchmarkEngineStepDisabled  BenchmarkEngineStep with a metrics-only
//	                             recorder attached — must match the plain
//	                             benchmark (the disabled path is one
//	                             predicted-false bool check)
//	BenchmarkEngineStepTraced    the same loop with tracing live
//
// TestRecorderDisabledNoAllocs asserts the 0 allocs per step contract
// directly, over the same loops, so a regression fails the suite rather than
// only skewing benchmark numbers.

import (
	"testing"

	"tapioca/internal/obs"
)

// engineStep is the BenchmarkEngineStep body with a recorder attached: a
// proc that stays strictly earliest Holds b.N times while a far-future proc
// keeps the run queue non-empty.
func engineStep(b *testing.B, rec *obs.Recorder) {
	e := NewEngine()
	e.SetRecorder(rec)
	n := b.N
	e.Spawn("stepper", func(p *Proc) {
		p.SetTraceID(0, 0)
		for i := 0; i < n; i++ {
			p.Hold(1)
		}
	})
	e.Spawn("horizon", func(p *Proc) {
		p.SetTraceID(0, 1)
		p.HoldUntil(int64(n) + 1<<40)
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineStepDisabled must report the same ns/op and 0 allocs/op as
// BenchmarkEngineStep: a disabled recorder is free on the Hold fast path.
func BenchmarkEngineStepDisabled(b *testing.B) { engineStep(b, obs.NewRecorder(false)) }

// BenchmarkEngineStepTraced measures the tracing-on cost of the same loop.
// Hold on the fast path emits no events, so this bounds the per-step cost of
// carrying trace state; Park-path span emission is covered by the pipeline
// figures themselves.
func BenchmarkEngineStepTraced(b *testing.B) { engineStep(b, obs.NewRecorder(true)) }

// enginePingPong is the BenchmarkEnginePingPong body with a recorder
// attached: every iteration is one Park/Unpark handoff — the instrumented
// scheduler path.
func enginePingPong(b *testing.B, rec *obs.Recorder) {
	e := NewEngine()
	e.SetRecorder(rec)
	n := b.N
	var ping, pong *Proc
	ping = e.Spawn("ping", func(p *Proc) {
		p.SetTraceID(0, 0)
		for i := 0; i < n; i++ {
			p.Park("ping")
			e.Unpark(pong, p.Now())
		}
	})
	pong = e.Spawn("pong", func(p *Proc) {
		p.SetTraceID(0, 1)
		for i := 0; i < n; i++ {
			e.Unpark(ping, p.Now())
			p.Park("pong")
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEnginePingPongTraced measures span emission on the Park path (two
// spans per handoff: the ending run interval and the park interval).
func BenchmarkEnginePingPongTraced(b *testing.B) { enginePingPong(b, obs.NewRecorder(true)) }

// TestRecorderDisabledNoAllocs asserts the disabled-recorder contract: both
// the Hold fast path and the Park handoff path run at 0 allocs per step with
// a nil recorder and with a metrics-only recorder attached.
func TestRecorderDisabledNoAllocs(t *testing.T) {
	const steps = 1000
	for _, tc := range []struct {
		name string
		rec  *obs.Recorder
	}{
		{"nil", nil},
		{"metrics-only", obs.NewRecorder(false)},
	} {
		if a := holdAllocs(t, tc.rec, steps); a != 0 {
			t.Errorf("%s recorder: Hold path %.2f allocs/step, want 0", tc.name, a)
		}
		if a := parkAllocs(t, tc.rec, steps); a != 0 {
			t.Errorf("%s recorder: Park path %.2f allocs/step, want 0", tc.name, a)
		}
	}
}

// holdAllocs measures the engineStep loop's allocations per Hold, over steps
// Holds, inside the running proc.
func holdAllocs(t *testing.T, rec *obs.Recorder, steps int) float64 {
	e := NewEngine()
	e.SetRecorder(rec)
	var allocs float64
	e.Spawn("stepper", func(p *Proc) {
		p.SetTraceID(0, 0)
		allocs = testing.AllocsPerRun(steps, func() { p.Hold(1) })
	})
	e.Spawn("horizon", func(p *Proc) {
		p.SetTraceID(0, 1)
		p.HoldUntil(1 << 40)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return allocs
}

// parkAllocs measures the enginePingPong loop's allocations per Park/Unpark
// handoff, over steps handoffs, inside the running proc.
func parkAllocs(t *testing.T, rec *obs.Recorder, steps int) float64 {
	e := NewEngine()
	e.SetRecorder(rec)
	var allocs float64
	var ping, pong *Proc
	ping = e.Spawn("ping", func(p *Proc) {
		p.SetTraceID(0, 0)
		allocs = testing.AllocsPerRun(steps, func() {
			p.Park("ping")
			e.Unpark(pong, p.Now())
		})
	})
	pong = e.Spawn("pong", func(p *Proc) {
		p.SetTraceID(0, 1)
		for i := 0; i <= steps; i++ { // AllocsPerRun's warm-up call, then steps
			e.Unpark(ping, p.Now())
			p.Park("pong")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return allocs
}
