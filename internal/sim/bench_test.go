package sim

// Engine micro-benchmarks pinning the scheduler hot path:
//
//	BenchmarkEngineStep     the same-proc fast path (Hold while strictly
//	                        earliest) — no heap traffic, no switch
//	BenchmarkEnginePingPong a forced switch between two procs (the parking
//	                        proc yields, Run resumes its successor)
//	BenchmarkEngineFanIn    heap behaviour under many procs converging on one
//	                        resource (pop/push churn at scale)
//
// All three report allocs: the steady state must stay at 0 allocs/op.

import (
	"fmt"
	"testing"
)

// BenchmarkEngineStep measures one scheduling point of a proc that remains
// strictly earliest: the dominant case for Hold under skewed clocks. Without
// the fast path it would cost a full switch; with it, a heap peek.
func BenchmarkEngineStep(b *testing.B) {
	e := NewEngine()
	n := b.N
	e.Spawn("stepper", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Hold(1)
		}
	})
	// A second proc far in the future keeps the run queue non-empty, so the
	// fast path pays its real cost (a heap peek), not the empty-queue check.
	e.Spawn("horizon", func(p *Proc) {
		p.HoldUntil(int64(n) + 1<<40)
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEnginePingPong measures a forced context switch per step: two
// procs alternate via Park/Unpark, so every iteration is one yield of the
// parking proc to Run and one resume of its successor.
func BenchmarkEnginePingPong(b *testing.B) {
	e := NewEngine()
	n := b.N
	var ping, pong *Proc
	ping = e.Spawn("ping", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Park("ping")
			e.Unpark(pong, p.Now())
		}
	})
	pong = e.Spawn("pong", func(p *Proc) {
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

// BenchmarkEngineFanIn measures heap churn: 256 procs all booking the
// same resource back-to-back, so every scheduling point pushes and pops
// through a populated run queue (the collective fan-in shape of two-phase
// aggregation).
func BenchmarkEngineFanIn(b *testing.B) {
	const procs = 256
	e := NewEngine()
	r := NewGapResource("sink", 1e9)
	per := b.N/procs + 1
	for i := 0; i < procs; i++ {
		e.Spawn(fmt.Sprintf("src%d", i), func(p *Proc) {
			for j := 0; j < per; j++ {
				_, end := r.Reserve(p.Now(), 4096)
				p.HoldUntil(end)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineTimer measures CompleteAt + Wait round trips: the recycled
// coroutine-less timer nodes that back asynchronous storage completions.
func BenchmarkEngineTimer(b *testing.B) {
	e := NewEngine()
	n := b.N
	e.Spawn("issuer", func(p *Proc) {
		for i := 0; i < n; i++ {
			ev := NewEvent("io")
			CompleteAt(p, ev, p.Now()+10)
			ev.Wait(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
