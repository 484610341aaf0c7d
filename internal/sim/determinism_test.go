package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// runChaos builds a pseudo-random simulation from seed and returns a trace
// fingerprint: the sequence of (proc, time) observations at every step, plus
// final resource states. Two runs from the same seed must produce identical
// fingerprints — the engine's core determinism guarantee.
func runChaos(seed int64, procs, steps int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine()
	res := []*GapResource{
		NewGapResource("r0", 1000),
		NewGapResource("r1", 5000),
		NewGapResource("r2", 250),
	}
	rv := &rendezvous{n: procs}
	var trace []int64

	// Pre-generate each proc's action script so scheduling cannot perturb
	// random number consumption. Kind 2 (rendezvous) appears a fixed number
	// of times per proc so the rendezvous cannot deadlock.
	type action struct{ kind, arg int }
	const meetsPerProc = 3
	scripts := make([][]action, procs)
	for i := range scripts {
		scripts[i] = make([]action, steps)
		for j := range scripts[i] {
			kind := []int{0, 1, 3}[rng.Intn(3)]
			scripts[i][j] = action{kind: kind, arg: rng.Intn(1000) + 1}
		}
		// Overwrite fixed slots with rendezvous waits, aligned across procs.
		for k := 0; k < meetsPerProc; k++ {
			scripts[i][k*steps/meetsPerProc] = action{kind: 2}
		}
	}

	for i := 0; i < procs; i++ {
		script := scripts[i]
		id := int64(i)
		e.Spawn("chaos", func(p *Proc) {
			for _, a := range script {
				switch a.kind {
				case 0:
					p.Hold(int64(a.arg))
				case 1:
					_, end := res[a.arg%len(res)].Reserve(p.Now(), int64(a.arg))
					p.HoldUntil(end)
				case 2:
					rv.wait(p)
				case 3:
					ev := NewEvent("chaos")
					CompleteAt(p, ev, p.Now()+int64(a.arg))
					ev.Wait(p)
				}
				trace = append(trace, id, p.Now())
			}
		})
	}
	if err := e.Run(); err != nil {
		// Identical seeds must fail identically too.
		trace = append(trace, int64(len(err.Error())))
	}
	for _, r := range res {
		trace = append(trace, r.Horizon(), r.BusyTime(), r.BytesServed())
	}
	return trace
}

func TestDeterminismProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := runChaos(seed, 8, 20)
		b := runChaos(seed, 8, 20)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestTimeMonotonicProperty: a proc's observed clock never decreases, no
// matter what mixture of primitives it runs.
func TestTimeMonotonicProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		r := NewGapResource("r", float64(rng.Intn(10000)+1))
		ok := true
		const procs = 6
		scripts := make([][]int, procs)
		for i := range scripts {
			scripts[i] = make([]int, 30)
			for j := range scripts[i] {
				scripts[i][j] = rng.Intn(500)
			}
		}
		for i := 0; i < procs; i++ {
			script := scripts[i]
			e.Spawn("m", func(p *Proc) {
				last := p.Now()
				for _, v := range script {
					if v%2 == 0 {
						p.Hold(int64(v))
					} else {
						_, end := r.Reserve(p.Now(), int64(v))
						p.HoldUntil(end)
					}
					if p.Now() < last {
						ok = false
					}
					last = p.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestResourceConservationProperty: busy time equals the sum of service
// times and bytes served equals the sum of request sizes, however the
// engine interleaves the procs that reserve the resource.
func TestResourceConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rate := float64(rng.Intn(9999) + 1)
		e := NewEngine()
		r := NewGapResource("r", rate)
		var wantBytes, wantBusy int64
		const procs = 5
		reqs := make([][]int64, procs)
		for i := range reqs {
			reqs[i] = make([]int64, 10)
			for j := range reqs[i] {
				b := int64(rng.Intn(5000))
				reqs[i][j] = b
				wantBytes += b
				wantBusy += TransferTime(b, rate)
			}
		}
		for i := 0; i < procs; i++ {
			mine := reqs[i]
			e.Spawn("u", func(p *Proc) {
				for _, b := range mine {
					_, end := r.Reserve(p.Now(), b)
					p.HoldUntil(end)
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return r.BytesServed() == wantBytes && r.BusyTime() == wantBusy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkContextSwitch(b *testing.B) {
	e := NewEngine()
	n := b.N
	e.Spawn("spinner", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Hold(1)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
