package storage

import (
	"errors"
	"testing"

	"tapioca/internal/fault"
	"tapioca/internal/obs"
	"tapioca/internal/sim"
)

// span is one storage-timeline span: its name and byte count.
type span struct {
	name  string
	bytes int64
}

// storageSpans returns the spans a recorder holds on the storage timeline.
func storageSpans(rec *obs.Recorder) []span {
	var out []span
	for _, ev := range rec.Events() {
		if ev.PID == obs.PIDStorage {
			out = append(out, span{ev.Name, ev.Bytes})
		}
	}
	return out
}

// TestDoStartPerModel pins every model's booking of a strided access for
// each op: the file's accounting, the span the flight recorder reports and
// the completion time. Do's completion must equal Start's event time on a
// twin fresh system.
func TestDoStartPerModel(t *testing.T) {
	segs := []Seg{Strided(1<<20, 1000, 8192, 256)} // span 2,089,960 B, page footprint 1 MiB
	systems := map[string]func() System{
		"nullfs": func() System { return NewNullFS() },
		"gpfs": func() System {
			topo, fab := miraRig(512)
			return NewGPFS(topo, fab, GPFSConfig{})
		},
		"lustre": func() System {
			topo, fab := thetaRig(512)
			return NewLustre(topo, fab, LustreConfig{})
		},
		"bb": func() System {
			topo, fab := thetaRig(512)
			return NewBurstBuffer(NewLustre(topo, fab, LustreConfig{}), BurstBufferConfig{})
		},
	}
	cases := []struct {
		sys                     string
		op                      Op
		done                    int64
		written, read, wOp, rOp int64
		spans                   []span
	}{
		{"nullfs", OpWrite, 2000, 256000, 0, 1, 0, []span{{"nullfs-write", 256000}}},
		{"nullfs", OpRead, 2000, 0, 256000, 0, 1, []span{{"nullfs-read", 256000}}},
		{"nullfs", OpSieve, 3000, 256000, 2089960, 1, 0, []span{{"nullfs-write-sieved", 256000}}},
		{"gpfs", OpWrite, 1034015, 256000, 0, 1, 0, []span{{"gpfs-write", 256000}}},
		{"gpfs", OpRead, 1511577, 0, 256000, 0, 1, []span{{"gpfs-read", 256000}}},
		{"gpfs", OpSieve, 7301719, 256000, 2089960, 1, 0, []span{{"gpfs-write-sieved", 2089960}}},
		{"lustre", OpWrite, 15939196, 256000, 0, 1, 0, []span{{"lustre-write", 256000}}},
		{"lustre", OpRead, 15644934, 0, 256000, 0, 1, []span{{"lustre-read", 256000}}},
		{"lustre", OpSieve, 10259365, 256000, 0, 1, 0, []span{{"lustre-write-sieved", 1 << 20}}},
		{"bb", OpWrite, 102200, 256000, 0, 1, 0, []span{{"lustre-write", 256000}, {"bb-write", 256000}}},
		{"bb", OpRead, 102200, 0, 256000, 0, 1, []span{{"bb-read", 256000}}},
		{"bb", OpSieve, 260716, 1 << 20, 0, 1, 0, []span{{"lustre-write", 1 << 20}, {"bb-write", 1 << 20}}},
	}
	run := func(sys System, op Op, async bool) (done int64, f *File, rec *obs.Recorder) {
		f = sys.Create("f", FileOptions{StripeCount: 4})
		rec = obs.NewRecorder(true)
		e := sim.NewEngine()
		e.SetRecorder(rec)
		e.Spawn("w", func(p *sim.Proc) {
			p.Hold(1000)
			if async {
				done = Start(p, sys, 3, f, segs, op).Wait(p)
			} else {
				done = Do(p, sys, 3, f, segs, op)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return done, f, rec
	}
	for _, c := range cases {
		done, f, rec := run(systems[c.sys](), c.op, false)
		if done != c.done {
			t.Errorf("%s op %d: Do completes at %d, want %d", c.sys, c.op, done, c.done)
		}
		if got, _, _ := run(systems[c.sys](), c.op, true); got != done {
			t.Errorf("%s op %d: Start completes at %d, Do at %d", c.sys, c.op, got, done)
		}
		if f.BytesWritten() != c.written || f.BytesRead() != c.read || f.WriteOps() != c.wOp || f.ReadOps() != c.rOp {
			t.Errorf("%s op %d: accounting %d/%d B, %d/%d ops; want %d/%d B, %d/%d ops", c.sys, c.op,
				f.BytesWritten(), f.BytesRead(), f.WriteOps(), f.ReadOps(), c.written, c.read, c.wOp, c.rOp)
		}
		got := storageSpans(rec)
		if len(got) != len(c.spans) {
			t.Errorf("%s op %d: spans %v, want %v", c.sys, c.op, got, c.spans)
			continue
		}
		for i := range got {
			if got[i] != c.spans[i] {
				t.Errorf("%s op %d: spans %v, want %v", c.sys, c.op, got, c.spans)
				break
			}
		}
	}
}

// TestTryAndFaultWrapper covers try's fault decisions and the views through
// the fault wrapper: the degraded tier, the tuning hooks and the absorbing
// plain path once a burst-buffer tier is down.
func TestTryAndFaultWrapper(t *testing.T) {
	topo, fab := thetaRig(512)
	lustre := NewLustre(topo, fab, LustreConfig{})
	bb := NewBurstBuffer(lustre, BurstBufferConfig{})
	stack := NewFaulty(bb, fault.NewPlan(fault.Config{TierDownAfter: 1000}))
	if d := DegradedSystemOf(stack); d != System(lustre) {
		t.Fatalf("DegradedSystemOf(Faulty(BurstBuffer(Lustre))) = %v, want the Lustre tier", d)
	}
	if d := DegradedSystemOf(NewFaulty(lustre, nil)); d != nil {
		t.Fatalf("DegradedSystemOf(Faulty(Lustre)) = %v, want nil", d)
	}
	twice := NewFaulty(NewFaulty(lustre, nil), nil)
	for _, opt := range []FileOptions{{}, {StripeCount: 8, StripeSize: 4 << 20}} {
		for _, read := range []bool{false, true} {
			if got, want := twice.EstimateFlush(opt, 3<<20, 5, read), lustre.EstimateFlush(opt, 3<<20, 5, read); got != want {
				t.Fatalf("EstimateFlush(%+v, read=%v) through two fault wrappers = %g, want Lustre's %g", opt, read, got, want)
			}
			if got, want := twice.AggregateBandwidth(opt, read), lustre.AggregateBandwidth(opt, read); got != want {
				t.Fatalf("AggregateBandwidth(%+v, read=%v) through two fault wrappers = %g, want Lustre's %g", opt, read, got, want)
			}
		}
		if got, want := twice.AlignUnit(opt), lustre.AlignUnit(opt); got != want {
			t.Fatalf("AlignUnit(%+v) through two fault wrappers = %d, want Lustre's %d", opt, got, want)
		}
	}
	if got, want := twice.RecommendStripe(1<<30, 8<<20, 16), lustre.RecommendStripe(1<<30, 8<<20, 16); got != want {
		t.Fatalf("RecommendStripe through two fault wrappers = %+v, want Lustre's %+v", got, want)
	}

	plain := NewNullFS()
	transient := NewFaulty(NewNullFS(), fault.NewPlan(fault.Config{StoreFailRate: 1}))
	unplanned := NewFaulty(plain, nil)
	f := stack.Create("f", FileOptions{StripeCount: 4})
	segs := []Seg{Contig(0, 1<<20)}
	rec := obs.NewRecorder(true)
	e := sim.NewEngine()
	e.SetRecorder(rec)
	e.Spawn("w", func(p *sim.Proc) {
		t0 := p.Now()
		if got, err := try(p, plain); got != System(plain) || err != nil || p.Now() != t0 {
			t.Errorf("try(plain) = %v, %v after %d ns; want the system itself, nil, no hold", got, err, p.Now()-t0)
		}
		if got, err := try(p, unplanned); got != System(plain) || err != nil || p.Now() != t0 {
			t.Errorf("try(Faulty without plan) = %v, %v after %d ns; want the backing tier, nil, no hold", got, err, p.Now()-t0)
		}
		if got, err := try(p, transient); got != nil || !errors.Is(err, fault.ErrTransient) || p.Now()-t0 != 500_000 {
			t.Errorf("try(StoreFailRate 1) = %v, %v after %d ns; want nil, ErrTransient after 500000 ns", got, err, p.Now()-t0)
		}
		if _, err := try(p, stack); !errors.Is(err, fault.ErrTierDown) {
			t.Errorf("try past TierDownAfter = %v, want ErrTierDown", err)
		}
		Do(p, stack, 3, f, segs, OpWrite)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := storageSpans(rec); len(got) != 1 || got[0] != (span{"lustre-write", 1 << 20}) {
		t.Fatalf("Do with the buffer tier down traced %v, want one lustre-write of 1 MiB", got)
	}
	if bb.StagedBytes() != 0 || f.BytesWritten() != 1<<20 {
		t.Fatalf("Do with the buffer tier down: staged %d B, file written %d B; want 0 and 1 MiB",
			bb.StagedBytes(), f.BytesWritten())
	}
}
