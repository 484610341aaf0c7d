package tapioca_test

import (
	"testing"

	"tapioca"
)

func TestMiraMachineRunsQuickstart(t *testing.T) {
	m := tapioca.Mira(128, tapioca.WithLockSharing())
	rep, err := m.Run(4, func(ctx *tapioca.Ctx) {
		f := ctx.CreateFile("snap", tapioca.FileOptions{})
		w := ctx.Tapioca(f, tapioca.Config{Aggregators: 8, BufferSize: 4 << 20})
		w.Init([][]tapioca.Seg{{tapioca.Contig(int64(ctx.Rank())<<20, 1<<20)}})
		w.WriteAll()
		ctx.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Elapsed <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	if len(rep.Files) != 1 || rep.Files[0].BytesWritten != int64(512)<<20 {
		t.Fatalf("report files = %+v", rep.Files)
	}
}

func TestThetaMachineMPIIOAndTapioca(t *testing.T) {
	m := tapioca.Theta(64)
	_, err := m.Run(2, func(ctx *tapioca.Ctx) {
		opt := tapioca.FileOptions{StripeCount: 8, StripeSize: 1 << 20}
		f := ctx.CreateFile("a", opt)
		fh := ctx.MPIIO(f, tapioca.Hints{CBNodes: 4, CBBufferSize: 1 << 20})
		fh.WriteAtAll([]tapioca.Seg{tapioca.Contig(int64(ctx.Rank())<<18, 1<<18)})
		fh.Close()

		g := ctx.CreateFile("b", opt)
		w := ctx.Tapioca(g, tapioca.Config{Aggregators: 4, BufferSize: 1 << 20})
		w.Init([][]tapioca.Seg{{tapioca.Contig(int64(ctx.Rank())<<18, 1<<18)}})
		w.WriteAll()
		ctx.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicReports(t *testing.T) {
	run := func() float64 {
		m := tapioca.Theta(32)
		rep, err := m.Run(2, func(ctx *tapioca.Ctx) {
			f := ctx.CreateFile("d", tapioca.FileOptions{StripeCount: 4, StripeSize: 1 << 20})
			w := ctx.Tapioca(f, tapioca.Config{Aggregators: 4, BufferSize: 1 << 20})
			w.Init([][]tapioca.Seg{{tapioca.Contig(int64(ctx.Rank())<<19, 1<<19)}})
			w.WriteAll()
			ctx.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Elapsed
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic elapsed: %v vs %v", a, b)
	}
}

// TestMachineRunsOnce: a second Run on the same Machine would reuse the
// fabric's booked state and report inflated times, so it must fail without
// running its body.
func TestMachineRunsOnce(t *testing.T) {
	m := tapioca.Theta(16)
	body := func(ctx *tapioca.Ctx) {
		f := ctx.CreateFile("once", tapioca.FileOptions{StripeCount: 4, StripeSize: 1 << 20})
		w := ctx.Tapioca(f, tapioca.Config{Aggregators: 2, BufferSize: 1 << 20})
		w.Init([][]tapioca.Seg{{tapioca.Contig(int64(ctx.Rank())<<19, 1<<19)}})
		w.WriteAll()
		ctx.Barrier()
	}
	if _, err := m.Run(2, body); err != nil {
		t.Fatal(err)
	}
	ran := false
	if _, err := m.Run(2, func(ctx *tapioca.Ctx) { ran = true }); err == nil {
		t.Fatal("second Run on the same Machine succeeded")
	}
	if ran {
		t.Error("second Run executed its body")
	}
}

func TestCtxSplitAndPset(t *testing.T) {
	m := tapioca.Mira(256)
	_, err := m.Run(2, func(ctx *tapioca.Ctx) {
		pset := ctx.Pset()
		if pset != ctx.Node()/128 {
			t.Errorf("pset = %d for node %d", pset, ctx.Node())
		}
		sub := ctx.Split(pset, ctx.Rank())
		if sub.Size() != ctx.Size()/2 {
			t.Errorf("sub size = %d", sub.Size())
		}
		sub.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMaxSecondsReduction(t *testing.T) {
	m := tapioca.Theta(16)
	_, err := m.Run(1, func(ctx *tapioca.Ctx) {
		ctx.Compute(float64(ctx.Rank()) * 0.001)
		v := ctx.MaxSeconds(ctx.Now())
		if v < 0.015 {
			t.Errorf("max = %v, want >= 15ms", v)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStridedHelper(t *testing.T) {
	s := tapioca.Strided(10, 4, 38, 100)
	if s.Bytes() != 400 || s.Off != 10 {
		t.Fatalf("seg = %+v", s)
	}
}

func TestAutotunePublicAPI(t *testing.T) {
	m := tapioca.Theta(32)
	w := tapioca.IORWorkload(32*4, 1<<19)
	cfg, fopt, hints := tapioca.Autotune(m, w)
	cfg2, fopt2, _ := tapioca.Autotune(m, w)
	if cfg != cfg2 || fopt != fopt2 {
		t.Fatalf("non-deterministic pick: %+v/%+v vs %+v/%+v", cfg, fopt, cfg2, fopt2)
	}
	if cfg.Aggregators < 1 || cfg.BufferSize < 1 {
		t.Fatalf("config = %+v", cfg)
	}
	if hints.CBNodes != cfg.Aggregators || hints.CBBufferSize != cfg.BufferSize {
		t.Fatalf("hints %+v do not mirror config %+v", hints, cfg)
	}
	// Tuning must not consume the machine: the tuned configuration runs on
	// the same instance afterwards.
	rep, err := m.Run(4, func(ctx *tapioca.Ctx) {
		f := ctx.CreateFile("tuned", fopt)
		wr := ctx.Tapioca(f, cfg)
		wr.Init(w.Declared(ctx.Rank(), ctx.Size()))
		wr.WriteAll()
		ctx.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Elapsed <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestAutotuneWithProbes(t *testing.T) {
	m := tapioca.Theta(16)
	w := tapioca.HACCWorkload(16*2, 5000, true)
	cfg, _, _ := tapioca.Autotune(m, w, tapioca.WithProbes(2))
	cfg2, _, _ := tapioca.Autotune(m, w, tapioca.WithProbes(2))
	if cfg != cfg2 {
		t.Fatalf("closed loop non-deterministic: %+v vs %+v", cfg, cfg2)
	}
}
