package storage

import (
	"testing"

	"tapioca/internal/sim"
)

func TestBurstBufferFasterThanBacking(t *testing.T) {
	topo, fab := thetaRig(512)
	lustre := NewLustre(topo, fab, LustreConfig{})
	bb := NewBurstBuffer(lustre, BurstBufferConfig{Servers: 4})
	f := bb.Create("f", FileOptions{StripeCount: 4, StripeSize: 8 << 20})
	e := sim.NewEngine()
	var staged, direct int64
	e.Spawn("w", func(p *sim.Proc) {
		t0 := p.Now()
		Do(p, bb, 0, f, []Seg{Contig(0, 32<<20)}, OpWrite)
		staged = p.Now() - t0

		g := lustre.Create("g", FileOptions{StripeCount: 4, StripeSize: 8 << 20})
		t0 = p.Now()
		Do(p, lustre, 0, g, []Seg{Contig(0, 32<<20)}, OpWrite)
		direct = p.Now() - t0
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if staged >= direct/3 {
		t.Fatalf("burst buffer (%d) not clearly faster than direct (%d)", staged, direct)
	}
}

func TestBurstBufferDrainReachesBacking(t *testing.T) {
	topo, fab := thetaRig(512)
	lustre := NewLustre(topo, fab, LustreConfig{})
	bb := NewBurstBuffer(lustre, BurstBufferConfig{})
	f := bb.Create("f", FileOptions{StripeCount: 2, StripeSize: 4 << 20})
	e := sim.NewEngine()
	e.Spawn("w", func(p *sim.Proc) {
		Do(p, bb, 0, f, []Seg{Contig(0, 8<<20)}, OpWrite)
		stagedAt := p.Now()
		drainedAt := bb.Flush(p)
		if drainedAt <= stagedAt {
			t.Errorf("drain (%d) not after staging (%d)", drainedAt, stagedAt)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if f.BytesWritten() != 8<<20 {
		t.Fatalf("backing file bytes = %d", f.BytesWritten())
	}
	if bb.StagedBytes() != 8<<20 {
		t.Fatalf("staged bytes = %d", bb.StagedBytes())
	}
}

func TestBurstBufferReadsAndAsync(t *testing.T) {
	topo, fab := thetaRig(512)
	bb := NewBurstBuffer(NewLustre(topo, fab, LustreConfig{}), BurstBufferConfig{})
	f := bb.Create("f", FileOptions{})
	e := sim.NewEngine()
	e.Spawn("w", func(p *sim.Proc) {
		ev := Start(p, bb, 0, f, []Seg{Contig(0, 1<<20)}, OpWrite)
		ev.Wait(p)
		Do(p, bb, 0, f, []Seg{Contig(0, 1<<20)}, OpRead)
		rv := Start(p, bb, 0, f, []Seg{Contig(0, 1<<20)}, OpRead)
		rv.Wait(p)
		bb.Flush(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if f.BytesRead() != 2<<20 {
		t.Fatalf("bytes read = %d", f.BytesRead())
	}
}

func TestBurstBufferServersSpread(t *testing.T) {
	topo, fab := thetaRig(512)
	bb := NewBurstBuffer(NewNullFS(), BurstBufferConfig{Servers: 4})
	_ = topo
	_ = fab
	f := bb.Create("f", FileOptions{})
	e := sim.NewEngine()
	e.Spawn("w", func(p *sim.Proc) {
		// Writes at widely spaced offsets should hash to multiple servers:
		// total time must beat a single-server serialization.
		for i := 0; i < 8; i++ {
			Start(p, bb, 0, f, []Seg{Contig(int64(i)*256<<20, 64<<20)}, OpWrite)
		}
		bb.Flush(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	serial := 8 * sim.TransferTime(64<<20, 5e9)
	if e.Now() >= serial {
		t.Fatalf("writes serialized on one server: %d >= %d", e.Now(), serial)
	}
}

func TestPageFootprint(t *testing.T) {
	// Dense contiguous: footprint == bytes.
	if got := PageFootprint([]Seg{Contig(0, 1<<20)}, 4096); got != 1<<20 {
		t.Fatalf("contig footprint = %d", got)
	}
	// 4 bytes every 38: denser than a page → whole span.
	s := Strided(0, 4, 38, 10000)
	if got := PageFootprint([]Seg{s}, 4096); got != s.End() {
		t.Fatalf("sub-page-stride footprint = %d, want span %d", got, s.End())
	}
	// 4 bytes every 64 KB: one page per run.
	w := Strided(0, 4, 64<<10, 100)
	if got := PageFootprint([]Seg{w}, 4096); got != 100*4096 {
		t.Fatalf("wide-stride footprint = %d, want %d", got, 100*4096)
	}
	if PageFootprint(nil, 4096) != 0 {
		t.Fatal("empty footprint")
	}
}
