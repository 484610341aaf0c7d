package storage

import (
	"fmt"
	"strings"
	"testing"

	"tapioca/internal/netsim"
	"tapioca/internal/sim"
	"tapioca/internal/topology"
)

func miraRig(nodes int) (*topology.Torus5D, *netsim.Fabric) {
	topo := topology.MiraTorus(nodes)
	fab := netsim.New(topo, netsim.Config{Contention: netsim.ContentionEndpoint})
	return topo, fab
}

func thetaRig(nodes int) (*topology.Dragonfly, *netsim.Fabric) {
	topo := topology.ThetaDragonfly(nodes, topology.RouteMinimal)
	fab := netsim.New(topo, netsim.Config{Contention: netsim.ContentionEndpoint})
	return topo, fab
}

func TestNullFS(t *testing.T) {
	fs := NewNullFS()
	f := fs.Create("x", FileOptions{})
	e := sim.NewEngine()
	e.Spawn("w", func(p *sim.Proc) {
		Do(p, fs, 0, f, []Seg{Contig(0, 1000)}, OpWrite)
		ev := Start(p, fs, 0, f, []Seg{Contig(1000, 1000)}, OpWrite)
		ev.Wait(p)
		Do(p, fs, 0, f, []Seg{Contig(0, 500)}, OpRead)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if f.BytesWritten() != 2000 || f.BytesRead() != 500 {
		t.Fatalf("accounting: %d written, %d read", f.BytesWritten(), f.BytesRead())
	}
	if f.WriteOps() != 2 || f.ReadOps() != 1 {
		t.Fatalf("ops: %d/%d", f.WriteOps(), f.ReadOps())
	}
	if fs.Lookup("x") != f || fs.Lookup("y") != nil {
		t.Fatal("lookup broken")
	}
}

func TestFileCoverageVerification(t *testing.T) {
	fs := NewNullFS()
	f := fs.Create("cov", FileOptions{})
	f.SetCapture(true)
	e := sim.NewEngine()
	e.Spawn("w", func(p *sim.Proc) {
		Do(p, fs, 0, f, []Seg{Contig(0, 100)}, OpWrite)
		Do(p, fs, 1, f, []Seg{Contig(100, 100)}, OpWrite)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := f.VerifyCoverage(0, 200); err != nil {
		t.Fatalf("coverage: %v", err)
	}
	if err := f.VerifyCoverage(0, 300); err == nil {
		t.Fatal("expected coverage error for short file")
	}
}

func TestFileCoverageDetectsOverlap(t *testing.T) {
	fs := NewNullFS()
	f := fs.Create("ov", FileOptions{})
	f.SetCapture(true)
	e := sim.NewEngine()
	e.Spawn("w", func(p *sim.Proc) {
		Do(p, fs, 0, f, []Seg{Contig(0, 150)}, OpWrite)
		Do(p, fs, 1, f, []Seg{Contig(100, 100)}, OpWrite)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	err := f.VerifyCoverage(0, 200)
	if err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("err = %v, want overlap", err)
	}
}

func TestGPFSWriteCompletes(t *testing.T) {
	topo, fab := miraRig(128)
	g := NewGPFS(topo, fab, GPFSConfig{})
	f := g.Create("f", FileOptions{})
	e := sim.NewEngine()
	var done int64
	e.Spawn("w", func(p *sim.Proc) {
		done = Do(p, g, 5, f, []Seg{Contig(0, 16<<20)}, OpWrite)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 16 MB at the 2.8 GB/s ION limit is at least ~5.7 ms.
	if done < 5*sim.Millisecond {
		t.Fatalf("16MB write completed unrealistically fast: %d", done)
	}
	if f.BytesWritten() != 16<<20 {
		t.Fatalf("bytes = %d", f.BytesWritten())
	}
}

func TestGPFSBandwidthCeilingPerPset(t *testing.T) {
	// Saturating one Pset from many writers must not exceed the ION
	// bandwidth materially.
	topo, fab := miraRig(128)
	g := NewGPFS(topo, fab, GPFSConfig{LockMode: LockShared})
	f := g.Create("f", FileOptions{})
	e := sim.NewEngine()
	const writers = 8
	const chunk = 64 << 20
	for i := 0; i < writers; i++ {
		node := i * 4
		off := int64(i) * chunk
		e.Spawn("w", func(p *sim.Proc) {
			Do(p, g, node, f, []Seg{Contig(off, chunk)}, OpWrite)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	total := float64(writers * chunk)
	bw := total / sim.ToSeconds(e.Now())
	if bw > 2.9e9 {
		t.Fatalf("pset bandwidth %v exceeds ION limit", bw)
	}
	if bw < 1.5e9 {
		t.Fatalf("pset bandwidth %v suspiciously low", bw)
	}
}

func TestGPFSLockRevocationCost(t *testing.T) {
	// Two nodes alternating writes to the same block must be slower under
	// exclusive locks than under shared locks.
	run := func(mode int) int64 {
		topo, fab := miraRig(128)
		g := NewGPFS(topo, fab, GPFSConfig{LockMode: mode})
		f := g.Create("f", FileOptions{})
		e := sim.NewEngine()
		e.Spawn("w", func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				Do(p, g, 3, f, []Seg{Contig(int64(i)*1000, 1000)}, OpWrite)
				Do(p, g, 64, f, []Seg{Contig(int64(i)*1000+500000, 1000)}, OpWrite)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	excl := run(LockExclusive)
	shared := run(LockShared)
	if excl <= shared {
		t.Fatalf("exclusive (%d) not slower than shared (%d)", excl, shared)
	}
	// 19 ownership changes × 500 µs each.
	if excl-shared < 9*sim.Millisecond {
		t.Fatalf("revocation cost too small: %d", excl-shared)
	}
}

func TestGPFSSubfilingBeatsSharedFile(t *testing.T) {
	// Writers across 16 Psets: one shared file is capped by the 13 GB/s
	// per-file ceiling; per-Pset files scale with ION count (2.8 GB/s each).
	const nodes = 2048
	const chunk = 256 << 20
	run := func(subfile bool) float64 {
		topo, fab := miraRig(nodes)
		g := NewGPFS(topo, fab, GPFSConfig{LockMode: LockShared})
		e := sim.NewEngine()
		var files []*File
		if subfile {
			for i := 0; i < topo.IONodes(); i++ {
				files = append(files, g.Create("f", FileOptions{}))
			}
		} else {
			files = []*File{g.Create("f", FileOptions{})}
		}
		for pset := 0; pset < topo.IONodes(); pset++ {
			node := pset * topo.PsetSize
			f := files[0]
			if subfile {
				f = files[pset]
			}
			off := int64(pset) * chunk
			e.Spawn("w", func(p *sim.Proc) {
				Do(p, g, node, f, []Seg{Contig(off, chunk)}, OpWrite)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return float64(int64(topo.IONodes())*chunk) / sim.ToSeconds(e.Now())
	}
	shared := run(false)
	sub := run(true)
	if sub <= shared*1.5 {
		t.Fatalf("subfiling %v not decisively faster than shared %v", sub, shared)
	}
}

func TestGPFSReadFasterThanWrite(t *testing.T) {
	topo, fab := miraRig(128)
	g := NewGPFS(topo, fab, GPFSConfig{})
	f := g.Create("f", FileOptions{})
	e := sim.NewEngine()
	var wDur, rDur int64
	e.Spawn("w", func(p *sim.Proc) {
		t0 := p.Now()
		Do(p, g, 5, f, []Seg{Contig(0, 64<<20)}, OpWrite)
		wDur = p.Now() - t0
		t0 = p.Now()
		Do(p, g, 5, f, []Seg{Contig(0, 64<<20)}, OpRead)
		rDur = p.Now() - t0
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if rDur >= wDur {
		t.Fatalf("read (%d) not faster than write (%d)", rDur, wDur)
	}
}

func TestGPFSAsyncOverlaps(t *testing.T) {
	// Two async writes issued back-to-back must finish sooner than their
	// serial sum (they pipeline through different stages), and the proc is
	// free immediately.
	topo, fab := miraRig(128)
	g := NewGPFS(topo, fab, GPFSConfig{LockMode: LockShared})
	f := g.Create("f", FileOptions{})
	e := sim.NewEngine()
	e.Spawn("w", func(p *sim.Proc) {
		ev1 := Start(p, g, 5, f, []Seg{Contig(0, 16<<20)}, OpWrite)
		if p.Now() > sim.Millisecond {
			t.Error("async write blocked the proc")
		}
		ev2 := Start(p, g, 5, f, []Seg{Contig(16<<20, 16<<20)}, OpWrite)
		ev1.Wait(p)
		ev2.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLustreStripeMapping(t *testing.T) {
	topo, fab := thetaRig(512)
	l := NewLustre(topo, fab, LustreConfig{})
	f := l.Create("f", FileOptions{StripeCount: 4, StripeSize: 1 << 20})
	seen := map[int]bool{}
	for s := int64(0); s < 8; s++ {
		seen[l.OSTOf(f, s)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("stripes map to %d OSTs, want 4", len(seen))
	}
	if l.OSTOf(f, 0) != l.OSTOf(f, 4) {
		t.Fatal("stripe 0 and 4 must share an OST with stripe count 4")
	}
}

func TestLustreDefaultsPoor(t *testing.T) {
	topo, fab := thetaRig(512)
	l := NewLustre(topo, fab, LustreConfig{})
	f := l.Create("f", FileOptions{}) // platform defaults
	if f.Opt.StripeCount != 1 || f.Opt.StripeSize != 1<<20 {
		t.Fatalf("default striping = %+v", f.Opt)
	}
}

func TestLustreSingleStreamLatencyBound(t *testing.T) {
	topo, fab := thetaRig(512)
	l := NewLustre(topo, fab, LustreConfig{})
	f := l.Create("f", FileOptions{StripeCount: 1, StripeSize: 8 << 20})
	e := sim.NewEngine()
	e.Spawn("w", func(p *sim.Proc) {
		Do(p, l, 0, f, []Seg{Contig(0, 8<<20)}, OpWrite)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	bw := float64(8<<20) / sim.ToSeconds(e.Now())
	// Single stream ≈ RPCSize/(latency + RPCSize/ostBW) ≈ 145 MB/s.
	if bw > 200e6 || bw < 80e6 {
		t.Fatalf("single-stream bandwidth %v outside latency-bound range", bw)
	}
}

func TestLustreConcurrentStreamsScale(t *testing.T) {
	// 4 writers on one OST must beat 1 writer's bandwidth clearly.
	run := func(writers int) float64 {
		topo, fab := thetaRig(512)
		l := NewLustre(topo, fab, LustreConfig{})
		f := l.Create("f", FileOptions{StripeCount: 1, StripeSize: 64 << 20})
		e := sim.NewEngine()
		const chunk = 16 << 20
		for i := 0; i < writers; i++ {
			node := i * 4
			off := int64(i) * chunk
			e.Spawn("w", func(p *sim.Proc) {
				Do(p, l, node, f, []Seg{Contig(off, chunk)}, OpWrite)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return float64(int64(writers)*chunk) / sim.ToSeconds(e.Now())
	}
	one := run(1)
	four := run(4)
	if four < 2*one {
		t.Fatalf("4 streams (%v) do not scale over 1 stream (%v)", four, one)
	}
}

func TestLustreMoreOSTsScale(t *testing.T) {
	run := func(stripeCount int) float64 {
		topo, fab := thetaRig(512)
		l := NewLustre(topo, fab, LustreConfig{})
		f := l.Create("f", FileOptions{StripeCount: stripeCount, StripeSize: 1 << 20})
		e := sim.NewEngine()
		const writers = 16
		const chunk = 8 << 20
		for i := 0; i < writers; i++ {
			node := i * 4
			off := int64(i) * chunk
			e.Spawn("w", func(p *sim.Proc) {
				Do(p, l, node, f, []Seg{Contig(off, chunk)}, OpWrite)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return float64(int64(writers)*chunk) / sim.ToSeconds(e.Now())
	}
	one := run(1)
	many := run(16)
	if many < 3*one {
		t.Fatalf("16 OSTs (%v) do not scale over 1 OST (%v)", many, one)
	}
}

func TestLustreLockRevocationOnSharedStripe(t *testing.T) {
	// Two nodes alternately writing halves of the same stripes pay
	// revocations; two nodes writing disjoint stripes do not.
	run := func(shareStripes bool) int64 {
		topo, fab := thetaRig(512)
		l := NewLustre(topo, fab, LustreConfig{})
		f := l.Create("f", FileOptions{StripeCount: 2, StripeSize: 8 << 20})
		e := sim.NewEngine()
		e.Spawn("w", func(p *sim.Proc) {
			const half = 4 << 20
			for i := 0; i < 6; i++ {
				base := int64(i) * (16 << 20)
				if shareStripes {
					// Both nodes write halves of stripe 2i: owner bounces.
					Do(p, l, 0, f, []Seg{Contig(base, half)}, OpWrite)
					Do(p, l, 4, f, []Seg{Contig(base+half, half)}, OpWrite)
				} else {
					// Node 0 writes stripe 2i, node 4 writes stripe 2i+1:
					// same bytes, disjoint stripes, stable owners.
					Do(p, l, 0, f, []Seg{Contig(base, half)}, OpWrite)
					Do(p, l, 4, f, []Seg{Contig(base+(8<<20), half)}, OpWrite)
				}
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	sharing := run(true)
	disjoint := run(false)
	if sharing <= disjoint {
		t.Fatalf("stripe sharing (%d) not slower than disjoint (%d)", sharing, disjoint)
	}
}

func TestLustreReadFasterThanWrite(t *testing.T) {
	topo, fab := thetaRig(512)
	l := NewLustre(topo, fab, LustreConfig{})
	f := l.Create("f", FileOptions{StripeCount: 8, StripeSize: 1 << 20})
	e := sim.NewEngine()
	var wDur, rDur int64
	e.Spawn("w", func(p *sim.Proc) {
		t0 := p.Now()
		Do(p, l, 0, f, []Seg{Contig(0, 32<<20)}, OpWrite)
		wDur = p.Now() - t0
		t0 = p.Now()
		Do(p, l, 0, f, []Seg{Contig(0, 32<<20)}, OpRead)
		rDur = p.Now() - t0
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if rDur >= wDur {
		t.Fatalf("read (%d) not faster than write (%d)", rDur, wDur)
	}
}

func TestLustreOptimalUnitIsStripeSize(t *testing.T) {
	topo, fab := thetaRig(512)
	l := NewLustre(topo, fab, LustreConfig{})
	f := l.Create("f", FileOptions{StripeCount: 8, StripeSize: 16 << 20})
	if l.OptimalUnit(f) != 16<<20 {
		t.Fatalf("unit = %d", l.OptimalUnit(f))
	}
}

func TestLustreObjectSetupPenalty(t *testing.T) {
	// A flush spanning 4 OST objects pays more setup than one within a
	// single object, for the same bytes and OST parallelism... compare one
	// 8MB flush in one stripe vs four 2MB pieces in four stripes.
	topo, fab := thetaRig(512)
	l := NewLustre(topo, fab, LustreConfig{})
	fBig := l.Create("big", FileOptions{StripeCount: 1, StripeSize: 64 << 20})
	fSplit := l.Create("split", FileOptions{StripeCount: 1, StripeSize: 2 << 20})
	e := sim.NewEngine()
	var tBig, tSplit int64
	e.Spawn("w", func(p *sim.Proc) {
		t0 := p.Now()
		Do(p, l, 0, fBig, []Seg{Contig(0, 8<<20)}, OpWrite)
		tBig = p.Now() - t0
	})
	e.Spawn("w2", func(p *sim.Proc) {
		t0 := p.Now()
		Do(p, l, 8, fSplit, []Seg{Contig(0, 8<<20)}, OpWrite)
		tSplit = p.Now() - t0
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Same OST count (stripe count 1) but 4 objects worth of stripes in the
	// split file... both files use 1 OST; the split file's write spans 4
	// stripes of the same object, so setup is equal; this guards that
	// stripes of one object do NOT multiply setup.
	if tSplit < tBig {
		t.Fatalf("split (%d) faster than big (%d)?", tSplit, tBig)
	}
}

// TestStorageBooksTopologyRates guards the one machine calibration: every
// link the storage models book between the compute fabric and the storage
// servers runs at the rate the topology answers for its level, the rate the
// cost model prices. A GPFS flush from a bridge node books its bridge link
// at Bandwidth(LevelIOUplink) and its ION at the per-op overhead plus
// Bandwidth(LevelStorage); a Lustre LNET router books at
// Bandwidth(LevelStorage).
func TestStorageBooksTopologyRates(t *testing.T) {
	const bytes = 1 << 30
	torus, fab := miraRig(512)
	g := NewGPFS(torus, fab, GPFSConfig{LockMode: LockShared})
	bridgeDur := sim.TransferTime(bytes, torus.Bandwidth(topology.LevelIOUplink))
	ionDur := gpfsPerOpOverhead + sim.TransferTime(bytes, torus.Bandwidth(topology.LevelStorage))
	for pset := 0; pset < torus.IONodes(); pset++ {
		for i, bridge := range torus.BridgeNodes(pset) {
			f := g.Create(fmt.Sprintf("f-%d-%d", pset, i), FileOptions{})
			g.reserve(0, bridge, f, []Seg{Contig(0, bytes)}, false)
			if got := g.bridgeLinks[pset][i].BusyTime(); got != bridgeDur {
				t.Errorf("pset %d bridge link %d booked %d ns for %d bytes, want %d", pset, i, got, bytes, bridgeDur)
			}
		}
		if got := g.ionUplink[pset].BusyTime(); got != 2*ionDur {
			t.Errorf("pset %d ION booked %d ns for two flushes of %d bytes, want %d", pset, got, bytes, 2*ionDur)
		}
	}

	dfly, fab := thetaRig(128)
	l := NewLustre(dfly, fab, LustreConfig{})
	lnetDur := sim.TransferTime(bytes, dfly.Bandwidth(topology.LevelStorage))
	for i, r := range l.lnet {
		if start, end := r.Reserve(0, bytes); end-start != lnetDur {
			t.Errorf("LNET router %d booked %d ns for %d bytes, want %d", i, end-start, bytes, lnetDur)
		}
	}
}
