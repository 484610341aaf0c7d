package netsim

import (
	"testing"

	"tapioca/internal/sim"
	"tapioca/internal/topology"
)

func flatFabric(n int) *Fabric {
	topo := topology.NewFlat(n)
	return New(topo, Config{Contention: ContentionLinks})
}

func TestTransferTiming(t *testing.T) {
	e := sim.NewEngine()
	f := flatFabric(4)
	// Flat: 1 GB/s links, 1 µs hops, 1 µs software overhead.
	e.Spawn("tx", func(p *sim.Proc) {
		senderFree, arrival := f.Reserve(p.Now(), 0, 1, 1_000_000) // 1 MB
		wantDur := sim.TransferTime(1_000_000, 1e9)                // 1 ms
		if senderFree != 1000+wantDur {
			t.Errorf("senderFree = %d, want %d", senderFree, 1000+wantDur)
		}
		// 2 links on the flat route → 2 µs of hop latency.
		if arrival != 1000+2000+wantDur {
			t.Errorf("arrival = %d, want %d", arrival, 1000+2000+wantDur)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestIntraNodeTransfer(t *testing.T) {
	e := sim.NewEngine()
	f := flatFabric(4)
	e.Spawn("tx", func(p *sim.Proc) {
		sf, arr := f.Reserve(p.Now(), 2, 2, 8_000_000) // 8 MB at 8 GB/s = 1 ms
		if sf != arr {
			t.Errorf("intra-node senderFree %d != arrival %d", sf, arr)
		}
		if arr != 1000+sim.TransferTime(8_000_000, topology.LocalBandwidth) {
			t.Errorf("arrival = %d", arr)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestIncastSerializesAtReceiver(t *testing.T) {
	// N senders → one receiver: arrivals must be spaced by the ejection
	// serialization, not simultaneous.
	e := sim.NewEngine()
	f := flatFabric(8)
	const senders = 4
	const bytes = 1_000_000
	var arrivals []int64
	for i := 0; i < senders; i++ {
		src := i + 1
		e.Spawn("tx", func(p *sim.Proc) {
			_, arr := f.Reserve(p.Now(), src, 0, bytes)
			arrivals = append(arrivals, arr)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	per := sim.TransferTime(bytes, 1e9)
	last := arrivals[0]
	for _, a := range arrivals[1:] {
		if a < last+per {
			t.Fatalf("arrivals %v not serialized by at least %d", arrivals, per)
		}
		last = a
	}
}

func TestDisjointPairsDoNotContend(t *testing.T) {
	e := sim.NewEngine()
	f := flatFabric(8)
	var arr [2]int64
	e.Spawn("a", func(p *sim.Proc) { _, arr[0] = f.Reserve(p.Now(), 0, 1, 1_000_000) })
	e.Spawn("b", func(p *sim.Proc) { _, arr[1] = f.Reserve(p.Now(), 2, 3, 1_000_000) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if arr[0] != arr[1] {
		t.Fatalf("disjoint transfers finished at %d and %d, want equal", arr[0], arr[1])
	}
}

func TestLinkContentionOnTorus(t *testing.T) {
	// Two flows forced over the same torus link must serialize under
	// ContentionLinks and not under ContentionEndpoint.
	tor := topology.NewTorus5D([5]int{8, 1, 1, 1, 1})
	for _, mode := range []int{ContentionEndpoint, ContentionLinks} {
		e := sim.NewEngine()
		f := New(tor, Config{Contention: mode})
		// Flow 0→2 routes 0→1→2 and flow 1→3 routes 1→2→3: they share
		// only the middle link 1→2, no NICs.
		var arr [2]int64
		e.Spawn("a", func(p *sim.Proc) { _, arr[0] = f.Reserve(p.Now(), 0, 2, 10_000_000) })
		e.Spawn("b", func(p *sim.Proc) { _, arr[1] = f.Reserve(p.Now(), 1, 3, 10_000_000) })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		dur := sim.TransferTime(10_000_000, tor.TorusLinkBW)
		gap := arr[1] - arr[0]
		if gap < 0 {
			gap = -gap
		}
		if mode == ContentionLinks && gap < dur/2 {
			t.Errorf("links mode: flows overlapped fully (gap %d, dur %d)", gap, dur)
		}
		if mode == ContentionEndpoint && gap > dur/2 {
			t.Errorf("endpoint mode: unexpected serialization (gap %d)", gap)
		}
	}
}

func TestBottleneckBandwidthHonored(t *testing.T) {
	// Theta dragonfly: host links are 10 GB/s, so a node-to-node transfer
	// can never beat 10 GB/s even though electrical links are 14 GB/s.
	d := topology.ThetaDragonfly(512, topology.RouteMinimal)
	e := sim.NewEngine()
	f := New(d, Config{Contention: ContentionEndpoint})
	e.Spawn("tx", func(p *sim.Proc) {
		const bytes = 100_000_000
		_, arr := f.Reserve(p.Now(), 0, 100, bytes)
		minDur := sim.TransferTime(bytes, 10e9)
		if arr < minDur {
			t.Errorf("arrival %d beats host-link floor %d", arr, minDur)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSendBlocksSender(t *testing.T) {
	e := sim.NewEngine()
	f := flatFabric(4)
	e.Spawn("tx", func(p *sim.Proc) {
		senderFree, arr := f.Reserve(p.Now(), 0, 1, 2_000_000)
		p.HoldUntil(senderFree)
		if p.Now() < sim.TransferTime(2_000_000, 1e9) {
			t.Errorf("sender not blocked for injection: now=%d", p.Now())
		}
		if arr < p.Now() {
			t.Errorf("arrival %d before sender completion %d", arr, p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAccounting(t *testing.T) {
	e := sim.NewEngine()
	f := flatFabric(4)
	e.Spawn("tx", func(p *sim.Proc) {
		f.Reserve(p.Now(), 0, 1, 100)
		f.Reserve(p.Now(), 1, 2, 200)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if f.Transfers() != 2 || f.TotalBytes() != 300 {
		t.Fatalf("accounting = (%d, %d), want (2, 300)", f.Transfers(), f.TotalBytes())
	}
}

func TestDefaultsFromTopology(t *testing.T) {
	tor := topology.MiraTorus(512)
	f := New(tor, Config{})
	cfg := f.Config()
	if cfg.InjectRate != tor.Bandwidth(topology.LevelInjection) {
		t.Errorf("inject rate = %v", cfg.InjectRate)
	}
	// A control message pays the 1 µs software overhead plus the
	// topology's per-hop latency on every hop.
	src, dst := 0, tor.Nodes()-1
	want := 1000 + int64(tor.Distance(src, dst))*tor.Latency()
	if got := f.LatencyTo(src, dst); got != want {
		t.Errorf("latency %d→%d = %v, want %v", src, dst, got, want)
	}
	if got := f.LatencyTo(src, src); got != 1000 {
		t.Errorf("same-node latency = %v, want the 1 µs software overhead", got)
	}
}
