package netsim

import (
	"math"
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

// TestPathCacheMatchesRouteWalk is the path cache's oracle. On one fabric per
// topology and contention mode, the cached entry of every ordered pair of
// distinct nodes must equal a walk of topo.Route with LinkRate: the hop
// count, the bottleneck rate and, in link-contention mode, the span of
// interned link ids and resources. All pairs go through the same fabric, twice, so a cache key
// that collides two pairs hands one of them the other's entry. In endpoint
// mode the entry holds no links and, where the topology answers PathStats,
// carries exactly that answer.
func TestPathCacheMatchesRouteWalk(t *testing.T) {
	dfly := func(routing int) topology.Topology {
		return topology.NewDragonfly(topology.DragonflyConfig{
			Groups: 4, Rows: 2, Cols: 3, NodesPerRouter: 2, ServiceNodes: 2, Routing: routing})
	}
	topos := []struct {
		name string
		topo topology.Topology
	}{
		{"mira-torus", topology.MiraTorus(128)},
		{"dragonfly-minimal", dfly(topology.RouteMinimal)},
		{"dragonfly-valiant", dfly(topology.RouteValiant)},
		{"flat", topology.NewFlat(8)},
	}
	modes := []struct {
		name       string
		contention int
	}{{"endpoint", ContentionEndpoint}, {"links", ContentionLinks}}
	for _, tc := range topos {
		for _, m := range modes {
			t.Run(tc.name+"/"+m.name, func(t *testing.T) {
				topo, n := tc.topo, tc.topo.Nodes()
				f := New(topo, Config{Contention: m.contention})
				for pass := 0; pass < 2; pass++ {
					for src := 0; src < n; src++ {
						for dst := 0; dst < n; dst++ {
							if src != dst { // Reserve books a node to itself without a path
								checkPath(t, f, src, dst)
							}
						}
					}
				}
			})
		}
	}
}

// checkPath compares one cached path entry against a walk of the route.
func checkPath(t *testing.T, f *Fabric, src, dst int) {
	t.Helper()
	topo := f.topo
	e := f.path(src, dst)
	route := topo.Route(src, dst)
	bottleneck := math.Inf(1)
	for _, l := range route {
		bottleneck = min(bottleneck, topo.LinkRate(l))
	}
	if int(e.hops) != len(route) || e.bottleneck != bottleneck {
		t.Fatalf("path(%d, %d) = %d hops at %g B/s, route walk gives %d hops at %g B/s",
			src, dst, e.hops, e.bottleneck, len(route), bottleneck)
	}
	ids, res := f.resIDs[e.off:e.off+e.n], f.resArena[e.off:e.off+e.n]
	if f.cfg.Contention != ContentionLinks {
		if e.n != 0 {
			t.Fatalf("path(%d, %d) interns %d links on an endpoint fabric", src, dst, e.n)
		}
		if hops, bn, ok := topo.PathStats(src, dst); ok && (int(e.hops) != hops || e.bottleneck != bn) {
			t.Fatalf("path(%d, %d) = %d hops at %g B/s, PathStats gives %d hops at %g B/s",
				src, dst, e.hops, e.bottleneck, hops, bn)
		}
		return
	}
	if len(ids) != len(route) {
		t.Fatalf("path(%d, %d) interns %d links, route has %d", src, dst, len(ids), len(route))
	}
	for i, l := range route {
		if int(ids[i]) != l || res[i] != f.links[l] {
			t.Fatalf("path(%d, %d) link %d = id %d, route has %d (or its resource differs)", src, dst, i, ids[i], l)
		}
	}
}
