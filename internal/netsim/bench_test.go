package netsim

import (
	"testing"

	"tapioca/internal/topology"
)

// benchFabric builds a fabric over the given topology and contention mode
// and warms the path cache for the benchmark's node pairs.
func benchFabric(topo topology.Topology, contention int) *Fabric {
	return New(topo, Config{Contention: contention})
}

// benchPairs returns a deterministic spread of (src, dst) node pairs.
func benchPairs(nodes, n int) [][2]int {
	pairs := make([][2]int, n)
	for i := range pairs {
		src := (i * 97) % nodes
		dst := (i*193 + nodes/2) % nodes
		if dst == src {
			dst = (dst + 1) % nodes
		}
		pairs[i] = [2]int{src, dst}
	}
	return pairs
}

func benchmarkReserve(b *testing.B, topo topology.Topology, contention int) {
	f := New(topo, Config{Contention: contention})
	pairs := benchPairs(topo.Nodes(), 64)
	// Warm: create NICs, links and the path entries.
	for _, p := range pairs {
		f.Reserve(0, p[0], p[1], 4096)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		f.Reserve(0, p[0], p[1], 4096)
	}
}

func BenchmarkFabricReserve(b *testing.B) {
	torus := topology.MiraTorus(512)
	dfly := topology.ThetaDragonfly(512, topology.RouteMinimal)
	b.Run("torus-links-cached", func(b *testing.B) { benchmarkReserve(b, torus, ContentionLinks) })
	b.Run("dragonfly-links-cached", func(b *testing.B) { benchmarkReserve(b, dfly, ContentionLinks) })
	b.Run("dragonfly-endpoint-cached", func(b *testing.B) { benchmarkReserve(b, dfly, ContentionEndpoint) })
}

// TestFabricReserveZeroAlloc pins the acceptance bar: with a warm path
// cache, Reserve allocates nothing in steady state, on both production
// topologies and both contention models.
func TestFabricReserveZeroAlloc(t *testing.T) {
	cases := []struct {
		name       string
		topo       topology.Topology
		contention int
	}{
		{"torus-links", topology.MiraTorus(512), ContentionLinks},
		{"torus-endpoint", topology.MiraTorus(512), ContentionEndpoint},
		{"dragonfly-links", topology.ThetaDragonfly(512, topology.RouteMinimal), ContentionLinks},
		{"dragonfly-endpoint", topology.ThetaDragonfly(512, topology.RouteMinimal), ContentionEndpoint},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := benchFabric(tc.topo, tc.contention)
			pairs := benchPairs(tc.topo.Nodes(), 16)
			for _, p := range pairs {
				f.Reserve(0, p[0], p[1], 4096)
			}
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				p := pairs[i%len(pairs)]
				i++
				f.Reserve(0, p[0], p[1], 4096)
			})
			if allocs != 0 {
				t.Fatalf("warm Reserve allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

// TestReserveScratchReuse is the aliasing regression net for the reused
// resource scratch and interned path arena: a long random sequence of
// Reserve calls on one fabric must produce exactly the same (senderFree,
// arrival) stream as the same sequence on a twin fabric whose path cache,
// arena and link ids are cleared before every call, so it rebuilds every
// route from scratch. Stale or prematurely-reset scratch entries, or arena
// spans clobbered by growth, would corrupt the resource list of some call
// and diverge the streams.
func TestReserveScratchReuse(t *testing.T) {
	topos := []topology.Topology{
		topology.MiraTorus(512),
		topology.ThetaDragonfly(512, topology.RouteMinimal),
		topology.ThetaDragonfly(512, topology.RouteValiant),
	}
	for _, topo := range topos {
		for _, contention := range []int{ContentionEndpoint, ContentionLinks} {
			cached := New(topo, Config{Contention: contention})
			uncached := New(topo, Config{Contention: contention})

			pairs := benchPairs(topo.Nodes(), 200)
			now := int64(0)
			for i, p := range pairs {
				bytes := int64(1024 * (i%7 + 1))
				sf1, ar1 := cached.Reserve(now, p[0], p[1], bytes)
				clear(uncached.paths)
				uncached.resArena, uncached.resIDs = nil, nil
				sf2, ar2 := uncached.Reserve(now, p[0], p[1], bytes)
				if sf1 != sf2 || ar1 != ar2 {
					t.Fatalf("%s contention=%d call %d (%d→%d): cached (%d,%d) != uncached (%d,%d)",
						topo.Name(), contention, i, p[0], p[1], sf1, ar1, sf2, ar2)
				}
				now += 500
			}
		}
	}
}

// TestMaxNICUtilizationLazy: the diagnostic must see traffic through lazily
// created NICs and report zero on an untouched fabric without creating any.
func TestMaxNICUtilizationLazy(t *testing.T) {
	f := benchFabric(topology.MiraTorus(512), ContentionLinks)
	if u := f.MaxNICUtilization(1e9); u != 0 {
		t.Fatalf("idle fabric utilization = %v, want 0", u)
	}
	for i := range f.nicIn {
		if f.nicIn[i] != nil || f.nicOut[i] != nil {
			t.Fatalf("NIC %d created without traffic", i)
		}
	}
	f.Reserve(0, 3, 9, 1<<20)
	if u := f.MaxNICUtilization(1e9); u <= 0 {
		t.Fatalf("utilization after transfer = %v, want > 0", u)
	}
	created := 0
	for i := range f.nicIn {
		if f.nicIn[i] != nil {
			created++
		}
		if f.nicOut[i] != nil {
			created++
		}
	}
	if created != 2 {
		t.Fatalf("%d NICs created, want exactly 2 (sender out, receiver in)", created)
	}
}
