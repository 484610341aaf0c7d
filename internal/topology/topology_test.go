package topology

import (
	"math"
	"slices"
	"testing"
)

// TestPathStatsMatchesRoute checks the PathStats contract on every pair of
// small instances of each topology: an ok answer equals the route's length
// and its minimum link rate (the injection rate for a same-node pair), and
// only a Valiant detour (a route that leaves the minimal path) may answer
// ok = false. The dragonfly runs at Theta's link rates (host links slowest)
// and with the electrical or the optical class slowest, so each class's
// bottleneck rule is checked.
func TestPathStatsMatchesRoute(t *testing.T) {
	small := func(routing int, host, electrical, optical float64) *Dragonfly {
		d := &Dragonfly{Groups: 4, Rows: 2, Cols: 3, NodesPerRouter: 2, ServiceNodes: 2,
			HostLinkBW: host, ElectricalBW: electrical, OpticalBW: optical,
			GatewaysPerPair: 2, HopLatency: 850, Routing: routing}
		d.init()
		return d
	}
	minimal := small(RouteMinimal, 10e9, 14e9, 12.5e9)
	cases := []struct {
		name    string
		topo    Topology
		minimal Topology // the same machine under minimal routing; nil when topo never detours
	}{
		{"torus", NewTorus5D([5]int{4, 3, 2, 2, 2}), nil},
		{"dragonfly-minimal", minimal, nil},
		{"dragonfly-electrical-bound", small(RouteMinimal, 20e9, 5e9, 12.5e9), nil},
		{"dragonfly-optical-bound", small(RouteMinimal, 20e9, 14e9, 6e9), nil},
		{"dragonfly-valiant", small(RouteValiant, 10e9, 14e9, 12.5e9), minimal},
		{"flat", NewFlat(8), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo, n, detours := tc.topo, tc.topo.Nodes(), 0
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					hops, bn, ok := topo.PathStats(a, b)
					route := topo.Route(a, b)
					if !ok {
						if tc.minimal == nil || slices.Equal(route, tc.minimal.Route(a, b)) {
							t.Fatalf("PathStats(%d, %d) ok = false on a route that does not detour", a, b)
						}
						detours++
						continue
					}
					if hops != len(route) {
						t.Fatalf("PathStats(%d, %d) hops = %d, route has %d links", a, b, hops, len(route))
					}
					want := math.Inf(1)
					for _, l := range route {
						want = min(want, topo.LinkRate(l))
					}
					if a == b {
						want = topo.Bandwidth(LevelInjection)
					}
					if bn != want {
						t.Fatalf("PathStats(%d, %d) bottleneck = %g, route minimum is %g", a, b, bn, want)
					}
				}
			}
			if tc.minimal != nil && detours == 0 {
				t.Fatal("no pair detoured: the ok = false path went unexercised")
			}
		})
	}
}
