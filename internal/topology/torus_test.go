package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTorusNodeCount(t *testing.T) {
	tor := NewTorus5D([5]int{4, 4, 4, 4, 2})
	if tor.Nodes() != 512 {
		t.Fatalf("nodes = %d, want 512", tor.Nodes())
	}
	if tor.IONodes() != 4 {
		t.Fatalf("IONs = %d, want 4", tor.IONodes())
	}
}

func TestTorusCoordinatesRoundTrip(t *testing.T) {
	tor := NewTorus5D([5]int{4, 4, 4, 8, 2})
	for node := 0; node < tor.Nodes(); node++ {
		c := tor.Coordinates(node)
		if got := tor.NodeAt(c); got != node {
			t.Fatalf("NodeAt(Coordinates(%d)) = %d", node, got)
		}
		for i, v := range c {
			if v < 0 || v >= tor.Dims[i] {
				t.Fatalf("node %d coordinate %d out of range: %v", node, i, c)
			}
		}
	}
}

func TestTorusDistanceIdentity(t *testing.T) {
	tor := MiraTorus(512)
	for node := 0; node < tor.Nodes(); node += 37 {
		if d := tor.Distance(node, node); d != 0 {
			t.Fatalf("Distance(%d,%d) = %d, want 0", node, node, d)
		}
	}
}

func TestTorusDistanceSymmetric(t *testing.T) {
	tor := MiraTorus(512)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a, b := rng.Intn(tor.Nodes()), rng.Intn(tor.Nodes())
		if tor.Distance(a, b) != tor.Distance(b, a) {
			t.Fatalf("asymmetric distance between %d and %d", a, b)
		}
	}
}

func TestTorusDistanceTriangleInequality(t *testing.T) {
	tor := MiraTorus(256)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		a, b, c := rng.Intn(tor.Nodes()), rng.Intn(tor.Nodes()), rng.Intn(tor.Nodes())
		if tor.Distance(a, c) > tor.Distance(a, b)+tor.Distance(b, c) {
			t.Fatalf("triangle inequality violated for %d,%d,%d", a, b, c)
		}
	}
}

func TestTorusWrapDistance(t *testing.T) {
	tor := NewTorus5D([5]int{8, 1, 1, 1, 1})
	// Nodes 0 and 7 on a ring of 8 are 1 hop apart (wraparound).
	if d := tor.Distance(0, 7); d != 1 {
		t.Fatalf("wrap distance = %d, want 1", d)
	}
	if d := tor.Distance(0, 4); d != 4 {
		t.Fatalf("antipodal distance = %d, want 4", d)
	}
}

func TestTorusRouteLengthEqualsDistance(t *testing.T) {
	tor := MiraTorus(512)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		a, b := rng.Intn(tor.Nodes()), rng.Intn(tor.Nodes())
		route := tor.Route(a, b)
		if len(route) != tor.Distance(a, b) {
			t.Fatalf("route length %d != distance %d for %d→%d", len(route), tor.Distance(a, b), a, b)
		}
		for _, l := range route {
			if l < 0 || l >= tor.NumLinks() {
				t.Fatalf("route link %d out of range", l)
			}
		}
	}
}

func TestTorusRouteDeterministic(t *testing.T) {
	tor := MiraTorus(512)
	a, b := 13, 401
	r1 := tor.Route(a, b)
	r2 := tor.Route(a, b)
	if len(r1) != len(r2) {
		t.Fatal("route lengths differ")
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("routes differ between calls")
		}
	}
}

// Property: routes visit distinct links (dimension-ordered minimal routes
// never revisit a link).
func TestTorusRouteNoLinkRepeats(t *testing.T) {
	tor := MiraTorus(256)
	f := func(a, b uint16) bool {
		x, y := int(a)%tor.Nodes(), int(b)%tor.Nodes()
		route := tor.Route(x, y)
		seen := map[int]bool{}
		for _, l := range route {
			if seen[l] {
				return false
			}
			seen[l] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTorusPsets(t *testing.T) {
	tor := MiraTorus(1024)
	if tor.IONodes() != 8 {
		t.Fatalf("IONs = %d, want 8", tor.IONodes())
	}
	for node := 0; node < tor.Nodes(); node++ {
		if pset := tor.IONodeOf(node); pset != node/128 {
			t.Fatalf("IONodeOf(%d) = %d, want %d", node, pset, node/128)
		}
	}
}

func TestTorusBridgeNodesInsidePset(t *testing.T) {
	tor := MiraTorus(1024)
	for pset := 0; pset < tor.IONodes(); pset++ {
		br := tor.BridgeNodes(pset)
		for _, b := range br[:] {
			if tor.IONodeOf(b) != pset {
				t.Fatalf("bridge node %d of pset %d is in pset %d", b, pset, tor.IONodeOf(b))
			}
		}
		if br[0] == br[1] {
			t.Fatalf("pset %d has duplicate bridge nodes", pset)
		}
	}
}

func TestTorusNearestBridge(t *testing.T) {
	tor := MiraTorus(512)
	for node := 0; node < tor.Nodes(); node += 11 {
		nb := tor.NearestBridge(node)
		br := tor.BridgeNodes(tor.IONodeOf(node))
		dn := tor.Distance(node, nb)
		for _, b := range br[:] {
			if tor.Distance(node, b) < dn {
				t.Fatalf("NearestBridge(%d) = %d is not nearest", node, nb)
			}
		}
	}
}

func TestTorusDistanceToION(t *testing.T) {
	tor := MiraTorus(512)
	// A bridge node itself is one hop (the bridge link) from its ION.
	br := tor.BridgeNodes(0)
	if d := tor.DistanceToION(br[0], 0); d != 1 {
		t.Fatalf("bridge DistanceToION = %d, want 1", d)
	}
	// Any node is strictly positive hops away.
	for node := 0; node < tor.Nodes(); node += 13 {
		if d := tor.DistanceToION(node, tor.IONodeOf(node)); d < 1 {
			t.Fatalf("DistanceToION(%d) = %d, want >= 1", node, d)
		}
	}
}

func TestTorusPsetIsCompact(t *testing.T) {
	// Consecutive-id Psets must be geometrically compact: max intra-Pset
	// distance well below the torus diameter.
	tor := MiraTorus(1024)
	diam := 0
	for i := 0; i < 5; i++ {
		diam += tor.Dims[i] / 2
	}
	maxIntra := 0
	base := 3 * tor.PsetSize // probe pset 3
	for i := 0; i < tor.PsetSize; i++ {
		for j := i + 1; j < tor.PsetSize; j += 7 {
			if d := tor.Distance(base+i, base+j); d > maxIntra {
				maxIntra = d
			}
		}
	}
	if maxIntra >= diam {
		t.Fatalf("pset diameter %d not compact (torus diameter %d)", maxIntra, diam)
	}
}

func TestMiraPresets(t *testing.T) {
	for _, n := range []int{128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 49152} {
		tor := MiraTorus(n)
		if tor.Nodes() != n {
			t.Fatalf("MiraTorus(%d).Nodes() = %d", n, tor.Nodes())
		}
		if n >= 128 && tor.Nodes()%tor.PsetSize != 0 {
			t.Fatalf("MiraTorus(%d) not divisible into Psets", n)
		}
	}
}

func TestMiraPresetUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unsupported size")
		}
	}()
	MiraTorus(300)
}

func TestTorusBandwidthLevels(t *testing.T) {
	tor := MiraTorus(512)
	if tor.Bandwidth(LevelFabric) != 1.8e9 {
		t.Fatalf("fabric BW = %v", tor.Bandwidth(LevelFabric))
	}
	if tor.Bandwidth(LevelInjection) != 3.6e9 {
		t.Fatalf("injection BW = %v", tor.Bandwidth(LevelInjection))
	}
	if tor.Bandwidth(LevelIOUplink) != 1.8e9 {
		t.Fatalf("uplink BW = %v", tor.Bandwidth(LevelIOUplink))
	}
	if tor.Bandwidth(LevelStorage) != 2.8e9 {
		t.Fatalf("storage BW = %v", tor.Bandwidth(LevelStorage))
	}
}

func TestPathInfoTorus(t *testing.T) {
	tor := MiraTorus(512)
	hops, bw := PathInfo(tor, 0, 1)
	if hops != tor.Distance(0, 1) {
		t.Fatalf("hops = %d, want %d", hops, tor.Distance(0, 1))
	}
	if bw != tor.TorusLinkBW {
		t.Fatalf("bottleneck = %v, want %v", bw, tor.TorusLinkBW)
	}
	hops, bw = PathInfo(tor, 7, 7)
	if hops != 0 || bw != tor.Bandwidth(LevelInjection) {
		t.Fatalf("same-node path = (%d, %v), want (0, %v)", hops, bw, tor.Bandwidth(LevelInjection))
	}
}
