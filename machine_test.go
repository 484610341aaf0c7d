package tapioca

import (
	"testing"

	"tapioca/internal/topology"
)

// TestMiraInjectsAtTopologyRate: the Mira machine's NICs run at the torus's
// injection-level rate, the one value the topology reports for it.
func TestMiraInjectsAtTopologyRate(t *testing.T) {
	m := Mira(128)
	if got, want := m.fab.Config().InjectRate, m.topo.Bandwidth(topology.LevelInjection); got != want {
		t.Fatalf("Mira fabric injects at %g B/s, topology answers %g", got, want)
	}
}
