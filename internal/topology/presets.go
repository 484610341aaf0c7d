package topology

import (
	"fmt"
	"sort"
)

// miraShapes maps each supported Mira partition size to its torus shape.
// Partition shapes follow the compact sub-box geometry BG/Q uses.
var miraShapes = map[int][5]int{
	128:   {2, 2, 4, 4, 2},
	256:   {4, 2, 4, 4, 2},
	512:   {4, 4, 4, 4, 2},
	1024:  {4, 4, 4, 8, 2},
	2048:  {4, 4, 8, 8, 2},
	4096:  {4, 8, 8, 8, 2},
	8192:  {8, 8, 8, 8, 2},
	16384: {8, 8, 8, 16, 2},
	32768: {8, 8, 16, 16, 2},
	49152: {8, 12, 16, 16, 2},
}

// MiraSizes returns the node counts MiraTorus supports, ascending: powers
// of two from 128 to 32768, plus 49152.
func MiraSizes() []int {
	sizes := make([]int, 0, len(miraShapes))
	for n := range miraShapes {
		sizes = append(sizes, n)
	}
	sort.Ints(sizes)
	return sizes
}

// MiraTorus returns a Mira-like BG/Q torus partition for the given node
// count, which must be one of MiraSizes.
func MiraTorus(nodes int) *Torus5D {
	dims, ok := miraShapes[nodes]
	if !ok {
		panic(fmt.Sprintf("topology: no Mira partition shape for %d nodes", nodes))
	}
	return NewTorus5D(dims)
}

// ThetaDragonfly returns a Theta-like XC40 dragonfly sized for the given
// compute-node count, with the default LNET service-node population and the
// requested routing mode.
func ThetaDragonfly(nodes, routing int) *Dragonfly {
	return DragonflyForNodes(nodes, 28, routing)
}
