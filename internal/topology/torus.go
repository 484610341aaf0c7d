package topology

import "fmt"

// Torus5D models the IBM Blue Gene/Q 5-D torus (Mira). Nodes are laid out
// row-major over the five dimensions A..E; consecutive node ids therefore
// form compact sub-boxes, which is how BG/Q partitions are carved.
//
// Pset structure: nodes are grouped into Psets of PsetSize consecutive nodes
// (128 on Mira). Each Pset shares one I/O node, reached through two bridge
// nodes inside the Pset.
//
// Link rates. The torus answers Bandwidth for every link between a compute
// node and the storage servers, and both the cost model and the GPFS model
// read that one answer. The paper's Figure 4 draws torus links at ~1.8 GB/s,
// bridge→ION links at 2 GB/s and ION→storage links at 4 GB/s. The torus rate
// is kept. The two I/O links carry the rates the GPFS model books instead,
// 1.8 GB/s per bridge link and 2.8 GB/s per ION: those are what reproduce
// the paper's measured peak of ≈2.8 GB/s per Pset (89.6 GB/s on 4,096
// nodes), and every figure was produced with them. A node injects over
// several torus links at once, so its NIC runs at twice the link rate.
type Torus5D struct {
	Dims [5]int
	// PsetSize is the number of nodes per Pset (sharing one ION).
	PsetSize int
	// TorusLinkBW is the per-link fabric bandwidth in bytes/sec.
	TorusLinkBW float64
	// HopLatency is the per-hop latency in nanoseconds.
	HopLatency int64

	n       int
	strides [5]int
}

// Mira's I/O link rates in bytes/sec (see Torus5D).
const (
	miraBridgeLinkBW = 1.8e9 // each of a Pset's two bridge-node→ION links
	miraIONBW        = 2.8e9 // an ION to storage, forwarding overheads included
)

// NewTorus5D builds a torus with the given dimensions and Mira-like default
// parameters (128-node Psets, 1.8 GB/s links, 690 ns per hop).
func NewTorus5D(dims [5]int) *Torus5D {
	t := &Torus5D{
		Dims:        dims,
		PsetSize:    128,
		TorusLinkBW: 1.8e9,
		HopLatency:  690,
	}
	t.init()
	return t
}

func (t *Torus5D) init() {
	n := 1
	for _, d := range t.Dims {
		if d <= 0 {
			panic(fmt.Sprintf("topology: torus dimension %v must be positive", t.Dims))
		}
		n *= d
	}
	t.n = n
	stride := 1
	for i := 4; i >= 0; i-- {
		t.strides[i] = stride
		stride *= t.Dims[i]
	}
	if t.PsetSize > t.n {
		t.PsetSize = t.n // small test tori: a single Pset
	}
	if t.PsetSize <= 0 || t.n%t.PsetSize != 0 {
		panic(fmt.Sprintf("topology: %d nodes not divisible into Psets of %d", t.n, t.PsetSize))
	}
}

func (t *Torus5D) Name() string { return fmt.Sprintf("bgq-torus5d-%d", t.n) }

func (t *Torus5D) Nodes() int { return t.n }

func (t *Torus5D) Dimensions() []int {
	d := make([]int, 5)
	copy(d, t.Dims[:])
	return d
}

func (t *Torus5D) Latency() int64 { return t.HopLatency }

// Coordinates returns the (A,B,C,D,E) coordinates of a node.
func (t *Torus5D) Coordinates(node int) []int {
	c := make([]int, 5)
	for i := 0; i < 5; i++ {
		c[i] = (node / t.strides[i]) % t.Dims[i]
	}
	return c
}

// NodeAt returns the node id at the given coordinates.
func (t *Torus5D) NodeAt(coord []int) int {
	node := 0
	for i := 0; i < 5; i++ {
		node += ((coord[i]%t.Dims[i] + t.Dims[i]) % t.Dims[i]) * t.strides[i]
	}
	return node
}

// Distance returns the torus hop distance: per-dimension shortest wrap.
func (t *Torus5D) Distance(a, b int) int {
	d := 0
	for i := 0; i < 5; i++ {
		ca := (a / t.strides[i]) % t.Dims[i]
		cb := (b / t.strides[i]) % t.Dims[i]
		delta := ca - cb
		if delta < 0 {
			delta = -delta
		}
		if wrap := t.Dims[i] - delta; wrap < delta {
			delta = wrap
		}
		d += delta
	}
	return d
}

func (t *Torus5D) Bandwidth(level int) float64 {
	switch level {
	case LevelInjection:
		return 2 * t.TorusLinkBW
	case LevelIOUplink:
		return miraBridgeLinkBW
	case LevelStorage:
		return miraIONBW
	}
	return t.TorusLinkBW
}

// IONodes returns the number of I/O nodes (one per Pset).
func (t *Torus5D) IONodes() int { return t.n / t.PsetSize }

// IONodeOf returns the Pset (== ION) index of a node.
func (t *Torus5D) IONodeOf(node int) int { return node / t.PsetSize }

// GroupOf exposes the Pset as the torus's locality group (tree.Grouper):
// node ids are row-major over the 5-d coordinates, so a Pset is a compact
// dimension-ordered sub-box — the natural clustering unit for staged
// reduction chains, mirroring Dragonfly.GroupOf.
func (t *Torus5D) GroupOf(node int) int { return node / t.PsetSize }

// BridgeNodes returns the two bridge nodes of a Pset: the first node and the
// node half a Pset later, spreading them spatially inside the sub-box.
func (t *Torus5D) BridgeNodes(pset int) [2]int {
	base := pset * t.PsetSize
	return [2]int{base, base + t.PsetSize/2}
}

// NearestBridge returns the bridge node of the node's Pset with the smallest
// hop distance (ties: the first bridge).
func (t *Torus5D) NearestBridge(node int) int {
	br := t.BridgeNodes(t.IONodeOf(node))
	if t.Distance(node, br[1]) < t.Distance(node, br[0]) {
		return br[1]
	}
	return br[0]
}

// DistanceToION returns hops from node to the ION: torus hops to the nearest
// bridge node of that ION's Pset, plus one hop on the bridge link.
func (t *Torus5D) DistanceToION(node, ion int) int {
	br := t.BridgeNodes(ion)
	d := t.Distance(node, br[0])
	if d2 := t.Distance(node, br[1]); d2 < d {
		d = d2
	}
	return d + 1
}

// Fabric links are directed, one per (node, dimension, direction):
// id = (node*5 + dim)*2 + dir, dir 0 = +1 step, dir 1 = -1 step.
func (t *Torus5D) NumLinks() int { return t.n * 5 * 2 }

func (t *Torus5D) LinkRate(link int) float64 { return t.TorusLinkBW }

// PathStats: the dimension-ordered route has exactly Distance(a, b) hops,
// all at the uniform torus link rate; a same-node pair reports the
// injection rate.
func (t *Torus5D) PathStats(a, b int) (hops int, bottleneck float64, ok bool) {
	if a == b {
		return 0, t.Bandwidth(LevelInjection), true
	}
	return t.Distance(a, b), t.TorusLinkBW, true
}

// Route returns the dimension-ordered (A then B…E) shortest-wrap route.
// Ties between the two wrap directions go to the positive direction, making
// routes fully deterministic.
func (t *Torus5D) Route(a, b int) []int {
	if a == b {
		return nil
	}
	route := make([]int, 0, t.Distance(a, b))
	cur := a
	curCoord := t.Coordinates(a)
	for dim := 0; dim < 5; dim++ {
		size := t.Dims[dim]
		cb := (b / t.strides[dim]) % size
		for curCoord[dim] != cb {
			fwd := ((cb - curCoord[dim]) + size) % size
			bwd := size - fwd
			dir := 0
			step := 1
			if bwd < fwd {
				dir = 1
				step = -1
			}
			route = append(route, (cur*5+dim)*2+dir)
			curCoord[dim] = ((curCoord[dim]+step)%size + size) % size
			cur = t.NodeAt(curCoord)
		}
	}
	return route
}
