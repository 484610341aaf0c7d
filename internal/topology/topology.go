// Package topology models supercomputer interconnect topologies.
//
// It provides the generic abstraction from the TAPIOCA paper (Listing 1:
// bandwidth per level, latency, dimensions, rank/node coordinates, I/O-node
// distances) plus the extra structure the simulator needs: deterministic
// routes as sequences of link ids so a network model can attach a contention
// resource to every physical link.
//
// Two production topologies are implemented:
//
//   - Torus5D: the IBM Blue Gene/Q 5-D torus with Psets (128-node blocks
//     sharing an I/O node through two bridge nodes), as on Mira.
//   - Dragonfly: the Cray XC40 Aries dragonfly (groups of 96 routers in a
//     16×6 2-D all-to-all, 4 nodes per router), as on Theta.
//
// A trivial Flat topology supports unit tests.
package topology

// Bandwidth levels used by Bandwidth(level), mirroring the paper's
// getBandwidth(level) interface.
const (
	LevelInjection = iota // node ↔ first switch/NIC
	LevelFabric           // compute interconnect links
	LevelIOUplink         // bridge/service node ↔ I/O node or LNET
	LevelStorage          // I/O node ↔ storage servers
)

// LocalBandwidth is the intra-node (shared-memory) copy bandwidth in
// bytes/second on every machine model. The fabric moves same-node transfers
// and staging copies at it, and the cost model prices co-located moves with
// it, so predicted and simulated copies run at one speed.
const LocalBandwidth = 8e9

// IONUnknown is returned by IONodeOf when the platform does not expose
// I/O-node locality to applications (e.g. Lustre LNET mapping on Theta). The
// TAPIOCA cost model sets the I/O-phase cost C2 to zero in that case, as in
// the paper.
const IONUnknown = -1

// Topology describes an interconnect, in the spirit of the paper's generic
// topology interface, extended with explicit link-level routing for the
// simulator.
type Topology interface {
	// Name identifies the topology (for reports).
	Name() string
	// Nodes returns the number of compute nodes.
	Nodes() int
	// Dimensions returns the network dimensions (paper: NetworkDimensions).
	Dimensions() []int
	// Coordinates returns a node's coordinates (paper: RankToCoordinates;
	// rank→node mapping is the runtime's concern).
	Coordinates(node int) []int
	// Distance returns the hop count between two nodes
	// (paper: DistanceBetweenRanks).
	Distance(a, b int) int
	// Bandwidth returns the link bandwidth in bytes/second at a level
	// (paper: getBandwidth).
	Bandwidth(level int) float64
	// Latency returns the per-hop latency in nanoseconds (paper: getLatency).
	Latency() int64
	// IONodes returns the number of I/O nodes (paper: IONodesPerFile).
	IONodes() int
	// IONodeOf returns the I/O node serving a compute node, or IONUnknown
	// when the platform hides the mapping.
	IONodeOf(node int) int
	// DistanceToION returns the hop count from a node to an I/O node's
	// gateway (paper: DistanceToIONode). Zero when unknown.
	DistanceToION(node, ion int) int

	// NumLinks returns the number of directed fabric links.
	NumLinks() int
	// LinkRate returns a link's bandwidth in bytes/second.
	LinkRate(link int) float64
	// Route returns the deterministic sequence of link ids from a to b.
	// An empty route means the endpoints share a node.
	Route(a, b int) []int
	// PathStats reports the route length and the minimum link rate along
	// Route(a, b) without materializing the link sequence — the compact
	// table endpoint-model simulations use so they never allocate a route.
	// The answer is exact: hops == len(Route(a, b)) and bottleneck ==
	// min(LinkRate(l) for l in Route(a, b)). ok = false when the answer
	// would require walking the actual route (non-minimal routing modes);
	// callers then walk Route. A same-node pair has an empty route: it
	// reports zero hops at the injection-level rate.
	PathStats(a, b int) (hops int, bottleneck float64, ok bool)
}

// PathInfo returns the hop count and bottleneck bandwidth between two nodes.
// For same-node paths the bandwidth is reported as the injection-level rate.
func PathInfo(t Topology, a, b int) (hops int, bottleneck float64) {
	if hops, bottleneck, ok := t.PathStats(a, b); ok {
		return hops, bottleneck
	}
	route := t.Route(a, b)
	if len(route) == 0 {
		return 0, t.Bandwidth(LevelInjection)
	}
	bottleneck = t.LinkRate(route[0])
	for _, l := range route[1:] {
		if r := t.LinkRate(l); r < bottleneck {
			bottleneck = r
		}
	}
	return len(route), bottleneck
}

// Flat is a degenerate single-switch topology: every pair of nodes is one
// hop apart through a private full-duplex link. It keeps unit tests of the
// upper layers independent of torus/dragonfly details.
type Flat struct {
	N        int
	LinkBW   float64 // bytes/sec, default 1 GB/s
	HopDelay int64   // ns, default 1µs
	NumIONs  int     // default 1
}

// NewFlat returns a Flat topology with n nodes and sensible defaults.
func NewFlat(n int) *Flat {
	return &Flat{N: n, LinkBW: 1e9, HopDelay: 1000, NumIONs: 1}
}

func (f *Flat) Name() string      { return "flat" }
func (f *Flat) Nodes() int        { return f.N }
func (f *Flat) Dimensions() []int { return []int{f.N} }
func (f *Flat) Latency() int64    { return f.HopDelay }
func (f *Flat) Coordinates(node int) []int {
	return []int{node}
}

func (f *Flat) Distance(a, b int) int {
	if a == b {
		return 0
	}
	return 1
}

func (f *Flat) Bandwidth(level int) float64 { return f.LinkBW }

func (f *Flat) IONodes() int {
	if f.NumIONs <= 0 {
		return 1
	}
	return f.NumIONs
}

func (f *Flat) IONodeOf(node int) int {
	per := (f.N + f.IONodes() - 1) / f.IONodes()
	return node / per
}

func (f *Flat) DistanceToION(node, ion int) int { return 1 }

// Each node has one outgoing and one incoming link to the virtual switch.
func (f *Flat) NumLinks() int             { return 2 * f.N }
func (f *Flat) LinkRate(link int) float64 { return f.LinkBW }

func (f *Flat) Route(a, b int) []int {
	if a == b {
		return nil
	}
	return []int{2 * a, 2*b + 1} // a's uplink, b's downlink
}

// PathStats: every distinct pair routes over exactly two links of the
// uniform rate.
func (f *Flat) PathStats(a, b int) (hops int, bottleneck float64, ok bool) {
	if a == b {
		return 0, f.LinkBW, true
	}
	return 2, f.LinkBW, true
}
