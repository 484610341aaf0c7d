package topology

import "fmt"

// Routing modes for the dragonfly.
const (
	// RouteMinimal is direct minimal routing (the IN_ORDER setting from the
	// paper's Theta tuning: best for large aligned I/O flows).
	RouteMinimal = iota
	// RouteValiant bounces traffic through a pseudo-randomly chosen
	// intermediate group, modeling the default adaptive routing: it spreads
	// load but lengthens paths, which hurts bulk-synchronous I/O traffic.
	RouteValiant
)

// Dragonfly models the Cray XC40 Aries network (Theta). Routers form groups
// of Rows×Cols (6×16 = 96 on Theta) with an all-to-all electrical link in
// each row and each column; groups are connected pairwise by parallel
// optical links; NodesPerRouter compute nodes (4 KNL on Theta) hang off each
// router.
//
// The node id space is [0, ComputeNodes) for compute nodes followed by
// ServiceNodes LNET-style service nodes, spread round-robin over routers of
// all groups. Applications never run on service nodes; the Lustre model uses
// them as gateways to the storage fabric. The platform does not expose
// I/O-node locality to applications (IONodeOf returns IONUnknown), matching
// the paper's observation that C2 must be dropped on Theta.
type Dragonfly struct {
	Groups         int
	Rows, Cols     int
	NodesPerRouter int
	ServiceNodes   int

	HostLinkBW      float64 // node↔router, bytes/sec
	ElectricalBW    float64 // intra-group, bytes/sec (14 GB/s on Theta)
	OpticalBW       float64 // inter-group, bytes/sec (12.5 GB/s on Theta)
	GatewaysPerPair int     // parallel optical connections per group pair
	HopLatency      int64   // ns per hop
	Routing         int     // RouteMinimal or RouteValiant

	compute   int
	total     int // compute + service nodes
	routers   int
	linkIdx   map[int64]int
	linkRate  []float64
	linkLevel []int
	svcRouter []int // router hosting service node i
}

// thetaLNETBW is each LNET service node's InfiniBand (FDR) link toward the
// Lustre servers, in bytes/sec: Bandwidth(LevelStorage), which the Lustre
// model books and prices.
const thetaLNETBW = 7e9

// DragonflyConfig carries the tunable construction parameters of a
// Dragonfly; zero fields take Theta-like defaults.
type DragonflyConfig struct {
	Groups         int
	Rows, Cols     int
	NodesPerRouter int
	ServiceNodes   int
	Routing        int
}

// NewDragonfly builds a dragonfly with Theta-like defaults: 6×16 routers per
// group, 4 nodes per router, 14 GB/s electrical, 12.5 GB/s optical,
// 2 gateways per group pair, minimal routing.
func NewDragonfly(cfg DragonflyConfig) *Dragonfly {
	d := &Dragonfly{
		Groups:          max(cfg.Groups, 1),
		Rows:            6,
		Cols:            16,
		NodesPerRouter:  4,
		ServiceNodes:    cfg.ServiceNodes,
		HostLinkBW:      10e9,
		ElectricalBW:    14e9,
		OpticalBW:       12.5e9,
		GatewaysPerPair: 2,
		HopLatency:      850,
		Routing:         cfg.Routing,
	}
	if cfg.Rows > 0 {
		d.Rows = cfg.Rows
	}
	if cfg.Cols > 0 {
		d.Cols = cfg.Cols
	}
	if cfg.NodesPerRouter > 0 {
		d.NodesPerRouter = cfg.NodesPerRouter
	}
	d.init()
	return d
}

// DragonflyForNodes returns a dragonfly with enough Theta-like groups to
// host at least n compute nodes, plus svc service nodes.
func DragonflyForNodes(n, svc, routing int) *Dragonfly {
	perGroup := 6 * 16 * 4
	groups := (n + perGroup - 1) / perGroup
	if groups < 1 {
		groups = 1
	}
	return NewDragonfly(DragonflyConfig{Groups: groups, ServiceNodes: svc, Routing: routing})
}

func (d *Dragonfly) init() {
	d.routers = d.Groups * d.Rows * d.Cols
	d.compute = d.routers * d.NodesPerRouter
	d.total = d.compute + d.ServiceNodes
	d.linkIdx = make(map[int64]int)
	d.svcRouter = make([]int, d.ServiceNodes)
	// Spread service nodes over routers with a stride that walks groups.
	for i := 0; i < d.ServiceNodes; i++ {
		g := i % d.Groups
		local := (i*7 + 3) % (d.Rows * d.Cols)
		d.svcRouter[i] = g*d.Rows*d.Cols + local
	}

	// Entity id space for link endpoints: nodes then routers.
	addLink := func(from, to int, rate float64, level int) {
		key := int64(from)*int64(d.total+d.routers) + int64(to)
		if _, dup := d.linkIdx[key]; dup {
			return
		}
		d.linkIdx[key] = len(d.linkRate)
		d.linkRate = append(d.linkRate, rate)
		d.linkLevel = append(d.linkLevel, level)
	}

	// Host links (node ↔ router), both directions.
	for node := 0; node < d.total; node++ {
		r := d.routerEntity(d.RouterOf(node))
		addLink(node, r, d.HostLinkBW, LevelInjection)
		addLink(r, node, d.HostLinkBW, LevelInjection)
	}
	// Electrical links: all-to-all within each row and each column.
	for r := 0; r < d.routers; r++ {
		g, row, col := d.routerCoord(r)
		for c2 := 0; c2 < d.Cols; c2++ {
			if c2 != col {
				addLink(d.routerEntity(r), d.routerEntity(d.routerAt(g, row, c2)), d.ElectricalBW, LevelFabric)
			}
		}
		for r2 := 0; r2 < d.Rows; r2++ {
			if r2 != row {
				addLink(d.routerEntity(r), d.routerEntity(d.routerAt(g, r2, col)), d.ElectricalBW, LevelFabric)
			}
		}
	}
	// Optical links between every group pair, GatewaysPerPair parallel
	// connections anchored at deterministic gateway routers.
	for g1 := 0; g1 < d.Groups; g1++ {
		for g2 := g1 + 1; g2 < d.Groups; g2++ {
			for k := 0; k < d.GatewaysPerPair; k++ {
				a := d.gatewayRouter(g1, g2, k)
				b := d.gatewayRouter(g2, g1, k)
				addLink(d.routerEntity(a), d.routerEntity(b), d.OpticalBW, LevelFabric)
				addLink(d.routerEntity(b), d.routerEntity(a), d.OpticalBW, LevelFabric)
			}
		}
	}
}

func (d *Dragonfly) routerEntity(router int) int { return d.total + router }

func (d *Dragonfly) routerAt(group, row, col int) int {
	return group*d.Rows*d.Cols + row*d.Cols + col
}

func (d *Dragonfly) routerCoord(router int) (group, row, col int) {
	perGroup := d.Rows * d.Cols
	group = router / perGroup
	local := router % perGroup
	return group, local / d.Cols, local % d.Cols
}

// RouterOf returns the Aries router hosting a node (compute or service).
func (d *Dragonfly) RouterOf(node int) int {
	if node < d.compute {
		return node / d.NodesPerRouter
	}
	return d.svcRouter[node-d.compute]
}

// GroupOf returns the dragonfly group of a node.
func (d *Dragonfly) GroupOf(node int) int {
	return d.RouterOf(node) / (d.Rows * d.Cols)
}

// gatewayRouter returns the router in group g anchoring the k-th optical
// connection toward group peer.
func (d *Dragonfly) gatewayRouter(g, peer, k int) int {
	local := (peer*17 + k*37 + 5) % (d.Rows * d.Cols)
	return g*d.Rows*d.Cols + local
}

// ServiceNode returns the node id of the i-th service (LNET) node.
func (d *Dragonfly) ServiceNode(i int) int { return d.compute + i }

// ComputeNodes returns the number of compute nodes (ranks live here).
func (d *Dragonfly) ComputeNodes() int { return d.compute }

func (d *Dragonfly) Name() string {
	return fmt.Sprintf("xc40-dragonfly-g%d", d.Groups)
}

// Nodes returns all nodes including service nodes.
func (d *Dragonfly) Nodes() int { return d.total }

func (d *Dragonfly) Dimensions() []int {
	return []int{d.Groups, d.Rows, d.Cols, d.NodesPerRouter}
}

func (d *Dragonfly) Latency() int64 { return d.HopLatency }

// Coordinates returns (group, row, col, slot) for a node.
func (d *Dragonfly) Coordinates(node int) []int {
	r := d.RouterOf(node)
	g, row, col := d.routerCoord(r)
	slot := 0
	if node < d.compute {
		slot = node % d.NodesPerRouter
	}
	return []int{g, row, col, slot}
}

func (d *Dragonfly) Bandwidth(level int) float64 {
	switch level {
	case LevelInjection:
		return d.HostLinkBW
	case LevelFabric:
		return d.ElectricalBW
	case LevelIOUplink:
		return d.OpticalBW
	case LevelStorage:
		return thetaLNETBW
	}
	return d.ElectricalBW
}

// IONodes reports the number of LNET service nodes.
func (d *Dragonfly) IONodes() int { return d.ServiceNodes }

// IONodeOf returns IONUnknown: the vendor does not expose the LNET mapping
// to applications (paper §IV-B), so the placement model cannot use it.
func (d *Dragonfly) IONodeOf(node int) int { return IONUnknown }

// DistanceToION returns 0: unknown locality (C2 = 0 in the cost model).
func (d *Dragonfly) DistanceToION(node, ion int) int { return 0 }

func (d *Dragonfly) NumLinks() int { return len(d.linkRate) }

func (d *Dragonfly) LinkRate(link int) float64 { return d.linkRate[link] }

// LinkLevel returns the bandwidth level of a link (for diagnostics).
func (d *Dragonfly) LinkLevel(link int) int { return d.linkLevel[link] }

func (d *Dragonfly) link(from, to int) int {
	key := int64(from)*int64(d.total+d.routers) + int64(to)
	id, ok := d.linkIdx[key]
	if !ok {
		panic(fmt.Sprintf("topology: no dragonfly link %d→%d", from, to))
	}
	return id
}

// routerPath appends the electrical-link path between two routers of the
// same group: row link then column link (deterministic Aries-style ordering).
func (d *Dragonfly) routerPath(route []int, from, to int) ([]int, int) {
	if from == to {
		return route, from
	}
	_, rowF, colF := d.routerCoord(from)
	gT, rowT, colT := d.routerCoord(to)
	cur := from
	if colF != colT {
		next := d.routerAt(gT, rowF, colT)
		route = append(route, d.link(d.routerEntity(cur), d.routerEntity(next)))
		cur = next
	}
	if rowF != rowT {
		route = append(route, d.link(d.routerEntity(cur), d.routerEntity(to)))
		cur = to
	}
	return route, cur
}

// Route returns the link sequence from node a to node b under the configured
// routing mode. Minimal: host → (intra|intra-gw-optical-gw-intra) → host.
// Valiant: detour through a deterministic pseudo-random intermediate group.
func (d *Dragonfly) Route(a, b int) []int {
	if a == b {
		return nil
	}
	ra, rb := d.RouterOf(a), d.RouterOf(b)
	route := []int{d.link(a, d.routerEntity(ra))}
	route = d.routeRouters(route, ra, rb, a, b)
	return append(route, d.link(d.routerEntity(rb), b))
}

func (d *Dragonfly) routeRouters(route []int, ra, rb, a, b int) []int {
	ga, gb := ra/(d.Rows*d.Cols), rb/(d.Rows*d.Cols)
	if ga == gb {
		route, _ = d.routerPath(route, ra, rb)
		return route
	}
	if d.Routing == RouteValiant && d.Groups > 2 {
		gi := (a*31 + b*7) % d.Groups
		if gi != ga && gi != gb {
			// Land on the intermediate group's gateway toward gb, then
			// route minimally onward.
			mid := d.gatewayRouter(gi, ga, 0)
			route = d.groupHop(route, ra, ga, gi, a, b)
			route = d.routeRouters(route, mid, rb, a, b)
			return route
		}
	}
	route = d.groupHop(route, ra, ga, gb, a, b)
	mid := d.gatewayRouter(gb, ga, d.gatewayIndex(a, b))
	route, _ = d.routerPath(route, mid, rb)
	return route
}

// groupHop routes from router ra (in group ga) over the optical link to the
// gateway router of group gt, appending the intra-group and optical links.
func (d *Dragonfly) groupHop(route []int, ra, ga, gt, a, b int) []int {
	k := d.gatewayIndex(a, b)
	gwA := d.gatewayRouter(ga, gt, k)
	gwB := d.gatewayRouter(gt, ga, k)
	route, _ = d.routerPath(route, ra, gwA)
	return append(route, d.link(d.routerEntity(gwA), d.routerEntity(gwB)))
}

// gatewayIndex picks one of the parallel optical connections for a flow,
// spreading flows deterministically.
func (d *Dragonfly) gatewayIndex(a, b int) int {
	if d.GatewaysPerPair <= 1 {
		return 0
	}
	h := uint64(a+1)*0x9E3779B97F4A7C15 ^ uint64(b+1)*0xC2B2AE3D27D4EB4F
	h ^= h >> 33 // avalanche so low bits depend on all input bits
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return int(h % uint64(d.GatewaysPerPair))
}

// PathStats answers minimally-routed pairs: the route is host link →
// (electrical hops) [→ optical → electrical hops] → host link, so the
// length is Distance and the bottleneck follows from which link classes
// the path crosses — no route materialization. Pairs that Valiant
// routing would detour through an intermediate group return ok = false.
func (d *Dragonfly) PathStats(a, b int) (hops int, bottleneck float64, ok bool) {
	if a == b {
		return 0, d.HostLinkBW, true
	}
	ra, rb := d.RouterOf(a), d.RouterOf(b)
	ga, gb := ra/(d.Rows*d.Cols), rb/(d.Rows*d.Cols)
	if ga != gb && d.Routing == RouteValiant && d.Groups > 2 {
		if gi := (a*31 + b*7) % d.Groups; gi != ga && gi != gb {
			return 0, 0, false // detoured route: walk it for real
		}
	}
	bottleneck = d.HostLinkBW
	electrical := 0
	if ga == gb {
		electrical = d.intraHops(ra, rb)
	} else {
		k := d.gatewayIndex(a, b)
		electrical = d.intraHops(ra, d.gatewayRouter(ga, gb, k)) + d.intraHops(d.gatewayRouter(gb, ga, k), rb)
		if d.OpticalBW < bottleneck {
			bottleneck = d.OpticalBW
		}
	}
	if electrical > 0 && d.ElectricalBW < bottleneck {
		bottleneck = d.ElectricalBW
	}
	return d.Distance(a, b), bottleneck, true
}

// Distance counts the links on the (minimal) route between two nodes,
// including the two host links. It is routing-mode independent so the
// placement cost model sees stable distances.
func (d *Dragonfly) Distance(a, b int) int {
	if a == b {
		return 0
	}
	ra, rb := d.RouterOf(a), d.RouterOf(b)
	if ra == rb {
		return 2
	}
	ga, gb := ra/(d.Rows*d.Cols), rb/(d.Rows*d.Cols)
	if ga == gb {
		return 2 + d.intraHops(ra, rb)
	}
	k := d.gatewayIndex(a, b)
	gwA := d.gatewayRouter(ga, gb, k)
	gwB := d.gatewayRouter(gb, ga, k)
	return 2 + d.intraHops(ra, gwA) + 1 + d.intraHops(gwB, rb)
}

func (d *Dragonfly) intraHops(ra, rb int) int {
	if ra == rb {
		return 0
	}
	_, rowA, colA := d.routerCoord(ra)
	_, rowB, colB := d.routerCoord(rb)
	h := 0
	if colA != colB {
		h++
	}
	if rowA != rowB {
		h++
	}
	return h
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
