package tune

import (
	"fmt"
	"math"

	"tapioca/internal/core"
	"tapioca/internal/cost"
	"tapioca/internal/sim"
	"tapioca/internal/storage"
	"tapioca/internal/topology"
	"tapioca/internal/tree"
	"tapioca/internal/workload"
)

// predictor prices one candidate configuration analytically. It combines
// three calibrated sources so a prediction and a live run agree on
// structure, not just trend:
//
//   - the real declared-I/O planner (core.EstimatePlan) supplies partitions,
//     rounds and per-round flush extents;
//   - the §IV-B cost model (internal/cost) supplies the aggregation phase
//     and runs the same election the live session would, so the predicted
//     aggregator is the elected aggregator;
//   - the storage system's calibration (storage.System.EstimateFlush and
//     AggregateBandwidth) supplies single-stream flush time and the
//     concurrency ceiling.
//
// Rounds then compose exactly like the pipeline in internal/core: double
// buffering overlaps round r's aggregation with round r-1's flush, the
// single-buffer ablation serializes them.
type predictor struct {
	p          Platform
	model      *cost.Model
	all        [][]storage.Seg
	totalBytes int64
	nodes      []int // rank → compute node (the runtime's block mapping)
	read       bool
	latency    float64 // per-hop seconds
	msgPenalty float64 // seconds per inter-node message; >0 only under TreeSearch
}

func newPredictor(p Platform, w workload.Pattern) (*predictor, error) {
	if w.Ranks <= 0 {
		return nil, fmt.Errorf("tune: workload declares no ranks")
	}
	if w.Ranks > p.Topo.Nodes()*p.RanksPerNode {
		return nil, fmt.Errorf("tune: %d ranks exceed %d nodes × %d ranks/node",
			w.Ranks, p.Topo.Nodes(), p.RanksPerNode)
	}
	dist := p.Dist
	if dist == nil {
		dist = topology.NewDistanceCache(p.Topo)
	}
	pr := &predictor{
		p:       p,
		model:   cost.MachineModel(dist, p.Sys),
		all:     w.AllSegs(),
		nodes:   make([]int, w.Ranks),
		read:    w.Read,
		latency: sim.ToSeconds(p.Topo.Latency()),
	}
	for r := range pr.nodes {
		pr.nodes[r] = r / p.RanksPerNode
	}
	for _, segs := range pr.all {
		pr.totalBytes += storage.TotalBytes(segs)
	}
	return pr, nil
}

// alpha is the per-message control-plane cost of a fence or reduction step:
// software overhead plus a typical route's hop latency.
const softwareOverhead = 2e-6

func (pr *predictor) alpha() float64 { return softwareOverhead + 5*pr.latency }

// aggregationSeconds is the network cost of one partition's full aggregation
// stream into the elected member, priced through the shape the session runs
// (core.Config.Shape): tree.PriceDegenerate charges flat exactly as C1
// (AggregationCost) and node-staged exactly as the intra-node pre-merge
// variant (TwoLevelCost). The dispatch follows the data-plane shape, not the
// election strategy: a two-level *election* on a flat shape still moves
// per-member fabric traffic. The I/O term C2 is deliberately excluded: the
// flush estimator prices the storage path.
//
// A per-message penalty (TreeSearch pricing) is scaled to the full session:
// tree.Price counts one message per sender for the whole byte stream, and
// the live pipeline sends that many per round. Flat, staged and tree
// candidates all pay it on equal terms. The returned level count is the
// number of interior reduction levels — each one costs an extra fence per
// round, which the caller charges alongside the base fence.
//
// A read session runs flat whatever its shape (in core's runRead every
// member gets its pieces straight from the aggregator's window), so a read
// is priced flat.
func (pr *predictor) aggregationSeconds(cfg core.Config, members []cost.Member, win, rounds int) (secs float64, interiorLevels int) {
	sh := cfg.Shape()
	if pr.read {
		sh = tree.Shape{Kind: tree.Flat}
	}
	opt := tree.PriceOptions{PerMessageSeconds: pr.msgPenalty * float64(rounds)}
	if !sh.Degenerate() {
		t, leaders := pr.buildTree(sh, members, win)
		if t.Levels >= 2 {
			return tree.Price(pr.model, t, leaders, members, win, opt), t.Levels - 1
		}
		// Structurally degenerate on this partition: the runtime runs the
		// node-staged pipeline, so price exactly that.
		sh = tree.Shape{Kind: tree.NodeStaged}
	}
	// Flat and staged price from the members alone: no tree to build.
	return tree.PriceDegenerate(pr.model, sh.Kind, members, win, opt), 0
}

// buildTree assembles the reduction tree a session of shape sh would produce
// over one partition's members — same leader run-length encoding and
// topology grouper the runtime uses. The predictor's block rank→node mapping
// never repeats a node in two runs, so the runtime's duplicate-run fallback
// cannot arise here.
func (pr *predictor) buildTree(sh tree.Shape, members []cost.Member, win int) (*tree.Tree, []tree.Leader) {
	leaders, starts := tree.Leaders(members)
	return tree.Build(sh, leaders, tree.RootLeader(starts, win), tree.GrouperOf(pr.p.Topo)), leaders
}

// pointPlan is one grid point's schedule and, per partition, its member
// table and elected aggregator (no members where the partition has no
// rounds). Neither depends on the aggregation shape, so the shape search and
// every shape's prediction share one.
type pointPlan struct {
	est   *core.PlanEstimate
	parts []tree.Partition
}

// plan runs the declared-I/O planner under cfg/fopt and the session's
// election on every partition with data, so the predicted aggregator is the
// one the live session elects.
func (pr *predictor) plan(cfg core.Config, fopt storage.FileOptions) pointPlan {
	cfg.ApplyDefaults(len(pr.all))
	est := core.EstimatePlan(pr.all, cfg, pr.p.Sys.AlignUnit(fopt))
	parts := make([]tree.Partition, len(est.Parts))
	for pi, pe := range est.Parts {
		if pe.Bytes == 0 || pe.Rounds == 0 {
			continue
		}
		members := make([]cost.Member, pe.Ranks)
		for i := range members {
			members[i] = cost.Member{Node: pr.nodes[pe.FirstRank+i], Bytes: pe.MemberBytes[i]}
		}
		parts[pi] = tree.Partition{Members: members, Root: cfg.Placement.Elect(&cost.Election{
			Model: pr.model, Members: members, IOBytes: pe.Bytes, Partition: pi,
		})}
	}
	return pointPlan{est: est, parts: parts}
}

// searchShape runs the aggregation-tree shape search over one grid point's
// partitions and elections, so the searched shape is priced against exactly
// the partitions the live session would build. Per-message and fence charges
// are scaled by the deepest partition's round count: tree.Price books them
// once per session, the pipeline pays them every round. Reports ok=false
// when the search comes back degenerate (flat or staged already wins) — the
// plain candidates cover that point.
func (pr *predictor) searchShape(pl pointPlan) (tree.Shape, bool) {
	maxRounds, maxRanks := pl.est.Rounds, 0
	if maxRounds == 0 {
		return tree.Shape{}, false
	}
	for _, pt := range pl.parts {
		maxRanks = max(maxRanks, len(pt.Members))
	}
	fence := 2 * math.Log2(float64(maxRanks)+1) * pr.alpha()
	res := tree.Search(pr.model, pl.parts, tree.GrouperOf(pr.p.Topo), tree.SearchOptions{
		Price: tree.PriceOptions{
			PerMessageSeconds: pr.msgPenalty * float64(maxRounds),
			FenceSeconds:      fence * float64(maxRounds),
		},
	})
	return res.Shape, !res.Shape.Degenerate()
}

// flushSeconds is one aggregator's single-stream time for one round's flush.
func (pr *predictor) flushSeconds(fopt storage.FileOptions, bytes, runs int64) float64 {
	if bytes == 0 {
		return 0
	}
	return pr.p.Sys.EstimateFlush(fopt, bytes, runs, pr.read)
}

// predict returns the estimated end-to-end seconds of the collective phase
// under cfg/fopt, for both pipeline variants (double-buffered and the
// single-buffer ablation) in one pass over pl, its grid point's plan.
func (pr *predictor) predict(cfg core.Config, fopt storage.FileOptions, pl pointPlan) (double, single float64) {
	cfg.ApplyDefaults(len(pr.all))
	n := pl.est.Rounds
	if n == 0 {
		return 0, 0
	}

	aggRound := make([]float64, n)    // slowest partition's aggregation per round
	flushStream := make([]float64, n) // slowest single aggregator stream per round
	flushBytes := make([]int64, n)    // system-wide payload per round
	for pi, pt := range pl.parts {
		if pt.Members == nil {
			continue
		}
		pe, members, win := &pl.est.Parts[pi], pt.Members, pt.Root
		fence := 2 * math.Log2(float64(pe.Ranks)+1) * pr.alpha()
		aggSecs, interior := pr.aggregationSeconds(cfg, members, win, pe.Rounds)
		perRound := aggSecs/float64(pe.Rounds) + fence*float64(1+interior)
		for r := 0; r < pe.Rounds; r++ {
			if perRound > aggRound[r] {
				aggRound[r] = perRound
			}
			fb := pe.FlushBytes[r]
			if fs := pr.flushSeconds(fopt, fb, pe.FlushRuns[r]); fs > flushStream[r] {
				flushStream[r] = fs
			}
			flushBytes[r] += fb
		}
	}

	// Concurrent streams cannot beat the system ceiling: a round's flush wall
	// time is the slower of its slowest stream and the saturated rate.
	aggBW := pr.p.Sys.AggregateBandwidth(fopt, pr.read)
	flushRound := make([]float64, n)
	for r := range flushRound {
		flushRound[r] = flushStream[r]
		if lim := float64(flushBytes[r]) / aggBW; lim > flushRound[r] {
			flushRound[r] = lim
		}
	}

	// Init: the plan collective and election, then the pipeline.
	init := 4 * math.Log2(float64(len(pr.all))+1) * pr.alpha()
	init += sim.ToSeconds(core.ElectionOverhead)
	double, single = init, init
	double += aggRound[0]
	for r := 1; r < n; r++ {
		double += math.Max(aggRound[r], flushRound[r-1])
	}
	double += flushRound[n-1]
	for r := 0; r < n; r++ {
		single += aggRound[r] + flushRound[r]
	}
	return double, single
}
