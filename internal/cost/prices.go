package cost

// classes is a partition's member table collapsed onto its node classes,
// the batch pricer's view of an election. Members on one node share every
// distance and their C2, so the topology is asked once per ordered pair of
// classes (k² Distance calls for k distinct nodes) and once per class for
// C2, with no DistanceCache row fills: a row costs Nodes() calls.
type classes struct {
	groups []nodeGroup // per class, first-seen order
	class  []int       // per member: its class
	dist   []int       // dist[a*k+b]: hops from class a's node to class b's
	io     []float64   // per class: C2 of a candidate there
}

// classify builds the election's node classes and prices every distance and
// C2 the candidacies need.
func (m *Model) classify(members []Member, ioBytes int64) classes {
	groups, class := groupByNode(members)
	k := len(groups)
	cl := classes{groups: groups, class: class, dist: make([]int, k*k), io: make([]float64, k)}
	for a, ga := range groups {
		for b, gb := range groups {
			cl.dist[a*k+b] = m.topo.Distance(ga.node, gb.node)
		}
		cl.io[a] = m.IOCost(ga.node, ioBytes)
	}
	return cl
}

// candidacies prices every member's flat candidacy C1 + C2 — what
// CandidacyCost returns for each, bit for bit. C1 folds its terms in member
// order, skipping the candidate, exactly as AggregationCost does; the sum
// up to a candidate is shared by every candidate of its class, so only the
// suffix after each candidate is summed on its own, and not even that for
// a candidate whose predecessor in member order has its class and volume.
func (m *Model) candidacies(members []Member, ioBytes int64) []float64 {
	cl := m.classify(members, ioBytes)
	k := len(cl.groups)
	costs := make([]float64, len(members))
	terms := make([]float64, len(members))
	for g := range cl.groups {
		// terms[i]: member i's C1 term toward a candidate in class g. A
		// member with no data ships nothing; its zero term leaves the
		// running sum, which starts at +0, bit-for-bit unchanged, just as
		// AggregationCost's skip does.
		for i, mb := range members {
			terms[i] = 0
			if mb.Bytes != 0 {
				terms[i] = m.hop(cl.dist[cl.class[i]*k+g], m.transfer(mb.Bytes))
			}
		}
		var prefix float64
		for c := range members {
			switch {
			case cl.class[c] != g:
			case c > 0 && cl.class[c-1] == g && terms[c-1] == terms[c]:
				// c-1's sum folds every term but terms[c-1], and c's every
				// term but terms[c]: with the two equal, the sequences
				// match term for term, and so do the costs.
				costs[c] = costs[c-1]
			default:
				c1 := prefix
				for _, t := range terms[c+1:] {
					c1 += t
				}
				costs[c] = c1 + cl.io[g]
			}
			prefix += terms[c]
		}
	}
	return costs
}

// twoLevelCandidacies prices every node leader's two-level candidacy — what
// TwoLevelCost returns for it, bit for bit, term for term in group order —
// and leaves 0 for the members that are no leader. It also returns the
// leaders, in member order.
func (m *Model) twoLevelCandidacies(members []Member, ioBytes int64) (costs []float64, leaders []int) {
	cl := m.classify(members, ioBytes)
	k := len(cl.groups)
	costs = make([]float64, len(members))
	leaders = make([]int, k)
	for gc, cand := range cl.groups {
		leaders[gc] = cand.leader
		var c float64
		for g, grp := range cl.groups {
			if g == gc {
				c += localCopy(grp.bytes - members[cand.leader].Bytes)
				continue
			}
			if grp.bytes == 0 {
				continue
			}
			c += localCopy(grp.bytes - members[grp.leader].Bytes)
			c += m.hop(cl.dist[g*k+gc], m.transfer(grp.bytes))
		}
		costs[cand.leader] = c + cl.io[gc]
	}
	return costs, leaders
}
