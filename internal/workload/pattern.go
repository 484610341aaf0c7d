package workload

import "tapioca/internal/storage"

// Pattern is a portable workload descriptor: the complete declared access
// pattern of a collective I/O phase, independent of any machine. It is what
// the autotuner (internal/tune) consumes — the planner can materialize every
// rank's segments analytically, without spawning simulated ranks — and what
// runnable programs replay rank by rank through Declared.
type Pattern struct {
	// Name labels the workload in reports.
	Name string
	// Ranks is the number of MPI ranks sharing the file.
	Ranks int
	// Read marks a collective read phase (checkpoint restart); the default
	// is a write phase.
	Read bool
	// Declared returns one rank's per-call access patterns, exactly what
	// core.(*Writer).Init receives.
	Declared func(rank, ranks int) [][]storage.Seg
}

// IOR returns the IOR-style micro-benchmark pattern: every rank writes
// bytesPerRank contiguous bytes at rank*bytesPerRank.
func IOR(ranks int, bytesPerRank int64) Pattern {
	return Pattern{
		Name:  "ior",
		Ranks: ranks,
		Declared: func(rank, _ int) [][]storage.Seg {
			return [][]storage.Seg{IORSegs(rank, bytesPerRank)}
		},
	}
}

// HACC returns the HACC-IO pattern: 9 particle variables per rank in the
// given layout (AoS or SoA).
func HACC(ranks int, particles int64, layout int) Pattern {
	return Pattern{
		Name:  "hacc-" + LayoutName(layout),
		Ranks: ranks,
		Declared: func(rank, rr int) [][]storage.Seg {
			return HACCDeclared(rank, rr, particles, layout)
		},
	}
}

// AllSegs materializes every rank's declared segments, flattened per rank —
// the planner-facing view (per-call boundaries don't matter to the round
// schedule).
func (p Pattern) AllSegs() [][]storage.Seg {
	all := make([][]storage.Seg, p.Ranks)
	for r := 0; r < p.Ranks; r++ {
		for _, segs := range p.Declared(r, p.Ranks) {
			for _, s := range segs {
				if !s.Empty() {
					all[r] = append(all[r], s)
				}
			}
		}
	}
	return all
}

// TotalBytes sums the declared data volume over all ranks.
func (p Pattern) TotalBytes() int64 {
	var total int64
	for r := 0; r < p.Ranks; r++ {
		for _, segs := range p.Declared(r, p.Ranks) {
			total += storage.TotalBytes(segs)
		}
	}
	return total
}

// Truncate returns a copy of the pattern limited to at most perRank bytes of
// each rank's declared data (leading runs kept, later ones dropped). The
// autotuner's closed-loop probes run these shortened phases: a few
// aggregation rounds are enough to observe the machine, at a fraction of the
// full workload's simulation cost.
func (p Pattern) Truncate(perRank int64) Pattern {
	inner := p.Declared
	out := p
	out.Name = p.Name + "-probe"
	out.Declared = func(rank, ranks int) [][]storage.Seg {
		decl := inner(rank, ranks)
		budget := perRank
		trunc := make([][]storage.Seg, len(decl))
		for i, segs := range decl {
			for _, s := range segs {
				if budget <= 0 || s.Empty() {
					continue
				}
				if s.Bytes() > budget {
					// Keep whole leading runs; always keep at least one so a
					// tiny budget still declares something.
					runs := budget / s.Len
					if runs < 1 {
						runs = 1
					}
					s.Count = runs
				}
				trunc[i] = append(trunc[i], s)
				budget -= s.Bytes()
			}
		}
		return trunc
	}
	return out
}
