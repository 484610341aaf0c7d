package core

import "tapioca/internal/storage"

// PlanEstimate is the analytic summary of the round/flush schedule the
// planner would build for a declared workload — the same buildPlan that
// drives a live session, run outside any simulated rank. The autotuner
// (internal/tune) prices candidate configurations with it: rounds and flush
// extents come from the real planner, so a prediction and an actual run
// always agree on the schedule's shape.
type PlanEstimate struct {
	// Aggregators is the effective partition count (after clamping).
	Aggregators int
	// Rounds is the maximum round count across partitions — the pipeline's
	// global depth.
	Rounds int
	// TotalBytes is the workload's declared volume.
	TotalBytes int64
	// Parts describes each partition's schedule.
	Parts []PartEstimate
}

// PartEstimate is one partition's schedule summary.
type PartEstimate struct {
	// FirstRank is the partition's first comm rank; members are the
	// contiguous block [FirstRank, FirstRank+Ranks).
	FirstRank int
	// Ranks is the member count.
	Ranks int
	// Bytes is the partition's total declared volume Ω.
	Bytes int64
	// Rounds is the partition's aggregation round count.
	Rounds int
	// FlushBytes[r] is the payload of round r's buffer flush.
	FlushBytes []int64
	// FlushRuns[r] is the number of contiguous file runs in round r's flush
	// (1 = dense, stripe-alignable; large = sparse strided extents).
	FlushRuns []int64
	// MemberBytes[i] is member i's declared volume ω(i) — the election
	// weights.
	MemberBytes []int64
}

// EstimatePlan runs the declared-I/O planner over every rank's flattened
// segments under cfg (zero fields resolved via ApplyDefaults) and summarizes
// the resulting schedule. alignUnit is the file system's optimal write
// granularity (stripe or block size; 0 disables alignment), exactly as a
// live Init obtains it from storage.System.OptimalUnit.
func EstimatePlan(all [][]storage.Seg, cfg Config, alignUnit int64) *PlanEstimate {
	cfg.ApplyDefaults(len(all))
	p := buildPlan(all, cfg.Aggregators, cfg.BufferSize, alignUnit, false)
	est := &PlanEstimate{Aggregators: len(p.parts)}
	for part := range p.parts {
		pp := &p.parts[part]
		pe := PartEstimate{
			FirstRank:   pp.rankLo,
			Ranks:       pp.rankN,
			Bytes:       pp.bytes,
			Rounds:      pp.rounds,
			MemberBytes: pp.omega,
		}
		for _, fl := range pp.flush {
			pe.FlushBytes = append(pe.FlushBytes, fl.bytes)
			pe.FlushRuns = append(pe.FlushRuns, storage.TotalRuns(fl.segs))
		}
		est.TotalBytes += pp.bytes
		if pp.rounds > est.Rounds {
			est.Rounds = pp.rounds
		}
		est.Parts = append(est.Parts, pe)
	}
	return est
}
