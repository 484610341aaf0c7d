package main

import (
	"tapioca/internal/obs"
	"tapioca/internal/sim"
)

// callShares are the bracketed calls reported as a share of the pass's wall
// time. A call a workload never makes reads 0.
var callShares = []string{
	"core.init", "core.write", "core.read",
	"mpiio.open", "mpiio.write",
	"tune.search", "storage.checksum",
}

// layerMetrics derives the per-layer metrics of a traced run: plain and
// traced are its untraced and traced halves, all is both.
func layerMetrics(all, plain, traced []*pass, gen float64, profile []byte) (map[string]metric, error) {
	ms := map[string]metric{
		"bench.gen_s":       {gen, "s"},
		"bench.passes":      {float64(len(all)), "count"},
		"topology.build_s":  {median(all, func(p *pass) float64 { return p.calls["topology.build"].Seconds() }), "s"},
		"mpi.spawn_s":       {median(all, func(p *pass) float64 { return p.calls["mpi.spawn"].Seconds() }), "s"},
		"runtime.alloc_mib": {median(all, func(p *pass) float64 { return float64(p.allocBytes) / (1 << 20) }), "MiB"},
		"runtime.gc_cycles": {median(all, func(p *pass) float64 { return float64(p.gcCycles) }), "count"},
		"runtime.cpu_s":     {median(all, func(p *pass) float64 { return p.cpu.Seconds() }), "s"},
		"trace.overhead": {median(traced, func(p *pass) float64 { return p.wall.Seconds() }) /
			median(plain, func(p *pass) float64 { return p.wall.Seconds() }), "ratio"},
	}
	for _, call := range callShares {
		ms[call+"_pct"] = metric{median(all, func(p *pass) float64 { return 100 * p.calls[call].Seconds() / p.wall.Seconds() }), "%"}
	}
	for _, dir := range []string{"write", "read"} {
		call := "core." + dir
		ms["dataplane."+dir+"_gbps"] = metric{median(all, func(p *pass) float64 {
			if p.bytesMoved[call] == 0 {
				return 0
			}
			return float64(p.bytesMoved[call]) / p.calls[call].Seconds() / 1e9
		}), "GB/s"}
	}

	// Work counts repeat exactly (check enforces it), so the first pass's
	// are every pass's.
	w := all[0].work
	for name, v := range map[string]int64{
		"netsim.transfers":       w.transfers,
		"netsim.fabric_messages": w.fabricMessages,
		"netsim.local_transfers": w.localTransfers,
		"storage.write_ops":      w.writeOps,
		"storage.read_ops":       w.readOps,
		"sim.procs":              w.procs,
		"fault.retransmits":      traced[0].retransmits,
	} {
		ms[name] = metric{float64(v), "count"}
	}
	ms["netsim.bytes"] = metric{float64(w.netBytes), "B"}
	ms["storage.bytes_written"] = metric{float64(w.bytesWritten), "B"}
	ms["storage.bytes_read"] = metric{float64(w.bytesRead), "B"}
	var virtualNs int64
	for _, d := range all[0].digest {
		virtualNs += d.VirtualNs
	}
	ms["sim.virtual_s"] = metric{sim.ToSeconds(virtualNs), "sim_s"}

	// Virtual phase totals from the flight recorder, summed over ranks. No
	// workload runs a codec, so the codec phase is not reported.
	ph := traced[0].phases
	ms["virt.aggregation_s"] = metric{ph.Seconds(obs.PhaseAggregation), "sim_rank_s"}
	ms["virt.exchange_s"] = metric{ph.Seconds(obs.PhaseExchange), "sim_rank_s"}
	ms["virt.storage_s"] = metric{ph.Seconds(obs.PhaseStorage), "sim_rank_s"}

	shares, err := cpuShares(profile)
	if err != nil {
		return nil, err
	}
	for layer, pct := range shares {
		ms["cpu."+layer] = metric{pct, "%"}
	}
	return ms, nil
}
