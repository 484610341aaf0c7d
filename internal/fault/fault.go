// Package fault is the deterministic fault plane: a seed-driven schedule of
// component failures injected beneath the simulation layers (netsim link
// degradation and loss, storage transients and latency spikes, tier outages,
// payload bit flips, aggregator deaths), plus the recovery mechanisms — a
// bounded retry policy, failover, degraded-mode writes, verify-and-repair —
// that let the layers above absorb them.
//
// Every decision is a pure function of (seed, injection site, site-local
// ordinals): the same seed replays the same faults byte for byte, serial or
// parallel, so recovery paths are testable as equivalence properties rather
// than probabilistically. The package depends on nothing above the standard
// library so every layer (netsim, storage, core, mpiio, expt) can import it.
package fault

import (
	"errors"
	"math"
)

// Sentinel errors surfaced by fallible storage wrappers and the recovery
// machinery. Match with errors.Is.
var (
	// ErrTransient is a retryable failure: the op did not happen, but an
	// immediate or backed-off retry may succeed.
	ErrTransient = errors.New("fault: transient I/O failure")
	// ErrTierDown is a persistent tier outage: retries against the same
	// tier cannot succeed; callers must degrade to a fallback tier or
	// absorb the loss.
	ErrTierDown = errors.New("fault: storage tier down")
	// ErrAggregatorDead marks an aggregator whose role was revoked by the
	// fault plan while recovery (failover) is disabled.
	ErrAggregatorDead = errors.New("fault: aggregator dead")
)

// Registry metric names. The "fault." prefix counts injected faults, the
// "recovery." prefix counts recovery actions; tapiocabench surfaces each
// prefix as its own block in -json output.
const (
	MetricStoreTransients = "fault.store_transients"
	MetricSlowSpikes      = "fault.slow_spikes"
	MetricNetRetransmits  = "fault.net_retransmits"
	MetricDegradedLinks   = "fault.degraded_transfers"
	MetricStragglerHits   = "fault.straggler_transfers"
	MetricCorruptions     = "fault.corruptions"
	MetricAggrDeaths      = "fault.aggr_deaths"
	MetricTierDown        = "fault.tier_down_detected"
	MetricLostFlushes     = "fault.lost_flushes"

	MetricRetries         = "recovery.retries"
	MetricBackoffNs       = "recovery.backoff_ns"
	MetricFailovers       = "recovery.failovers"
	MetricReplayedRounds  = "recovery.replayed_rounds"
	MetricDegradedRounds  = "recovery.degraded_rounds"
	MetricRepairedExtents = "recovery.repaired_extents"
)

// Fault severities: what one injected fault costs.
const (
	slowPenalty     int64   = 2_000_000 // base spike latency, ns (2ms; spikes are 1-4x)
	stragglerFactor float64 = 4         // straggler service-time multiplier
	degradeFactor   float64 = 3         // degraded-window duration multiplier
)

// Config is the fault schedule. Rates are per-decision probabilities in
// [0, 1]; a zero Config injects nothing. A zero RetransmitPenalty takes its
// documented default.
type Config struct {
	Seed uint64

	// Storage plane.
	StoreFailRate float64 // transient failure per store op
	StoreSlowRate float64 // latency spike per store op
	TierDownAfter int64   // >0: the wrapped tier fails permanently at this virtual time (ns)

	// Network plane.
	NetLossRate       float64 // transient loss per transfer (retransmit)
	LinkDegradeRate   float64 // per (src,dst,window) degraded-bandwidth windows
	StragglerRate     float64 // fraction of nodes that are stragglers
	RetransmitPenalty int64   // fixed retransmit timeout, ns (default 50µs)

	// Data/control plane.
	CorruptRate   float64 // bit-flip per flushed round
	AggrDeathRate float64 // aggregator death per partition
}

// Profile is the standard chaos profile used by `tapiocabench -faults` and
// the abl-faults experiment: one knob scales every fault class, with the
// rarer classes (stragglers, corruption) derated so moderate rates keep a
// run recognizable.
func Profile(seed uint64, rate float64) Config {
	return Config{
		Seed:            seed,
		StoreFailRate:   rate,
		StoreSlowRate:   rate / 2,
		NetLossRate:     rate / 2,
		LinkDegradeRate: rate / 2,
		StragglerRate:   rate / 4,
		CorruptRate:     rate / 2,
		AggrDeathRate:   rate,
	}
}

// Enabled reports whether the schedule can inject anything at all.
func (c Config) Enabled() bool {
	return c.StoreFailRate > 0 || c.StoreSlowRate > 0 || c.TierDownAfter > 0 ||
		c.NetLossRate > 0 || c.LinkDegradeRate > 0 || c.StragglerRate > 0 ||
		c.CorruptRate > 0 || c.AggrDeathRate > 0
}

// Injection-site salts: decisions at different sites with the same ordinals
// must not correlate.
const (
	siteStoreFail uint64 = iota + 1
	siteStoreSlow
	siteSlowAmount
	siteNetLoss
	siteLinkDegrade
	siteStraggler
	siteCorrupt
	siteCorruptOff
	siteAggrDeath
	siteDeathRound
)

// Plan is an instantiated fault schedule. All decision methods are pure
// except TakeCorruption, which consumes its (partition, round) key so a
// failover replay of a round does not re-corrupt it; call TakeCorruption
// only from proc context (the engine serializes procs, so the consumed set
// needs no lock). A nil *Plan is valid and injects nothing.
type Plan struct {
	cfg   Config
	taken map[uint64]bool
}

// NewPlan instantiates cfg, defaulting a zero RetransmitPenalty.
func NewPlan(cfg Config) *Plan {
	if cfg.RetransmitPenalty == 0 {
		cfg.RetransmitPenalty = 50_000 // 50µs
	}
	return &Plan{cfg: cfg, taken: make(map[uint64]bool)}
}

func mix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// hash is a splitmix64-style combine of (seed, site, ordinals).
func (pl *Plan) hash(site uint64, vals ...uint64) uint64 {
	h := mix(pl.cfg.Seed ^ site*0x9E3779B97F4A7C15)
	for _, v := range vals {
		h = mix(h ^ v*0x9E3779B97F4A7C15)
	}
	return h
}

func (pl *Plan) roll(rate float64, site uint64, vals ...uint64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	return float64(pl.hash(site, vals...)) < rate*float64(math.MaxUint64)
}

// StoreOutcome classifies one storage op under the schedule.
type StoreOutcome int

const (
	StoreOK        StoreOutcome = iota
	StoreTransient              // op failed; retryable
	StoreSlow                   // op succeeds after a latency spike
)

// Store decides the fate of store op number op against the given tier.
func (pl *Plan) Store(tier uint64, op int64) StoreOutcome {
	if pl == nil {
		return StoreOK
	}
	if pl.roll(pl.cfg.StoreFailRate, siteStoreFail, tier, uint64(op)) {
		return StoreTransient
	}
	if pl.roll(pl.cfg.StoreSlowRate, siteStoreSlow, tier, uint64(op)) {
		return StoreSlow
	}
	return StoreOK
}

// SlowPenalty is the extra latency (ns) of a StoreSlow spike: 1-4x the
// 2ms base, deterministic per op.
func (pl *Plan) SlowPenalty(tier uint64, op int64) int64 {
	if pl == nil {
		return 0
	}
	return slowPenalty * int64(1+pl.hash(siteSlowAmount, tier, uint64(op))%4)
}

// TierDown reports whether the wrapped tier is past its scheduled outage.
func (pl *Plan) TierDown(now int64) bool {
	return pl != nil && pl.cfg.TierDownAfter > 0 && now >= pl.cfg.TierDownAfter
}

// Straggler reports whether a node is a straggler (stable for the whole run).
func (pl *Plan) Straggler(node int) bool {
	if pl == nil {
		return false
	}
	return pl.roll(pl.cfg.StragglerRate, siteStraggler, uint64(node))
}

// NetEffect reports which network faults hit one transfer.
type NetEffect struct {
	Straggler bool
	Degraded  bool
	Loss      bool
}

// Any reports whether any fault applied.
func (e NetEffect) Any() bool { return e.Straggler || e.Degraded || e.Loss }

// degradeWindow is the granularity of per-link degradation windows: a
// (src, dst) pair is degraded or healthy per 100ms slice of virtual time.
const degradeWindow = 100_000_000

// Transfer applies network faults to one point-to-point transfer of
// duration dur starting at start, keyed by the fabric's transfer ordinal.
// Straggler endpoints multiply service time, degraded link windows stretch
// it further, and a transient loss doubles it plus a retransmit timeout.
func (pl *Plan) Transfer(src, dst int, start, dur, transfer int64) (int64, NetEffect) {
	var e NetEffect
	if pl == nil {
		return dur, e
	}
	if pl.Straggler(src) || pl.Straggler(dst) {
		dur = int64(float64(dur) * stragglerFactor)
		e.Straggler = true
	}
	if pl.roll(pl.cfg.LinkDegradeRate, siteLinkDegrade, uint64(src), uint64(dst), uint64(start/degradeWindow)) {
		dur = int64(float64(dur) * degradeFactor)
		e.Degraded = true
	}
	if pl.roll(pl.cfg.NetLossRate, siteNetLoss, uint64(transfer)) {
		dur = 2*dur + pl.cfg.RetransmitPenalty
		e.Loss = true
	}
	return dur, e
}

// AggregatorDeath returns the pipeline round at whose start the partition's
// aggregator is declared dead, or -1 for no death. Deaths land in
// [1, rounds) so at least one round runs under the original aggregator and
// there is always a predecessor round eligible for replay.
func (pl *Plan) AggregatorDeath(part, rounds int) int {
	if pl == nil || rounds < 2 {
		return -1
	}
	if !pl.roll(pl.cfg.AggrDeathRate, siteAggrDeath, uint64(part)) {
		return -1
	}
	return 1 + int(pl.hash(siteDeathRound, uint64(part))%uint64(rounds-1))
}

// TakeCorruption reports whether the flush of (part, round) suffers a bit
// flip, returning the deterministic byte index in [0, bytes) to damage.
// Each (part, round) key is consumed at most once, so a failover replay of
// the round rewrites clean bytes instead of re-flipping them. Proc context
// only: the engine's serialization is the lock.
func (pl *Plan) TakeCorruption(part, round int, bytes int64) (int64, bool) {
	if pl == nil || bytes <= 0 || pl.cfg.CorruptRate <= 0 {
		return 0, false
	}
	key := pl.hash(siteCorrupt, uint64(part), uint64(round))
	if pl.taken[key] {
		return 0, false
	}
	if float64(key) >= pl.cfg.CorruptRate*float64(math.MaxUint64) {
		return 0, false
	}
	pl.taken[key] = true
	return int64(pl.hash(siteCorruptOff, uint64(part), uint64(round)) % uint64(bytes)), true
}

// TierID names a storage tier for per-tier fault keying.
func TierID(name string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * prime64
	}
	return h
}

// The retry policy for transient store failures: up to RetryAttempts
// retries after the first try, each preceded by Backoff(attempt), while the
// backoff spent stays under RetryBudget. Backoff is charged as virtual-time
// Hold, so it is deterministic and shows up in traces.
const (
	RetryAttempts         = 4           // retries after the first try
	RetryBase     int64   = 200_000     // first backoff, ns (200µs)
	RetryFactor   float64 = 2           // growth per attempt
	RetryCap      int64   = 10_000_000  // per-backoff cap, ns (10ms)
	RetryBudget   int64   = 100_000_000 // total backoff budget, ns (100ms)
)

// Backoff is the deterministic virtual-time backoff before retry number
// attempt (0-based): RetryBase * RetryFactor^attempt, capped at RetryCap.
func Backoff(attempt int) int64 {
	d := float64(RetryBase) * math.Pow(RetryFactor, float64(attempt))
	if d >= float64(RetryCap) {
		return RetryCap
	}
	return int64(d)
}

// DetectLatency is the virtual time (ns) charged to detect an aggregator
// failure on failover: 250µs.
const DetectLatency int64 = 250_000
