package obs

import (
	"math"
	"math/big"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a typed metrics registry: named counters (monotonic int64),
// gauges (float64, merged by maximum — "peak" semantics), and histograms
// (log-bucketed float64 distributions with deterministic quantiles).
//
// All operations are goroutine-safe. Instrument handles (Counter,
// Gauge, Histogram) may be cached by hot paths; name-based helpers exist
// for cold paths. Every method is nil-receiver-safe so producers can chain
// rec.Registry().Add(...) without guards.
//
// Metric names are dotted paths, "layer.metric": "net.bytes",
// "tapioca.rounds", "storage.bytes_written". Host-side wall-clock
// measurements use the "host." prefix — they are the only
// non-deterministic values in a snapshot.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter is a monotonic int64 metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter. Safe on nil.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 metric with peak semantics: Set keeps the maximum of
// all observations, so merging across cells is order-independent.
type Gauge struct {
	mu  sync.Mutex
	v   float64
	set bool
}

// Set records v, keeping the maximum. Safe on nil.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	if !g.set || v > g.v {
		g.v = v
		g.set = true
	}
	g.mu.Unlock()
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram buckets: 4 sub-buckets per octave over 2^-32 … 2^32, which
// covers everything we observe (utilization fractions, seconds, ratios)
// with ≤ ~19% relative quantile error.
const (
	histMinExp  = -32
	histMaxExp  = 32
	histPerOct  = 4
	histBuckets = (histMaxExp - histMinExp) * histPerOct
)

// Histogram is a log-bucketed distribution. Quantiles are deterministic
// (bucket upper bounds, clamped to the exact observed min/max).
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     float64 // this histogram's own observations, in order
	min     float64
	max     float64
	buckets [histBuckets]int64

	// Sums merged in from other histograms. Float addition is not
	// associative, so merged sums accumulate exactly — finite values in a
	// big.Float wide enough for any float64 sum, infinities and NaNs (whose
	// float sum is order-independent) apart — and round once, on read.
	merged  *big.Float
	special float64
}

// exactPrec covers the whole float64 exponent range (2^-1074 … 2^1024) plus
// carry headroom, so adding float64 values at this precision never rounds.
const exactPrec = 2200

func finite(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }

// absorb adds src's sum to h's merged sum exactly. Callers hold both locks.
func (h *Histogram) absorb(src *Histogram) {
	if h.merged == nil {
		h.merged = new(big.Float).SetPrec(exactPrec)
	}
	if finite(src.sum) {
		h.merged.Add(h.merged, new(big.Float).SetFloat64(src.sum))
	} else {
		h.special += src.sum
	}
	if src.merged != nil {
		h.merged.Add(h.merged, src.merged)
	}
	h.special += src.special
}

// total returns the histogram's sum — own observations plus merged sums —
// rounded once. Callers hold h.mu.
func (h *Histogram) total() float64 {
	if h.merged == nil {
		return h.sum + h.special
	}
	t := new(big.Float).SetPrec(exactPrec).Set(h.merged)
	own := h.sum
	if finite(own) {
		t.Add(t, new(big.Float).SetFloat64(own))
		own = 0
	}
	f, _ := t.Float64()
	return f + own + h.special
}

func histBucketOf(v float64) int {
	if v <= 0 {
		return 0
	}
	i := int(math.Floor(math.Log2(v)*histPerOct)) - histMinExp*histPerOct
	if i < 0 {
		i = 0
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// histBound returns bucket i's upper value bound.
func histBound(i int) float64 {
	return math.Exp2(float64(i+1)/histPerOct + histMinExp)
}

// Observe records one sample. Safe on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[histBucketOf(v)]++
	h.mu.Unlock()
}

// quantile returns the q-quantile (0 < q <= 1) from the bucket counts.
func (h *Histogram) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, n := range h.buckets {
		cum += n
		if cum >= target {
			v := histBound(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Counter returns (creating on first use) the named counter. Safe on nil
// (returns a nil handle whose Add no-ops).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating on first use) the named gauge. Safe on nil.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating on first use) the named histogram. Safe on
// nil.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Add is the cold-path counter helper. Safe on nil.
func (r *Registry) Add(name string, n int64) { r.Counter(name).Add(n) }

// SetMax is the cold-path gauge helper. Safe on nil.
func (r *Registry) SetMax(name string, v float64) { r.Gauge(name).Set(v) }

// Observe is the cold-path histogram helper. Safe on nil.
func (r *Registry) Observe(name string, v float64) { r.Histogram(name).Observe(v) }

// MergeFrom folds another registry into this one: counters sum, gauges take
// the maximum, histogram buckets add and histogram sums add exactly (see
// Histogram). The merge is commutative and associative, so any cell
// completion order produces the same snapshot.
func (r *Registry) MergeFrom(src *Registry) {
	if r == nil || src == nil {
		return
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	for name, c := range src.counters {
		r.Counter(name).Add(c.Value())
	}
	for name, g := range src.gauges {
		g.mu.Lock()
		if g.set {
			r.Gauge(name).Set(g.v)
		}
		g.mu.Unlock()
	}
	for name, h := range src.hists {
		h.mu.Lock()
		if h.count > 0 {
			dst := r.Histogram(name)
			dst.mu.Lock()
			if dst.count == 0 || h.min < dst.min {
				dst.min = h.min
			}
			if dst.count == 0 || h.max > dst.max {
				dst.max = h.max
			}
			dst.count += h.count
			dst.absorb(h)
			for i, n := range h.buckets {
				dst.buckets[i] += n
			}
			dst.mu.Unlock()
		}
		h.mu.Unlock()
	}
}

// HistStat is a histogram's JSON-facing summary.
type HistStat struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
}

// Snapshot is a registry's point-in-time value set, the shape embedded in
// tapiocabench's -json records. It round-trips through encoding/json
// losslessly (TestSnapshotRoundTrip).
type Snapshot struct {
	Counters   map[string]int64    `json:"counters,omitempty"`
	Gauges     map[string]float64  `json:"gauges,omitempty"`
	Histograms map[string]HistStat `json:"histograms,omitempty"`
}

// Snapshot captures the registry. Maps iterate non-deterministically but
// the returned maps' contents (and their JSON encoding, which sorts keys)
// are deterministic for deterministic inputs. Safe on nil (zero Snapshot).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistStat, len(r.hists))
		for name, h := range r.hists {
			h.mu.Lock()
			st := HistStat{Count: h.count, Sum: h.total(), Min: h.min, Max: h.max}
			if h.count > 0 {
				st.Mean = st.Sum / float64(h.count)
			}
			st.P50 = h.quantile(0.50)
			st.P99 = h.quantile(0.99)
			h.mu.Unlock()
			s.Histograms[name] = st
		}
	}
	return s
}

// Empty reports whether the snapshot carries no metrics.
func (s Snapshot) Empty() bool {
	return len(s.Counters) == 0 && len(s.Gauges) == 0 && len(s.Histograms) == 0
}

// Names returns every metric name in the snapshot, sorted (deterministic
// glossaries and tests).
func (s Snapshot) Names() []string {
	names := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for n := range s.Counters {
		names = append(names, n)
	}
	for n := range s.Gauges {
		names = append(names, n)
	}
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
