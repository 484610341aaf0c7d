package sim

import "fmt"

// GapResource is the engine's rate-limited resource: a network link, a NIC
// port, a disk server. Reservations are pure virtual-time bookkeeping (the
// caller decides whether and how long to block on the returned times), and
// they back-fill idle gaps left by earlier reservations. That models
// servers whose clients are latency-bound (e.g. a Lustre OST driven by RPC
// round-trips): one client's stream leaves the device idle between RPCs,
// and concurrent streams slot into those gaps, so aggregate throughput
// grows with concurrency up to the device ceiling.
type GapResource struct {
	name    string
	rate    float64
	horizon int64 // end of the last reservation
	gaps    []gapInterval

	busy     int64
	reserved int64
}

type gapInterval struct{ start, end int64 }

// maxGaps bounds the free-gap list; when exceeded, the oldest gap is
// discarded (a conservative loss of fill opportunity).
const maxGaps = 64

// NewGapResource returns a gap-filling resource serving bytes at rate
// bytes/second (non-positive = infinite).
func NewGapResource(name string, rate float64) *GapResource {
	return &GapResource{name: name, rate: rate}
}

// Name returns the diagnostic name.
func (r *GapResource) Name() string { return r.name }

// BusyTime returns cumulative busy nanoseconds.
func (r *GapResource) BusyTime() int64 { return r.busy }

// BytesServed returns cumulative bytes served.
func (r *GapResource) BytesServed() int64 { return r.reserved }

// Horizon returns the end of the latest reservation.
func (r *GapResource) Horizon() int64 { return r.horizon }

// Reserve books the service of bytes starting no earlier than now,
// returning the service interval. Earlier idle gaps are used when they fit.
func (r *GapResource) Reserve(now, bytes int64) (start, end int64) {
	return r.ReserveDur(now, TransferTime(bytes, r.rate), bytes)
}

// ReserveDur books an explicit duration starting no earlier than now.
func (r *GapResource) ReserveDur(now, dur, bytes int64) (start, end int64) {
	if dur < 0 {
		panic(fmt.Sprintf("sim: ReserveDur with negative duration on %s", r.name))
	}
	r.busy += dur
	r.reserved += bytes
	if dur == 0 {
		return now, now
	}
	// First-fit into an existing gap.
	for i, g := range r.gaps {
		s := g.start
		if now > s {
			s = now
		}
		if s+dur <= g.end {
			r.carveGap(i, s, s+dur)
			return s, s + dur
		}
	}
	start = now
	if r.horizon > start {
		start = r.horizon
	}
	if start > r.horizon {
		r.addGap(r.horizon, start)
	}
	end = start + dur
	r.horizon = end
	return start, end
}

// FreeFrom returns the earliest start s >= t at which the resource can
// serve an uninterrupted duration dur (looking first at idle gaps, then the
// horizon). It does not book anything.
func (r *GapResource) FreeFrom(t, dur int64) int64 {
	if dur <= 0 {
		return t
	}
	for _, g := range r.gaps {
		s := g.start
		if t > s {
			s = t
		}
		if s+dur <= g.end {
			return s
		}
	}
	if t > r.horizon {
		return t
	}
	return r.horizon
}

// ReserveAt books exactly [t, t+dur); the caller must have found the slot
// with FreeFrom (coordinated multi-resource booking). Booking beyond the
// horizon records the skipped idle time as a gap.
func (r *GapResource) ReserveAt(t, dur, bytes int64) {
	r.busy += dur
	r.reserved += bytes
	if dur <= 0 {
		return
	}
	if t >= r.horizon {
		r.addGap(r.horizon, t)
		r.horizon = t + dur
		return
	}
	for i, g := range r.gaps {
		if g.start <= t && t+dur <= g.end {
			r.carveGap(i, t, t+dur)
			return
		}
	}
	// The slot was taken between FreeFrom and ReserveAt (coordination
	// bailed); push it past the horizon — conservative but safe.
	r.addGap(r.horizon, t)
	if t+dur > r.horizon {
		r.horizon = t + dur
	}
}

// ReserveTogether books a common service interval of length dur on every
// resource, starting no earlier than now: the earliest instant all
// resources are simultaneously free. This is the wormhole-routing booking
// primitive — a flow occupies its whole path at once.
func ReserveTogether(now, dur, bytes int64, resources []*GapResource) (start, end int64) {
	t := now
	for iter := 0; iter < 64; iter++ {
		t2 := t
		for _, r := range resources {
			if s := r.FreeFrom(t2, dur); s > t2 {
				t2 = s
			}
		}
		if t2 == t {
			break
		}
		t = t2
	}
	for _, r := range resources {
		r.ReserveAt(t, dur, bytes)
	}
	return t, t + dur
}

// carveGap removes [s,e) from gap i, keeping the remainders.
func (r *GapResource) carveGap(i int, s, e int64) {
	g := r.gaps[i]
	r.gaps = append(r.gaps[:i], r.gaps[i+1:]...)
	if g.start < s {
		r.insertGap(gapInterval{g.start, s})
	}
	if e < g.end {
		r.insertGap(gapInterval{e, g.end})
	}
}

func (r *GapResource) addGap(s, e int64) {
	if e <= s {
		return
	}
	r.insertGap(gapInterval{s, e})
}

func (r *GapResource) insertGap(g gapInterval) {
	if r.gaps == nil {
		// Start small and let append grow geometrically toward the cap:
		// most resources keep a handful of gaps, and a full-cap upfront
		// allocation per resource adds up at paper scale. Removals shift in
		// place (carveGap) rather than re-slicing, so capacity never bleeds.
		r.gaps = make([]gapInterval, 0, 8)
	}
	// Keep sorted by start; drop the oldest when over capacity.
	pos := len(r.gaps)
	for i, x := range r.gaps {
		if g.start < x.start {
			pos = i
			break
		}
	}
	r.gaps = append(r.gaps, gapInterval{})
	copy(r.gaps[pos+1:], r.gaps[pos:])
	r.gaps[pos] = g
	if len(r.gaps) > maxGaps {
		copy(r.gaps, r.gaps[1:])
		r.gaps = r.gaps[:maxGaps]
	}
}
