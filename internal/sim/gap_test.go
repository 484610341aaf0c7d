package sim

import (
	"math/rand"
	"testing"
)

func TestGapResourceBackfills(t *testing.T) {
	r := NewGapResource("g", 1000) // 1 B/µs
	// First booking [0, 1ms); second at now=5ms leaves a gap [1ms,5ms).
	r.Reserve(0, 1)                     // [0, 1ms)
	s, e := r.Reserve(5*Millisecond, 1) // [5ms, 6ms)
	if s != 5*Millisecond || e != 6*Millisecond {
		t.Fatalf("second = [%d,%d)", s, e)
	}
	// A third booking at t=0 must backfill into [1ms, 5ms).
	s, e = r.Reserve(0, 2)
	if s != Millisecond || e != 3*Millisecond {
		t.Fatalf("backfill = [%d,%d), want [1ms,3ms)", s, e)
	}
}

func TestGapResourceFreeFrom(t *testing.T) {
	r := NewGapResource("g", 1000)
	r.ReserveDur(0, 10, 0)
	r.ReserveDur(100, 10, 0) // gap [10,100)
	if got := r.FreeFrom(0, 50); got != 10 {
		t.Fatalf("FreeFrom = %d, want 10", got)
	}
	if got := r.FreeFrom(0, 200); got != 110 {
		t.Fatalf("FreeFrom big = %d, want horizon 110", got)
	}
	if got := r.FreeFrom(105, 5); got != 110 {
		t.Fatalf("FreeFrom mid = %d, want 110", got)
	}
}

func TestGapResourceReserveAtPastHorizon(t *testing.T) {
	r := NewGapResource("g", 0)
	r.ReserveAt(100, 10, 5)
	if r.Horizon() != 110 {
		t.Fatalf("horizon = %d", r.Horizon())
	}
	// The skipped idle time became a gap usable by later bookings.
	s, e := r.ReserveDur(0, 50, 0)
	if s != 0 || e != 50 {
		t.Fatalf("gap fill = [%d,%d)", s, e)
	}
}

func TestReserveTogetherFindsCommonSlot(t *testing.T) {
	a := NewGapResource("a", 0)
	b := NewGapResource("b", 0)
	// a busy [0,100), b busy [50,150): first common slot of 30 is 150.
	a.ReserveAt(0, 100, 0)
	b.ReserveAt(50, 100, 0)
	start, end := ReserveTogether(0, 30, 0, []*GapResource{a, b})
	if start != 150 || end != 180 {
		t.Fatalf("together = [%d,%d), want [150,180)", start, end)
	}
}

func TestReserveTogetherUsesSharedGap(t *testing.T) {
	a := NewGapResource("a", 0)
	b := NewGapResource("b", 0)
	// Both busy [0,10) and [100,110): the shared gap [10,100) fits 80.
	for _, r := range []*GapResource{a, b} {
		r.ReserveAt(0, 10, 0)
		r.ReserveAt(100, 10, 0)
	}
	start, _ := ReserveTogether(0, 80, 0, []*GapResource{a, b})
	if start != 10 {
		t.Fatalf("start = %d, want 10 (shared gap)", start)
	}
}

// Property: bookings never overlap on a single gap resource.
func TestGapResourceNoOverlapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		r := NewGapResource("g", 0)
		type iv struct{ s, e int64 }
		var booked []iv
		for i := 0; i < 200; i++ {
			now := rng.Int63n(10000)
			dur := rng.Int63n(100) + 1
			s, e := r.ReserveDur(now, dur, 0)
			if s < now {
				t.Fatalf("start %d before request %d", s, now)
			}
			for _, b := range booked {
				if s < b.e && b.s < e {
					t.Fatalf("overlap [%d,%d) with [%d,%d)", s, e, b.s, b.e)
				}
			}
			booked = append(booked, iv{s, e})
		}
	}
}

// Property: with gap-filling, total busy time and bytes served are
// conserved.
func TestGapResourceBusyConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	r := NewGapResource("g", 1e6)
	var want, wantBytes int64
	for i := 0; i < 500; i++ {
		b := rng.Int63n(5000)
		want += TransferTime(b, 1e6)
		wantBytes += b
		r.Reserve(rng.Int63n(1000000), b)
	}
	if r.BusyTime() != want || r.BytesServed() != wantBytes {
		t.Fatalf("busy = %d, bytes = %d, want %d and %d", r.BusyTime(), r.BytesServed(), want, wantBytes)
	}
}
