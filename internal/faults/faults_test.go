package faults

import (
	"testing"
	"time"
)

func TestInjectorDeterminism(t *testing.T) {
	cfg := Config{Seed: 7, PTransient: 0.2, PPersistent: 0.05, PCorrupt: 0.1, PHang: 0.05}
	a, b := NewInjector(cfg), NewInjector(cfg)
	for i := 0; i < 1000; i++ {
		da, db := a.Next(), b.Next()
		if da != db {
			t.Fatalf("decision %d diverged: %v vs %v", i, da, db)
		}
	}
	jobs, injected := a.Counts()
	if jobs != 1000 {
		t.Fatalf("jobs = %d", jobs)
	}
	// ~40% injection rate over 1000 draws: allow a wide band.
	if injected < 300 || injected > 500 {
		t.Fatalf("injected = %d, want ≈400", injected)
	}
}

func TestInjectorRates(t *testing.T) {
	inj := NewInjector(Config{Seed: 3, PTransient: 1.0})
	for i := 0; i < 10; i++ {
		if d := inj.Next(); d.Class != Transient {
			t.Fatalf("draw %d: %v, want transient", i, d.Class)
		}
	}
	clean := NewInjector(Config{Seed: 3})
	for i := 0; i < 10; i++ {
		if d := clean.Next(); d.Class != None {
			t.Fatalf("zero-probability injector injected %v", d.Class)
		}
	}
}

func TestInjectorMaxInjections(t *testing.T) {
	inj := NewInjector(Config{Seed: 1, PPersistent: 1.0, MaxInjections: 3})
	for i := 0; i < 3; i++ {
		if d := inj.Next(); d.Class != Persistent {
			t.Fatalf("draw %d: %v, want persistent", i, d.Class)
		}
	}
	for i := 0; i < 5; i++ {
		if d := inj.Next(); d.Class != None {
			t.Fatalf("injection budget exceeded: %v", d.Class)
		}
	}
}

func TestInjectorHangDelay(t *testing.T) {
	inj := NewInjector(Config{Seed: 1, PHang: 1.0, HangDelay: 7 * time.Millisecond})
	if d := inj.Next(); d.Class != Hang || d.Delay != 7*time.Millisecond {
		t.Fatalf("hang decision = %+v", d)
	}
}

func TestBackoffBounds(t *testing.T) {
	r := NewRand(9)
	base, max := 100*time.Microsecond, 2*time.Millisecond
	prevMid := time.Duration(0)
	for attempt := 0; attempt < 10; attempt++ {
		want := base << attempt
		if want > max {
			want = max
		}
		for i := 0; i < 50; i++ {
			d := Backoff(attempt, base, max, r)
			if d < want/2 || d > want {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, want/2, want)
			}
		}
		mid := Backoff(attempt, base, max, nil)
		if mid < prevMid {
			t.Fatalf("deterministic backoff not monotone: %v after %v", mid, prevMid)
		}
		prevMid = mid
	}
}

func TestBreakerStateMachine(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: 3, ProbeEvery: 4})
	if b.State() != StateClosed || !b.Allow() {
		t.Fatal("new breaker must be closed")
	}
	// Two failures: still closed.
	b.Failure()
	if b.Failure() {
		t.Fatal("tripped before threshold")
	}
	// A success resets the consecutive count.
	b.Success()
	b.Failure()
	b.Failure()
	if b.State() != StateClosed {
		t.Fatal("opened after a reset below threshold")
	}
	// Third consecutive failure trips.
	if !b.Failure() {
		t.Fatal("did not trip at threshold")
	}
	if b.State() != StateOpen || b.Trips() != 1 {
		t.Fatalf("state=%v trips=%d", b.State(), b.Trips())
	}
	// Open: rejects until the probe slot.
	for i := 0; i < 3; i++ {
		if b.Allow() {
			t.Fatalf("request %d admitted while open", i)
		}
	}
	if !b.Allow() {
		t.Fatal("probe not admitted")
	}
	if b.State() != StateHalfOpen {
		t.Fatalf("state=%v, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("second request admitted during probe")
	}
	// Failed probe: back to open, full probe countdown again.
	if b.Failure() {
		t.Fatal("failed probe must not count as a new trip")
	}
	for i := 0; i < 3; i++ {
		if b.Allow() {
			t.Fatal("admitted while re-opened")
		}
	}
	if !b.Allow() {
		t.Fatal("second probe not admitted")
	}
	// Successful probe: closed again.
	if !b.Success() {
		t.Fatal("probe success did not report recovery")
	}
	if b.State() != StateClosed || b.Recoveries() != 1 {
		t.Fatalf("state=%v recoveries=%d", b.State(), b.Recoveries())
	}
	if !b.Allow() {
		t.Fatal("closed breaker rejects")
	}
}

// TestBreakerSkipCountsTowardProbe: requests refused before the breaker
// count toward the probe countdown, and a probe that falls due among
// them goes to the next request Allow sees.
func TestBreakerSkipCountsTowardProbe(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: 1, ProbeEvery: 4})
	b.Skip() // closed: counts nothing
	b.Failure()
	b.Skip()
	b.Skip()
	if b.Allow() {
		t.Fatal("third request admitted while open")
	}
	if !b.Allow() {
		t.Fatal("fourth request is not the probe")
	}
	b.Failure()
	for i := 0; i < 6; i++ {
		b.Skip()
	}
	if b.State() != StateOpen {
		t.Fatalf("state=%v after skips, want open", b.State())
	}
	if !b.Allow() {
		t.Fatal("probe due during the skips not granted to the next request")
	}
	var nb *Breaker
	nb.Skip()
}

func TestNilBreakerIsClosed(t *testing.T) {
	var b *Breaker
	if !b.Allow() || b.State() != StateClosed {
		t.Fatal("nil breaker must behave closed")
	}
	b.Success()
	b.Failure()
	if b.Trips() != 0 || b.Recoveries() != 0 {
		t.Fatal("nil breaker counted transitions")
	}
}
