package stats

import (
	"strings"
	"testing"
	"time"
)

func TestCounters(t *testing.T) {
	b := NewBreakdown()
	if got := b.Count(CounterRetries); got != 0 {
		t.Fatalf("fresh counter = %d", got)
	}
	b.Inc(CounterRetries)
	b.Inc(CounterRetries)
	b.CountAdd(CounterTimeouts, 3)
	if b.Count(CounterRetries) != 2 || b.Count(CounterTimeouts) != 3 {
		t.Fatalf("counts = %v", b.Counts())
	}
	snap := b.Counts()
	snap[CounterRetries] = 99
	if b.Count(CounterRetries) != 2 {
		t.Fatal("Counts did not return a copy")
	}
}

func TestCountersMerge(t *testing.T) {
	a, b := NewBreakdown(), NewBreakdown()
	a.Inc(CounterBreakerTrips)
	b.Inc(CounterBreakerTrips)
	b.CountAdd(CounterDegradedOps, 5)
	b.Add(PhaseRetry, time.Millisecond)
	a.Merge(b)
	if a.Count(CounterBreakerTrips) != 2 {
		t.Fatalf("merged trips = %d", a.Count(CounterBreakerTrips))
	}
	if a.Count(CounterDegradedOps) != 5 {
		t.Fatalf("merged degraded = %d", a.Count(CounterDegradedOps))
	}
	if a.Get(PhaseRetry) != time.Millisecond {
		t.Fatal("merge lost phase time")
	}
}

func TestCountersReset(t *testing.T) {
	b := NewBreakdown()
	b.Inc(CounterCorruptions)
	b.Add(PhaseCompress, time.Second)
	b.Reset()
	if b.Count(CounterCorruptions) != 0 || b.Get(PhaseCompress) != 0 {
		t.Fatal("reset did not clear counters and phases")
	}
}

func TestStringIncludesNonZeroCounters(t *testing.T) {
	b := NewBreakdown()
	b.Add(PhaseCompress, time.Millisecond)
	b.Inc(CounterRetries)
	s := b.String()
	if !strings.Contains(s, "retries=1") {
		t.Fatalf("String() missing counter: %q", s)
	}
	if strings.Contains(s, CounterTimeouts.String()) {
		t.Fatalf("String() shows zero counter: %q", s)
	}
}

func TestNilBreakdownCounters(t *testing.T) {
	var b *Breakdown
	b.Inc(CounterRetries) // must not panic
	if b.Count(CounterRetries) != 0 {
		t.Fatal("nil breakdown count")
	}
	if b.Counts() != (Counts{}) {
		t.Fatal("nil breakdown counts map")
	}
}

func TestNamesComplete(t *testing.T) {
	seen := map[string]bool{}
	for p := Phase(0); p < numPhases; p++ {
		if n := p.String(); n == "" || seen[n] {
			t.Fatalf("phase %d has empty or duplicate name %q", p, n)
		}
		seen[p.String()] = true
	}
	for k := Counter(0); k < numCounters; k++ {
		if n := k.String(); n == "" || seen[n] {
			t.Fatalf("counter %d has empty or duplicate name %q", k, n)
		}
		seen[k.String()] = true
	}
	if s := numCounters.String(); !strings.HasPrefix(s, "Counter(") {
		t.Fatalf("out-of-range counter = %q", s)
	}
}
