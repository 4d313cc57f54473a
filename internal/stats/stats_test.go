package stats

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestAddGetTotal(t *testing.T) {
	b := NewBreakdown()
	b.Add(PhaseDOCAInit, 150*time.Millisecond)
	b.Add(PhaseCompress, 30*time.Millisecond)
	b.Add(PhaseCompress, 20*time.Millisecond)
	if b.Get(PhaseCompress) != 50*time.Millisecond {
		t.Fatalf("compress = %v", b.Get(PhaseCompress))
	}
	if b.Total() != 200*time.Millisecond {
		t.Fatalf("total = %v", b.Total())
	}
}

func TestFraction(t *testing.T) {
	b := NewBreakdown()
	b.Add(PhaseDOCAInit, 94*time.Millisecond)
	b.Add(PhaseCompress, 6*time.Millisecond)
	if f := b.Fraction(PhaseDOCAInit); f < 0.93 || f > 0.95 {
		t.Fatalf("fraction = %v", f)
	}
	if NewBreakdown().Fraction(PhaseCompress) != 0 {
		t.Fatal("empty breakdown fraction should be 0")
	}
}

func TestReset(t *testing.T) {
	b := NewBreakdown()
	b.Add(PhaseWire, time.Second)
	b.Reset()
	if b.Total() != 0 {
		t.Fatal("reset failed")
	}
}

func TestMerge(t *testing.T) {
	a := NewBreakdown()
	a.Add(PhaseCompress, time.Millisecond)
	b := NewBreakdown()
	b.Add(PhaseCompress, time.Millisecond)
	b.Add(PhaseWire, 2*time.Millisecond)
	a.Merge(b)
	if a.Get(PhaseCompress) != 2*time.Millisecond || a.Get(PhaseWire) != 2*time.Millisecond {
		t.Fatalf("merge wrong: %v", a)
	}
}

func TestNilSafe(t *testing.T) {
	var b *Breakdown
	b.Add(PhaseCompress, time.Second) // must not panic
	if b.Get(PhaseCompress) != 0 || b.Total() != 0 {
		t.Fatal("nil breakdown should read zero")
	}
	b.Reset()
	b.Merge(NewBreakdown())
}

func TestStringFormat(t *testing.T) {
	b := NewBreakdown()
	b.Add(PhaseDOCAInit, 90*time.Millisecond)
	b.Add(PhaseCompress, 10*time.Millisecond)
	s := b.String()
	if !strings.Contains(s, "doca_init") || !strings.Contains(s, "90.0%") {
		t.Fatalf("unexpected format: %s", s)
	}
}

func TestConcurrentAdd(t *testing.T) {
	// Eight goroutines charge one shared breakdown directly and, the way
	// core's operations do, each folds its own per-operation breakdowns
	// into a shared total with Merge. No update may be lost.
	const goroutines, rounds = 8, 1000
	b, total := NewBreakdown(), NewBreakdown()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				b.Add(PhaseCompress, time.Microsecond)
				b.CountAdd(CounterRetries, 2)
				var op Breakdown
				op.Add(PhaseBufPrep, time.Nanosecond)
				op.Add(PhaseCompress, 3*time.Nanosecond)
				op.Inc(CounterJobsReplayed)
				total.Merge(&op)
			}
		}()
	}
	wg.Wait()
	const n = goroutines * rounds
	if b.Get(PhaseCompress) != n*time.Microsecond || b.Count(CounterRetries) != 2*n {
		t.Fatalf("lost updates: %v", b)
	}
	if total.Get(PhaseBufPrep) != n*time.Nanosecond || total.Get(PhaseCompress) != 3*n*time.Nanosecond ||
		total.Count(CounterJobsReplayed) != n || total.Total() != 4*n*time.Nanosecond {
		t.Fatalf("lost merges: %v", total)
	}
	if total.Counts() != (Counts{CounterJobsReplayed: n}) {
		t.Fatalf("merge touched other counters: %v", total.Counts())
	}
}
