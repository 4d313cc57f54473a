package integrity

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestSamplerModes(t *testing.T) {
	if NewSampler(VerifyOff, 4).Hit() {
		t.Error("off mode verified")
	}
	full := NewSampler(VerifyFull, 4)
	for i := 0; i < 10; i++ {
		if !full.Hit() {
			t.Fatal("full mode skipped an op")
		}
	}
	s := NewSampler(VerifySampled, 4)
	hits := 0
	for i := 0; i < 400; i++ {
		if s.Hit() {
			hits++
		}
	}
	if hits != 100 {
		t.Errorf("sampled 1-in-4: %d hits over 400 ops, want 100", hits)
	}
	var nilS *Sampler
	if nilS.Hit() || nilS.Mode() != VerifyOff {
		t.Error("nil sampler must be inert")
	}
}

func TestSamplerDefaultPeriod(t *testing.T) {
	s := NewSampler(VerifySampled, 0)
	hits := 0
	for i := 0; i < 8*10; i++ {
		if s.Hit() {
			hits++
		}
	}
	if hits != 10 {
		t.Errorf("default period: %d hits over 80 ops, want 10", hits)
	}
}

func TestSamplerConcurrent(t *testing.T) {
	s := NewSampler(VerifySampled, 8)
	var wg sync.WaitGroup
	var mu sync.Mutex
	total := 0
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			for i := 0; i < 200; i++ {
				if s.Hit() {
					n++
				}
			}
			mu.Lock()
			total += n
			mu.Unlock()
		}()
	}
	wg.Wait()
	if total != 100 {
		t.Errorf("concurrent sampled 1-in-8: %d hits over 800 ops, want 100", total)
	}
}

func TestCorruptErrorTyping(t *testing.T) {
	e := &CorruptError{Hop: "fleet", Segment: "s1", Index: -1, Want: 0xdead, Got: 0xbeef}
	if !errors.Is(e, ErrCorrupt) {
		t.Error("CorruptError must match ErrCorrupt")
	}
	wrapped := fmt.Errorf("request failed: %w", e)
	if !errors.Is(wrapped, ErrCorrupt) {
		t.Error("wrapped CorruptError must match ErrCorrupt")
	}
	var ce *CorruptError
	if !errors.As(wrapped, &ce) || ce.Segment != "s1" {
		t.Error("errors.As must recover the segment")
	}
	ref := &CorruptError{Hop: "verify", Segment: "sz3", Index: 3}
	for _, msg := range []string{e.Error(), ref.Error()} {
		if msg == "" {
			t.Error("empty error text")
		}
	}
}

func TestLedgerQuarantineLadder(t *testing.T) {
	l := NewLedger(LedgerConfig{Threshold: 3, ProbeEvery: 4})

	// Below threshold: stays in service, streak resets on success.
	l.Mismatch(0)
	l.Mismatch(0)
	l.Verified(0)
	l.Mismatch(0)
	l.Mismatch(0)
	if l.Quarantined(0) {
		t.Fatal("quarantined below threshold after a reset")
	}
	if !l.Mismatch(0) {
		t.Fatal("third consecutive mismatch must transition to quarantine")
	}
	if !l.Quarantined(0) {
		t.Fatal("not quarantined after threshold")
	}

	// Quarantined: only every 4th Allow is a probe.
	probes := 0
	for i := 0; i < 12; i++ {
		if l.Allow(0) {
			probes++
		}
	}
	if probes != 3 {
		t.Fatalf("probe gate let %d of 12 calls through, want 3", probes)
	}

	// Probe fails: stays quarantined (no double-quarantine transition).
	if l.Mismatch(0) {
		t.Error("mismatch while quarantined must not re-transition")
	}
	if !l.Quarantined(0) {
		t.Fatal("unit left quarantine on a failed probe")
	}

	// Probe succeeds: readmitted and immediately allowed.
	if !l.Verified(0) {
		t.Fatal("verified probe must readmit")
	}
	if l.Quarantined(0) || !l.Allow(0) {
		t.Fatal("readmitted unit must be allowed")
	}

	mm, q, r := l.Counts()
	if mm != 6 || q != 1 || r != 1 {
		t.Errorf("counts = (%d, %d, %d), want (6, 1, 1)", mm, q, r)
	}
}

func TestLedgerPerUnitIsolation(t *testing.T) {
	l := NewLedger(LedgerConfig{Threshold: 2})
	l.Mismatch(1)
	l.Mismatch(1)
	if !l.Quarantined(1) {
		t.Fatal("unit 1 should be quarantined")
	}
	if l.Quarantined(0) || !l.Allow(0) {
		t.Error("unit 0 must be unaffected by unit 1's quarantine")
	}
}

func TestLedgerNilSafety(t *testing.T) {
	var l *Ledger
	if l.Mismatch(0) || l.Verified(0) || l.Quarantined(0) {
		t.Error("nil ledger must record nothing")
	}
	if !l.Allow(0) {
		t.Error("nil ledger must allow everything")
	}
	if a, b, c := l.Counts(); a+b+c != 0 {
		t.Error("nil ledger counts must be zero")
	}
}

func TestVerifyModeString(t *testing.T) {
	for m, want := range map[VerifyMode]string{
		VerifyOff: "off", VerifySampled: "sampled", VerifyFull: "full", VerifyMode(9): "verify(9)",
	} {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", m, got, want)
		}
	}
}
