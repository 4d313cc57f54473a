package integrity

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"pedal/internal/dpu"
	"pedal/internal/hwmodel"
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

// The quarantine ladder the verdicts drive lives on the C-Engine: three
// verified mismatches quarantine it, decompress waits the quarantine out,
// every eighth compress admission is the one half-open probe in flight,
// and a probe that verifies clean readmits the engine.
func TestLedgerQuarantineLadder(t *testing.T) {
	dev, err := dpu.NewDevice(hwmodel.BlueField2, dpu.SeparatedHost)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	eng := dev.CEngine()

	// Below threshold: stays in service, streak resets on success.
	eng.ReportCorrupt()
	eng.ReportCorrupt()
	eng.ReportVerified()
	eng.ReportCorrupt()
	eng.ReportCorrupt()
	if eng.Quarantined() {
		t.Fatal("quarantined below threshold after a reset")
	}
	if !eng.ReportCorrupt() || !eng.Quarantined() {
		t.Fatal("third consecutive mismatch must quarantine the engine")
	}

	// Quarantined: decompress is held off, only every 8th compress
	// admission probes, and a probe in flight admits nothing more.
	probeWindow := func() {
		t.Helper()
		for i := 1; i <= 8; i++ {
			if eng.Admit(hwmodel.Decompress) {
				t.Fatal("decompress admitted while quarantined")
			}
			if got := eng.Admit(hwmodel.Compress); got != (i == 8) {
				t.Fatalf("compress admission %d of the window: %v", i, got)
			}
		}
		for i := 0; i < 16; i++ {
			if eng.Admit(hwmodel.Compress) {
				t.Fatal("second probe admitted while one is in flight")
			}
		}
	}
	probeWindow()

	// Probe fails: stays quarantined (no double-quarantine transition)
	// and the probe window restarts.
	if eng.ReportCorrupt() {
		t.Error("mismatch while quarantined must not re-transition")
	}
	if !eng.Quarantined() {
		t.Fatal("engine left quarantine on a failed probe")
	}
	probeWindow()

	// Probe verifies clean: readmitted, and decompress runs again.
	if !eng.ReportVerified() {
		t.Fatal("verified probe must readmit")
	}
	if eng.Quarantined() || !eng.Admit(hwmodel.Decompress) || !eng.Admit(hwmodel.Compress) {
		t.Fatal("readmitted engine must admit both directions")
	}

	h := eng.Health()
	if h.CorruptMismatches != 6 || h.Quarantines != 1 || h.Readmits != 1 {
		t.Errorf("counts = (%d, %d, %d), want (6, 1, 1)", h.CorruptMismatches, h.Quarantines, h.Readmits)
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
