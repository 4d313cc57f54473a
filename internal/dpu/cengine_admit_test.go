package dpu

import (
	"errors"
	"testing"

	"pedal/internal/faults"
	"pedal/internal/hwmodel"
)

// TestAdmitCountsRefusalsWhileResetting: admissions refused while the
// engine is resetting count toward the breaker's probe countdown, so the
// same request probes however many requests the reset spans.
func TestAdmitCountsRefusalsWhileResetting(t *testing.T) {
	for _, during := range []int{0, 2, 5} {
		d := newBF2(t)
		e := d.CEngine()
		e.SetBreaker(faults.NewBreaker(faults.BreakerConfig{Threshold: 1, ProbeEvery: 4}))
		if !e.Admit(hwmodel.Compress) {
			t.Fatal("closed breaker refused")
		}
		e.Report(errors.New("hard failure"))
		e.mu.Lock()
		e.state = EngineResetting
		e.mu.Unlock()
		for i := 0; i < during; i++ {
			if e.Admit(hwmodel.Decompress) {
				t.Fatal("admitted while resetting")
			}
		}
		e.mu.Lock()
		e.state = EngineLive
		e.mu.Unlock()
		probe := during
		for !e.Admit(hwmodel.Decompress) {
			probe++
		}
		if want := max(3, during); probe != want {
			t.Fatalf("%d refusals while resetting: request %d probed, want %d", during, probe, want)
		}
	}
}
