package dpu

import (
	"errors"
	"testing"
	"time"

	"pedal/internal/faults"
)

// testWatchdog is a fast configuration for deterministic unit tests:
// injected stalls are declared within a few milliseconds, and genuine
// executions (microseconds of real flate work) never come close to the
// budget floor.
func testWatchdog() WatchdogConfig {
	return WatchdogConfig{
		Interval:         time.Millisecond,
		BudgetFloor:      20 * time.Millisecond,
		BudgetSlack:      8,
		WedgeAfter:       2,
		MaxResetAttempts: 3,
		ResetBackoff:     100 * time.Microsecond,
	}
}

// waitState polls until the engine reaches want or the deadline passes.
func waitState(t *testing.T, e *CEngine, want EngineState) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if e.State() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("engine state %v, want %v", e.State(), want)
}

// TestDeadlineExpiredDropAtDequeue: a queued job whose deadline has
// already passed is dropped at dequeue with ErrDeadline instead of
// wasting engine time, and the drop is counted.
func TestDeadlineExpiredDropAtDequeue(t *testing.T) {
	d := newBF2(t)
	job := compressJob()
	job.Deadline = time.Now().Add(-time.Millisecond)
	h, err := d.CEngine().Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	res := h.Wait()
	if !errors.Is(res.Err, ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", res.Err)
	}
	if !IsTransient(res.Err) {
		t.Fatal("expired-in-queue drop not classified retryable")
	}
	if got := d.CEngine().Health().ExpiredDropped; got != 1 {
		t.Fatalf("ExpiredDropped = %d, want 1", got)
	}
	// A job with a live deadline still executes.
	job = compressJob()
	job.Deadline = time.Now().Add(time.Minute)
	if res := d.CEngine().Run(job); res.Err != nil {
		t.Fatalf("live-deadline job failed: %v", res.Err)
	}
}

// TestAbandonedHandlesNeverBlockWorker: completion sends are
// non-blocking, so handles nobody waits on (timed-out callers, crashed
// goroutines) never wedge the dispatcher or a lane.
func TestAbandonedHandlesNeverBlockWorker(t *testing.T) {
	d := newBF2(t)
	for i := 0; i < 64; i++ {
		if _, err := d.CEngine().Submit(compressJob()); err != nil {
			t.Fatal(err)
		}
	}
	// The engine must still make progress past all the abandoned
	// handles and complete a watched job.
	h, err := d.CEngine().Submit(compressJob())
	if err != nil {
		t.Fatal(err)
	}
	res, ok := h.WaitTimeout(10 * time.Second)
	if !ok {
		t.Fatal("engine blocked behind abandoned handles")
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
}

// TestWatchdogStallDetection: a stalled job (submitted, never completed)
// is failed with ErrEngineLost once its latency budget expires; the
// engine itself stays live and keeps executing.
func TestWatchdogStallDetection(t *testing.T) {
	d := newBF2(t)
	e := d.CEngine()
	e.SetInjector(faults.NewInjector(faults.Config{Seed: 7, PStall: 1.0, MaxInjections: 1}))
	e.StartWatchdog(testWatchdog())
	h, err := e.Submit(compressJob())
	if err != nil {
		t.Fatal(err)
	}
	res, ok := h.WaitTimeout(10 * time.Second)
	if !ok {
		t.Fatal("watchdog never failed the stalled job")
	}
	if !errors.Is(res.Err, ErrEngineLost) {
		t.Fatalf("want ErrEngineLost, got %v", res.Err)
	}
	if IsTransient(res.Err) {
		t.Fatal("ErrEngineLost must not be transient: the caller replays on the SoC")
	}
	hl := e.Health()
	if hl.Stalls != 1 || hl.LostJobs != 1 {
		t.Fatalf("stalls=%d lost=%d, want 1/1", hl.Stalls, hl.LostJobs)
	}
	if hl.State != EngineLive {
		t.Fatalf("one stall degraded the engine to %v", hl.State)
	}
	// The fault budget is spent; the next job executes normally and
	// resets the stall streak.
	if res := e.Run(compressJob()); res.Err != nil {
		t.Fatalf("engine dead after single stall: %v", res.Err)
	}
}

// TestWatchdogWedgeHotResetRecovers: a wedged engine (dispatcher stuck, jobs
// piling up overdue) is hot-reset by the watchdog and returns to live;
// in-flight jobs fail with ErrEngineLost, later jobs execute on the
// fresh epoch.
func TestWatchdogWedgeHotResetRecovers(t *testing.T) {
	d := newBF2(t)
	e := d.CEngine()
	e.SetInjector(faults.NewInjector(faults.Config{Seed: 7, PWedge: 1.0, MaxInjections: 1}))
	e.StartWatchdog(testWatchdog())
	// The first job wedges the dispatcher; the second piles up behind it.
	// Both go overdue, crossing WedgeAfter and declaring the wedge.
	var handles []*JobHandle
	for i := 0; i < 2; i++ {
		h, err := e.Submit(compressJob())
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for _, h := range handles {
		res, ok := h.WaitTimeout(10 * time.Second)
		if !ok {
			t.Fatal("wedged job never failed")
		}
		if !errors.Is(res.Err, ErrEngineLost) {
			t.Fatalf("want ErrEngineLost, got %v", res.Err)
		}
	}
	waitState(t, e, EngineLive)
	hl := e.Health()
	if hl.Wedges == 0 || hl.Resets == 0 {
		t.Fatalf("wedges=%d resets=%d, want both > 0", hl.Wedges, hl.Resets)
	}
	if res := e.Run(compressJob()); res.Err != nil {
		t.Fatalf("engine not usable after hot-reset: %v", res.Err)
	}
}

// TestWatchdogResetExhaustionDegrades: when every reset attempt fails,
// the engine escalates to permanent degradation and rejects new work
// with ErrEngineLost so callers pin traffic to the SoC.
func TestWatchdogResetExhaustionDegrades(t *testing.T) {
	d := newBF2(t)
	e := d.CEngine()
	e.SetInjector(faults.NewInjector(faults.Config{
		Seed: 7, PWedge: 1.0, PResetFail: 1.0, MaxInjections: 1,
	}))
	e.StartWatchdog(testWatchdog())
	for i := 0; i < 2; i++ {
		h, err := e.Submit(compressJob())
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := h.WaitTimeout(10 * time.Second); !ok {
			t.Fatal("wedged job never failed")
		}
	}
	waitState(t, e, EngineDegraded)
	hl := e.Health()
	if want := uint64(testWatchdog().MaxResetAttempts); hl.ResetFailures != want {
		t.Fatalf("ResetFailures = %d, want %d", hl.ResetFailures, want)
	}
	if _, err := e.Submit(compressJob()); !errors.Is(err, ErrEngineLost) {
		t.Fatalf("degraded engine accepted work: err=%v", err)
	}
}

// TestManualReset: Reset() fails in-flight jobs with ErrEngineLost,
// rebuilds the queue, and leaves the engine live.
func TestManualReset(t *testing.T) {
	d := newBF2(t)
	e := d.CEngine()
	// A hanging job keeps an entry in flight while Reset runs.
	e.SetInjector(faults.NewInjector(faults.Config{
		Seed: 7, PStall: 1.0, MaxInjections: 1,
	}))
	h, err := e.Submit(compressJob())
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the stalled job is journaled in flight.
	deadline := time.Now().Add(5 * time.Second)
	for len(e.InflightJobs()) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := e.Reset(); st != EngineLive {
		t.Fatalf("Reset → %v, want live", st)
	}
	res, ok := h.WaitTimeout(10 * time.Second)
	if !ok {
		t.Fatal("in-flight job not failed by manual reset")
	}
	if !errors.Is(res.Err, ErrEngineLost) {
		t.Fatalf("want ErrEngineLost, got %v", res.Err)
	}
	if res := e.Run(compressJob()); res.Err != nil {
		t.Fatalf("engine not usable after manual reset: %v", res.Err)
	}
}
