package dpu

import (
	"errors"
	"testing"
	"time"

	"pedal/internal/faults"
)

// TestExpiredJobDrainedByResetOnce pins the double-selection edge: a
// queued job whose wait deadline has already expired is ALSO drained by
// a journal-replay reset. Two writers race for its handle — the reset
// drain (ErrEngineLost, a replay candidate) and the stale dispatcher's
// dequeue of the same job (whose deadline has long passed). The caller
// must observe exactly one completion and therefore replay exactly
// once; the loser's completion is a dropped non-blocking send.
func TestExpiredJobDrainedByResetOnce(t *testing.T) {
	d := newBF2(t)
	eng := d.CEngine()
	// Every job draws Wedge: job A freezes the dispatcher at dequeue, so job
	// B sits in the queue with its deadline already burned.
	d.SetFaultInjector(faults.NewInjector(faults.Config{Seed: 3, PWedge: 1.0}))

	ha, err := eng.Submit(compressJob())
	if err != nil {
		t.Fatal(err)
	}
	jb := compressJob()
	jb.Deadline = time.Now().Add(-time.Millisecond) // expired before it ever runs
	hb, err := eng.Submit(jb)
	if err != nil {
		t.Fatal(err)
	}
	// Let the dispatcher dequeue A and wedge.
	time.Sleep(5 * time.Millisecond)

	// Journal-replay selection: the reset drains every in-flight entry —
	// including expired B — and the retired dispatcher then re-encounters B
	// at dequeue.
	if st := eng.Reset(); st != EngineLive {
		t.Fatalf("engine state after reset: %v", st)
	}

	replays := 0
	for _, h := range []*JobHandle{ha, hb} {
		res := h.Wait()
		if !errors.Is(res.Err, ErrEngineLost) {
			t.Fatalf("job %d: got %v, want ErrEngineLost", h.Seq(), res.Err)
		}
		// The SoC replay a real caller performs on ErrEngineLost.
		replays++
	}
	if replays != 2 {
		t.Fatalf("replayed %d jobs, want 2 (each exactly once)", replays)
	}
	// Give the retired dispatcher time to drain B and lose the handle race.
	time.Sleep(5 * time.Millisecond)
	if n := len(eng.InflightJobs()); n != 0 {
		t.Fatalf("%d journal entries leaked past the reset", n)
	}
	st := eng.Health()
	// B was claimed by the drain, not the expired-drop path: it must be
	// counted lost (replay candidate) and not double-counted as expired.
	if st.LostJobs < 2 {
		t.Fatalf("LostJobs %d, want >= 2", st.LostJobs)
	}
	if st.ExpiredDropped != 0 {
		t.Fatalf("ExpiredDropped %d: drained job double-counted", st.ExpiredDropped)
	}

	// The engine came back: a clean job executes for real.
	d.SetFaultInjector(nil)
	if res := eng.Run(compressJob()); res.Err != nil || !res.VerifyOutput() {
		t.Fatalf("post-reset job: %v", res.Err)
	}
}

// TestExpiredAtDequeueRacesWatchdogReplay runs the probabilistic
// interleaving of the same edge under the watchdog: stalled jobs pile
// up a streak while expired jobs are dropped at dequeue, and whichever
// writer reaches a handle first wins — every job completes exactly
// once with either ErrDeadline or ErrEngineLost, never neither, never
// both (the handle's buffered-once channel makes a double completion
// observable as a lost wait below).
func TestExpiredAtDequeueRacesWatchdogReplay(t *testing.T) {
	d := newBF2(t)
	eng := d.CEngine()
	d.SetFaultInjector(faults.NewInjector(faults.Config{Seed: 17, PStall: 0.5}))
	eng.StartWatchdog(WatchdogConfig{
		Interval: time.Millisecond, BudgetFloor: 4 * time.Millisecond,
		WedgeAfter: 2, MaxResetAttempts: 3, ResetBackoff: time.Millisecond,
	})

	const jobs = 32
	handles := make([]*JobHandle, 0, jobs)
	for i := 0; i < jobs; i++ {
		j := compressJob()
		// Half the deadlines are pre-expired: those jobs are dead at
		// dequeue unless a wedge drain selects them first.
		if i%2 == 1 {
			j.Deadline = time.Now().Add(-time.Millisecond)
		}
		h, err := eng.Submit(j)
		if err != nil {
			// Reset window: the submit path itself reported the loss.
			continue
		}
		handles = append(handles, h)
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, h := range handles {
		res, ok := h.WaitTimeout(time.Until(deadline))
		if !ok {
			t.Fatalf("job %d never completed: a writer was lost or doubled", h.Seq())
		}
		if res.Err != nil && !errors.Is(res.Err, ErrDeadline) && !errors.Is(res.Err, ErrEngineLost) {
			t.Fatalf("job %d: unexpected error class %v", h.Seq(), res.Err)
		}
	}
	time.Sleep(10 * time.Millisecond)
	if n := len(eng.InflightJobs()); n != 0 {
		t.Fatalf("%d journal entries leaked", n)
	}
}
