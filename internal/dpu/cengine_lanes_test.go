package dpu

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"pedal/internal/faults"
	"pedal/internal/flate"
	"pedal/internal/hwmodel"
	"pedal/internal/trace"
)

// laneInput is n bytes of mixed-compressibility text, distinct per tag,
// so a level-6 pass over 1 MiB takes milliseconds and no two jobs share
// output bytes.
func laneInput(tag, n int) []byte {
	var b strings.Builder
	for i := 0; b.Len() < n; i++ {
		fmt.Fprintf(&b, "job %d record %d value %x; ", tag, i, uint32(i)*2654435761^uint32(tag))
	}
	return []byte(b.String()[:n])
}

// pinLanes builds the test's engines with n host lanes.
func pinLanes(t *testing.T, n int) {
	t.Helper()
	old := engineLanes
	engineLanes = n
	t.Cleanup(func() { engineLanes = old })
}

// A Hang holds the head of the line: the job behind it does not start
// until the hang is over, even with idle host lanes.
func TestHangHoldsDispatchHeadOfLine(t *testing.T) {
	pinLanes(t, 4)
	e := newBF2(t).CEngine()
	const hang = 60 * time.Millisecond
	e.SetInjector(faults.NewInjector(faults.Config{Seed: 1, PHang: 1, HangDelay: hang, MaxInjections: 1}))
	start := time.Now()
	hung, err := e.Submit(compressJob())
	if err != nil {
		t.Fatal(err)
	}
	next, err := e.Submit(compressJob())
	if err != nil {
		t.Fatal(err)
	}
	if res := next.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	if elapsed := time.Since(start); elapsed < hang {
		t.Fatalf("job behind a %v hang finished after %v: it overtook the hang", hang, elapsed)
	}
	if res := hung.Wait(); res.Err != nil {
		t.Fatalf("hung job: %v", res.Err)
	}
}

// A Wedge stops dispatch: the job behind it waits until the epoch
// retires, while a job already executing when the wedge was reached
// still completes.
func TestWedgeStopsDispatchWhileRunningJobsFinish(t *testing.T) {
	pinLanes(t, 4)
	d, err := NewDevice(hwmodel.BlueField2, SeparatedHost)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	e := d.CEngine()
	big := laneInput(0, 4<<20)
	running, err := e.Submit(Job{Algo: hwmodel.Deflate, Op: hwmodel.Compress, Input: big})
	if err != nil {
		t.Fatal(err)
	}
	e.SetInjector(faults.NewInjector(faults.Config{Seed: 1, PWedge: 1, MaxInjections: 1}))
	wedged, err := e.Submit(compressJob())
	if err != nil {
		t.Fatal(err)
	}
	e.SetInjector(nil)
	behind, err := e.Submit(compressJob())
	if err != nil {
		t.Fatal(err)
	}
	res := running.Wait()
	if res.Err != nil {
		t.Fatalf("job ahead of the wedge: %v", res.Err)
	}
	if got, err := flate.Decompress(res.Output); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("job ahead of the wedge returned a bad stream (err %v)", err)
	}
	if _, ok := behind.WaitTimeout(50 * time.Millisecond); ok {
		t.Fatal("the job behind a wedge was dispatched")
	}
	d.Close()
	if res := wedged.Wait(); !errors.Is(res.Err, ErrEngineLost) {
		t.Fatalf("wedged job: want ErrEngineLost, got %v", res.Err)
	}
	// A close-retired epoch still drains the jobs it accepted.
	if res := behind.Wait(); res.Err != nil {
		t.Fatalf("job behind the wedge after close: %v", res.Err)
	}
}

// A job whose deadline passes while the head of the line hangs is
// dropped at dispatch, not executed.
func TestExpiredJobDroppedAtDispatch(t *testing.T) {
	pinLanes(t, 4)
	e := newBF2(t).CEngine()
	e.SetInjector(faults.NewInjector(faults.Config{Seed: 1, PHang: 1, HangDelay: 60 * time.Millisecond, MaxInjections: 1}))
	if _, err := e.Submit(compressJob()); err != nil {
		t.Fatal(err)
	}
	job := compressJob()
	job.Deadline = time.Now().Add(10 * time.Millisecond)
	late, err := e.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	res := late.Wait()
	if !errors.Is(res.Err, ErrDeadline) || !strings.Contains(res.Err.Error(), "expired in queue") {
		t.Fatalf("want an expired-in-queue drop, got %v", res.Err)
	}
	if got := e.Health().ExpiredDropped; got != 1 {
		t.Fatalf("ExpiredDropped = %d, want 1", got)
	}
}

// Two back-to-back 1 MiB compress jobs overlap in wall time. Each job's
// traced Wall is a sub-interval of the caller's elapsed time, so the
// Walls can only add up to more than the elapsed time if the intervals
// overlap: a serial engine can never pass this check. The inputs are
// built before the clock starts, so the second submit follows the first
// at once.
func TestLanesOverlapBackToBackCompress(t *testing.T) {
	pinLanes(t, 2)
	e := newBF2(t).CEngine()
	tr := trace.New(16)
	e.SetTracer(tr)
	inputs := [][]byte{laneInput(0, 1<<20), laneInput(1, 1<<20)}
	start := time.Now()
	var hs []*JobHandle
	for _, in := range inputs {
		h, err := e.Submit(Job{Algo: hwmodel.Deflate, Op: hwmodel.Compress, Input: in})
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	for _, h := range hs {
		if res := h.Wait(); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	elapsed := time.Since(start)
	var walls time.Duration
	for _, ev := range tr.Events() {
		if ev.Op == hwmodel.Compress.String() {
			walls += ev.Wall
		}
	}
	if walls <= elapsed {
		t.Fatalf("job walls sum to %v within %v elapsed: the jobs ran back to back", walls, elapsed)
	}
}

// corruptedSeqs submits 40 distinct compress jobs back to back to an
// engine with the given host lanes, under a seeded compute injector, and
// returns the seqs whose output differs from the clean stream.
func corruptedSeqs(t *testing.T, lanes int, cfg faults.ComputeFaultConfig) []uint64 {
	t.Helper()
	pinLanes(t, lanes)
	e := newBF2(t).CEngine()
	e.SetComputeInjector(faults.NewComputeInjector(cfg))
	const jobs = 40
	inputs := make([][]byte, jobs)
	hs := make([]*JobHandle, jobs)
	for i := range inputs {
		inputs[i] = laneInput(i, 16<<10+i*512)
		h, err := e.Submit(Job{Algo: hwmodel.Deflate, Op: hwmodel.Compress, Input: inputs[i]})
		if err != nil {
			t.Fatal(err)
		}
		hs[i] = h
	}
	var bad []uint64
	for i, h := range hs {
		res := h.Wait()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if !bytes.Equal(res.Output, flate.Compress(inputs[i], flate.DefaultLevel)) {
			bad = append(bad, res.Seq)
		}
	}
	return bad
}

// The compute injector corrupts the same job seqs with one host lane as
// with four: its decision is drawn at dispatch, in queue order, and a
// fault drawn but not yet applied already counts against MaxInjections.
func TestComputeInjectorDrawsInQueueOrder(t *testing.T) {
	for _, cfg := range []faults.ComputeFaultConfig{
		{Seed: 21, PKernelFlip: 0.35},
		{Seed: 25, PKernelFlip: 1, MaxInjections: 4},
	} {
		want := corruptedSeqs(t, 1, cfg)
		if len(want) == 0 {
			t.Fatalf("%+v corrupted no job", cfg)
		}
		if cfg.MaxInjections > 0 && len(want) != cfg.MaxInjections {
			t.Fatalf("%+v corrupted %d jobs", cfg, len(want))
		}
		for run := 0; run < 3; run++ {
			if got := corruptedSeqs(t, 4, cfg); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%+v: run %d on 4 lanes corrupted seqs %v, on 1 lane %v", cfg, run, got, want)
			}
		}
	}
}
