package dpu

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"pedal/internal/faults"
	"pedal/internal/flate"
	"pedal/internal/hwmodel"
)

var faultSrc = []byte(strings.Repeat("fault injection payload ", 200))

func compressJob() Job {
	return Job{Algo: hwmodel.Deflate, Op: hwmodel.Compress, Input: faultSrc}
}

func TestInjectedTransientFault(t *testing.T) {
	d := newBF2(t)
	d.SetFaultInjector(faults.NewInjector(faults.Config{Seed: 1, PTransient: 1.0}))
	res := d.CEngine().Run(compressJob())
	if !errors.Is(res.Err, ErrTransient) {
		t.Fatalf("want ErrTransient, got %v", res.Err)
	}
	if !IsTransient(res.Err) {
		t.Fatal("transient fault not classified retryable")
	}
}

func TestInjectedPersistentFault(t *testing.T) {
	d := newBF2(t)
	d.SetFaultInjector(faults.NewInjector(faults.Config{Seed: 1, PPersistent: 1.0}))
	res := d.CEngine().Run(compressJob())
	if !errors.Is(res.Err, ErrHardware) {
		t.Fatalf("want ErrHardware, got %v", res.Err)
	}
	if IsTransient(res.Err) {
		t.Fatal("persistent fault classified retryable")
	}
}

func TestInjectedQueueFull(t *testing.T) {
	d := newBF2(t)
	d.SetFaultInjector(faults.NewInjector(faults.Config{Seed: 1, PQueueFull: 1.0}))
	_, err := d.CEngine().Submit(compressJob())
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if !IsTransient(err) {
		t.Fatal("queue-full not classified retryable")
	}
}

func TestInjectedCorruptionDetectable(t *testing.T) {
	d := newBF2(t)
	d.SetFaultInjector(faults.NewInjector(faults.Config{Seed: 1, PCorrupt: 1.0}))
	res := d.CEngine().Run(compressJob())
	if res.Err != nil {
		t.Fatalf("corrupt job must 'succeed': %v", res.Err)
	}
	if res.VerifyOutput() {
		t.Fatal("corrupted output passed checksum verification")
	}
	// Clean runs verify.
	d.SetFaultInjector(nil)
	res = d.CEngine().Run(compressJob())
	if res.Err != nil || !res.VerifyOutput() {
		t.Fatalf("clean output failed verification: %v", res.Err)
	}
}

func TestWaitTimeoutOnHang(t *testing.T) {
	d := newBF2(t)
	d.SetFaultInjector(faults.NewInjector(faults.Config{
		Seed: 1, PHang: 1.0, HangDelay: 200 * time.Millisecond,
	}))
	h, err := d.CEngine().Submit(compressJob())
	if err != nil {
		t.Fatal(err)
	}
	res, ok := h.WaitTimeout(5 * time.Millisecond)
	if ok || !errors.Is(res.Err, ErrDeadline) {
		t.Fatalf("deadline did not fire: ok=%v err=%v", ok, res.Err)
	}
	// The abandoned job still completes in the background without
	// blocking the engine (buffered handle channel).
	d.SetFaultInjector(nil)
	if res := d.CEngine().Run(compressJob()); res.Err != nil {
		t.Fatalf("engine wedged after abandoned job: %v", res.Err)
	}
}

func TestWaitContext(t *testing.T) {
	d := newBF2(t)
	d.SetFaultInjector(faults.NewInjector(faults.Config{
		Seed: 1, PHang: 1.0, HangDelay: 200 * time.Millisecond,
	}))
	h, err := d.CEngine().Submit(compressJob())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	res, ok := h.WaitContext(ctx)
	if ok || !errors.Is(res.Err, ErrDeadline) {
		t.Fatalf("context deadline did not fire: ok=%v err=%v", ok, res.Err)
	}
}

// Regression test for the Submit/close deadlock: Submit used to hold the
// engine mutex while sending on a possibly-full queue, so a full queue
// wedged SetTracer and close, and close(queue) could panic a blocked
// send. Now submits block outside the lock and close drains them.
func TestSubmitCloseRaceOnFullQueue(t *testing.T) {
	d, err := NewDevice(hwmodel.BlueField2, SeparatedHost)
	if err != nil {
		t.Fatal(err)
	}
	// Every job hangs briefly, so the dispatcher drains slowly and
	// the queue (depth 128) fills while submitters keep pushing.
	d.SetFaultInjector(faults.NewInjector(faults.Config{
		Seed: 1, PHang: 1.0, HangDelay: time.Millisecond,
	}))
	var wg sync.WaitGroup
	for i := 0; i < 300; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := d.CEngine().Submit(compressJob())
			if err != nil {
				return // ErrClosed for submissions that lost the race
			}
			h.Wait()
		}()
	}
	// Give submitters time to fill the queue, then make sure the mutex
	// paths stay reachable and close neither deadlocks nor panics.
	time.Sleep(20 * time.Millisecond)
	tracerSet := make(chan struct{})
	go func() {
		d.CEngine().SetTracer(nil)
		close(tracerSet)
	}()
	select {
	case <-tracerSet:
	case <-time.After(2 * time.Second):
		t.Fatal("SetTracer blocked behind a full queue")
	}
	closed := make(chan struct{})
	go func() {
		d.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked against blocked submitters")
	}
	wg.Wait()
	if _, err := d.CEngine().Submit(compressJob()); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close submit: %v", err)
	}
}

// Submit copies the input: the caller may overwrite it as soon as Submit
// returns, even while the job waits out a hang, and the copy goes back to
// the engine's pool once the job is done.
func TestSubmitCopiesInput(t *testing.T) {
	d := newBF2(t)
	d.SetFaultInjector(faults.NewInjector(faults.Config{Seed: 1, PHang: 1.0, HangDelay: 10 * time.Millisecond, MaxInjections: 1}))
	src := append([]byte(nil), faultSrc...)
	h, err := d.CEngine().Submit(Job{Algo: hwmodel.Deflate, Op: hwmodel.Compress, Input: src})
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		src[i] = 0
	}
	res := h.Wait()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got, err := flate.Decompress(res.Output); err != nil || !bytes.Equal(got, faultSrc) {
		t.Fatalf("engine output is not the input as submitted (err %v)", err)
	}
	inputs := d.CEngine().inputs
	for end := time.Now().Add(time.Second); inputs.Outstanding() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("engine still holds %d input copies after its job finished", inputs.Outstanding())
		}
	}
}
