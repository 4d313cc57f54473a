package core

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"pedal/internal/dpu"
	"pedal/internal/hwmodel"
	"pedal/internal/testutil"
)

// Init pins at most 40 MiB: the prewarmed classes up to 8 MiB, four each.
// The heap Init leaves live bounds what its pool retains.
func TestInitRetainsAtMost40MiB(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	lib, err := Init(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lib.Finalize()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 40<<20 {
		t.Fatalf("Init left %.1f MiB live, want at most 40 MiB", float64(grew)/(1<<20))
	}
}

// A message above every prewarmed class still round-trips, and the
// class fills on demand: the second 48 MiB message draws a pool hit.
func TestLargestMessageFillsItsClass(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("48 MiB round trips under the race detector's shadow memory")
	}
	lib := newLib(t, hwmodel.BlueField2)
	d := Design{Algo: AlgoLZ4, Engine: hwmodel.SoC}
	data := textData(48 << 20)
	for i := 0; i < 2; i++ {
		hits, misses := lib.PoolStats()
		msg, _, err := lib.Compress(d, TypeBytes, data)
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			if h, m := lib.PoolStats(); h == hits || m != misses {
				t.Fatalf("second 48 MiB draw: hits %d -> %d, misses %d -> %d; want a hit", hits, h, misses, m)
			}
		}
		out, _, err := lib.Decompress(d.Engine, TypeBytes, msg, len(data))
		if err != nil || !bytes.Equal(out, data) {
			t.Fatalf("round trip %d: err %v", i, err)
		}
		lib.Release(msg)
	}
}

// Finalize returns only after every engine goroutine has exited — the
// queue's dispatcher, its host lanes and the watchdog — even with jobs in
// flight, so right after it no goroutine is left in this module's code
// beyond the baseline.
func TestFinalizeLeavesNoEngineGoroutine(t *testing.T) {
	base := moduleGoroutines()
	lib, err := Init(Options{Resilience: &ResilienceOptions{Watchdog: &dpu.WatchdogConfig{}}})
	if err != nil {
		t.Fatal(err)
	}
	e := lib.Device().CEngine()
	in := floatData(1 << 20)
	for i := 0; i < 16; i++ {
		if _, err := e.Submit(dpu.Job{Algo: hwmodel.Deflate, Op: hwmodel.Compress, Input: in}); err != nil {
			t.Fatal(err)
		}
	}
	lib.Finalize()
	if n := moduleGoroutines(); n > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines in module code after Finalize, %d before\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
}

// moduleGoroutines counts the goroutines with a frame in this module's
// code. One still inside the WaitGroup.Done by which it reported its exit
// does no more work and is not counted: a goroutine can only report its
// exit before it has left the scheduler.
func moduleGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "pedal/internal/") && !strings.Contains(g, "sync.(*WaitGroup).Done") {
			n++
		}
	}
	return n
}
