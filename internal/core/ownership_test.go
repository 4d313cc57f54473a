package core

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"pedal/internal/dpu"
	"pedal/internal/faults"
	"pedal/internal/hwmodel"
)

// scribble keeps rewriting buf until d has passed. Under -race it is the
// writer that exposes any engine job still reading memory the caller was
// told it owns again.
func scribble(buf []byte, d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := range buf {
			buf[i] ^= 0xA5
		}
	}
}

// A C-Engine job abandoned at the caller's deadline keeps running on the
// engine. The buffers core recycles after the abandonment must not be the
// ones that job still reads: the pool hands them straight back out.
func TestAbandonedEngineJobInputNotRecycled(t *testing.T) {
	lib := faultyLib(t, faults.Config{Seed: 1, PHang: 1, HangDelay: 60 * time.Millisecond, MaxInjections: 1}, nil)
	src := textData(64 << 10)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, _, err := lib.CompressContext(ctx, Design{Algo: AlgoDeflate, Engine: hwmodel.CEngine}, TypeBytes, src); !errors.Is(err, dpu.ErrDeadline) {
		t.Fatalf("compress past its deadline: err = %v, want ErrDeadline", err)
	}
	for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); {
		buf := lib.Pool().Get(len(src))
		scribble(buf, time.Millisecond)
		lib.Pool().Put(buf)
	}
}

// A pipelined chunk the watchdog fails is replayed on the SoC and the call
// returns, while the hung engine job behind it is still queued. The caller
// then owns its input again and may overwrite it at once.
func TestWatchdogFailedChunkDoesNotReadCallerInput(t *testing.T) {
	lib := faultyLib(t, faults.Config{Seed: 1, PHang: 1, HangDelay: 80 * time.Millisecond, MaxInjections: 1},
		&ResilienceOptions{Watchdog: &dpu.WatchdogConfig{BudgetFloor: 5 * time.Millisecond, WedgeAfter: 100}})
	src := textData(224 << 10)
	want := append([]byte(nil), src...)
	msg, _, err := lib.CompressPipelined(Design{Algo: AlgoDeflate, Engine: hwmodel.CEngine}, TypeBytes, src)
	if err != nil {
		t.Fatal(err)
	}
	scribble(src, 150*time.Millisecond)
	out, _, err := lib.Decompress(hwmodel.SoC, TypeBytes, msg, len(want))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Fatal("pipelined round trip differs from the input as it was at the call")
	}
}
