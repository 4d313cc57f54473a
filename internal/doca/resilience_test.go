package doca

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"pedal/internal/dpu"
	"pedal/internal/faults"
	"pedal/internal/hwmodel"
	"pedal/internal/stats"
)

func newFaultyCtx(t *testing.T, cfg faults.Config, policy RetryPolicy) (*Context, *stats.Breakdown) {
	t.Helper()
	dev, err := dpu.NewDevice(hwmodel.BlueField2, dpu.SeparatedHost)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dev.Close)
	dev.SetFaultInjector(faults.NewInjector(cfg))
	bd := stats.NewBreakdown()
	ctx, err := Init(dev, bd)
	if err != nil {
		t.Fatal(err)
	}
	ctx.SetRetryPolicy(policy)
	return ctx, bd
}

var resilienceSrc = []byte(strings.Repeat("doca resilience path ", 400))

func TestTransientFaultRetriedToSuccess(t *testing.T) {
	ctx, bd := newFaultyCtx(t,
		faults.Config{Seed: 7, PTransient: 0.6},
		RetryPolicy{MaxAttempts: 10},
	)
	res, err := ctx.Submit(context.Background(), bd, hwmodel.Deflate, hwmodel.Compress, resilienceSrc, 0)
	if err != nil {
		t.Fatalf("retries did not absorb transient faults: %v", err)
	}
	if bd.Count(stats.CounterRetries) == 0 {
		t.Fatal("no retries recorded despite 60% transient rate")
	}
	if bd.Get(stats.PhaseRetry) == 0 {
		t.Fatal("retry backoff charged no virtual time")
	}
	dec, err := ctx.Submit(context.Background(), bd, hwmodel.Deflate, hwmodel.Decompress, res.Output, len(resilienceSrc)+16)
	if err != nil || !bytes.Equal(dec.Output, resilienceSrc) {
		t.Fatalf("round trip under faults failed: %v", err)
	}
}

func TestPersistentFaultFailsFast(t *testing.T) {
	ctx, bd := newFaultyCtx(t,
		faults.Config{Seed: 7, PPersistent: 1.0},
		RetryPolicy{MaxAttempts: 10},
	)
	_, err := ctx.Submit(context.Background(), bd, hwmodel.Deflate, hwmodel.Compress, resilienceSrc, 0)
	if !errors.Is(err, dpu.ErrHardware) {
		t.Fatalf("want ErrHardware, got %v", err)
	}
	if got := bd.Count(stats.CounterRetries); got != 0 {
		t.Fatalf("persistent error was retried %d times", got)
	}
}

func TestCorruptionDetectedAndRetried(t *testing.T) {
	// Corrupt the first two attempts only; the third succeeds.
	ctx, bd := newFaultyCtx(t,
		faults.Config{Seed: 7, PCorrupt: 1.0, MaxInjections: 2},
		RetryPolicy{MaxAttempts: 5},
	)
	res, err := ctx.Submit(context.Background(), bd, hwmodel.Deflate, hwmodel.Compress, resilienceSrc, 0)
	if err != nil {
		t.Fatalf("corruption not recovered: %v", err)
	}
	if got := bd.Count(stats.CounterCorruptions); got != 2 {
		t.Fatalf("corruptions detected = %d, want 2", got)
	}
	if bd.Count(stats.CounterRetries) != 2 {
		t.Fatalf("retries = %d, want 2", bd.Count(stats.CounterRetries))
	}
	if len(res.Output) == 0 {
		t.Fatal("no output from recovered submit")
	}
}

func TestCorruptionExhaustsRetries(t *testing.T) {
	ctx, bd := newFaultyCtx(t,
		faults.Config{Seed: 7, PCorrupt: 1.0},
		RetryPolicy{MaxAttempts: 3},
	)
	_, err := ctx.Submit(context.Background(), bd, hwmodel.Deflate, hwmodel.Compress, resilienceSrc, 0)
	if !errors.Is(err, dpu.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt after exhausted retries, got %v", err)
	}
	if got := bd.Count(stats.CounterCorruptions); got != 3 {
		t.Fatalf("corruptions = %d, want 3", got)
	}
}

func TestJobDeadlineFires(t *testing.T) {
	ctx, bd := newFaultyCtx(t,
		faults.Config{Seed: 7, PHang: 1.0, HangDelay: 50 * time.Millisecond},
		RetryPolicy{MaxAttempts: 2, JobDeadline: 5 * time.Millisecond},
	)
	_, err := ctx.Submit(context.Background(), bd, hwmodel.Deflate, hwmodel.Compress, resilienceSrc, 0)
	if !errors.Is(err, dpu.ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	if bd.Count(stats.CounterTimeouts) == 0 {
		t.Fatal("timeout counter not incremented")
	}
}

func TestRetryPolicyNormalization(t *testing.T) {
	p := RetryPolicy{}.normalized()
	def := DefaultRetryPolicy()
	if p.MaxAttempts != def.MaxAttempts || p.BaseBackoff != def.BaseBackoff || p.MaxBackoff != def.MaxBackoff {
		t.Fatalf("zero policy did not normalize to defaults: %+v vs %+v", p, def)
	}
}

// TestConcurrentSubmittersRetry: two operations retrying at the same
// time draw their backoff jitter from the context's one seeded stream and
// charge their own breakdowns. Run under -race (make race) this is the
// check that the stream advances under the context lock.
func TestConcurrentSubmittersRetry(t *testing.T) {
	ctx, _ := newFaultyCtx(t,
		faults.Config{Seed: 7, PTransient: 0.5},
		RetryPolicy{MaxAttempts: 40},
	)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := append([]byte(nil), resilienceSrc...)
			bd := stats.NewBreakdown()
			for i := 0; i < 20; i++ {
				if _, err := ctx.Submit(context.Background(), bd, hwmodel.Deflate, hwmodel.Compress, src, 0); err != nil {
					t.Errorf("submit %d: %v", i, err)
					return
				}
			}
			if bd.Count(stats.CounterRetries) == 0 || bd.Get(stats.PhaseRetry) == 0 {
				t.Error("a submitter at a 50% transient rate recorded no retries of its own")
			}
		}()
	}
	wg.Wait()
}
