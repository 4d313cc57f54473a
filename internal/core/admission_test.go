package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"pedal/internal/dpu"
	"pedal/internal/faults"
	"pedal/internal/hwmodel"
	"pedal/internal/integrity"
	"pedal/internal/stats"
	"pedal/internal/trace"
)

var engineDeflate = Design{Algo: AlgoDeflate, Engine: hwmodel.CEngine}

// A half-open probe whose caller gives up at its deadline must not leave
// the breaker half-open: the abandoned admission is handed back, so a
// healthy engine is probed again and readmitted within one probe window.
func TestAbandonedProbeReleasesBreaker(t *testing.T) {
	lib := faultyLib(t,
		faults.Config{Seed: 21, PPersistent: 1.0, MaxInjections: 2},
		&ResilienceOptions{MaxAttempts: 1, BreakerThreshold: 2, BreakerProbeEvery: 2},
	)
	for i := 0; i < 2; i++ {
		if _, _, err := lib.Compress(engineDeflate, TypeBytes, resilientSrc); err != nil {
			t.Fatal(err)
		}
	}
	if st := lib.Breaker().State(); st != faults.StateOpen {
		t.Fatalf("breaker %v after two hard failures, want open", st)
	}
	// The first op after the trip is held off; the second is the probe,
	// and its job hangs far past the caller's deadline.
	lib.Device().SetFaultInjector(faults.NewInjector(faults.Config{PHang: 1, HangDelay: 300 * time.Millisecond, MaxInjections: 1}))
	if _, rep, err := lib.Compress(engineDeflate, TypeBytes, resilientSrc); err != nil || rep.Engine == hwmodel.CEngine {
		t.Fatalf("op held off by the open breaker: engine %v, err %v", rep.Engine, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	_, _, err := lib.CompressContext(ctx, engineDeflate, TypeBytes, resilientSrc)
	cancel()
	if !errors.Is(err, dpu.ErrDeadline) {
		t.Fatalf("probe behind a hung job: err %v, want ErrDeadline", err)
	}
	lib.Device().SetFaultInjector(nil)
	reached := 0
	for i := 0; i < 50; i++ {
		_, rep, err := lib.Compress(engineDeflate, TypeBytes, resilientSrc)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Engine == hwmodel.CEngine {
			reached++
		}
	}
	t.Logf("%d of 50 ops reached the engine after the abandoned probe", reached)
	if reached < 45 {
		t.Fatalf("%d of 50 ops on a healthy engine reached it after an abandoned probe (breaker %v)",
			reached, lib.Breaker().State())
	}
}

// expireAfterEngineJob is a context whose deadline passes the moment the
// engine has traced a compress job — a caller giving up between the
// engine's success and the verification.
type expireAfterEngineJob struct {
	context.Context
	tr *trace.Tracer
}

func (c expireAfterEngineJob) Err() error {
	if c.tr.CountOps(hwmodel.CEngine.String(), hwmodel.Compress.String()) > 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// A quarantine probe whose engine job succeeds but whose caller gives up
// before its output is verified must not leave the quarantine half-open:
// the probe is handed back, so a clean engine is probed again and
// readmitted within one probe window.
func TestAbandonedQuarantineProbeReleases(t *testing.T) {
	lib := faultyLib(t, faults.Config{}, nil)
	eng := lib.Device().CEngine()
	tr := trace.New(1024)
	eng.SetTracer(tr)
	for i := 0; i < 3; i++ {
		eng.ReportCorrupt()
	}
	if !eng.Quarantined() {
		t.Fatal("three verified mismatches must quarantine the engine")
	}
	// Seven compress ops are held off; the eighth is the probe, and its
	// caller abandons it right after the engine job completes.
	ctx := expireAfterEngineJob{Context: context.Background(), tr: tr}
	abandoned := false
	for i := 0; i < 8 && !abandoned; i++ {
		_, _, err := lib.CompressContext(ctx, engineDeflate, TypeBytes, resilientSrc)
		if abandoned = errors.Is(err, dpu.ErrDeadline); !abandoned && err != nil {
			t.Fatal(err)
		}
	}
	if !abandoned {
		t.Fatal("no compress op took the quarantine probe within one window")
	}
	for i := 0; i < 8; i++ {
		if _, _, err := lib.Compress(engineDeflate, TypeBytes, resilientSrc); err != nil {
			t.Fatal(err)
		}
	}
	if h := eng.Health(); h.Quarantined || h.Readmits != 1 {
		t.Fatalf("after an abandoned probe and one more window: quarantined %v, readmits %d; want readmitted",
			h.Quarantined, h.Readmits)
	}
}

// A pipelined decompress that took the breaker's half-open probe and
// then hits a corrupt chunk frame resolves the probe on its way out.
func TestRejectedPipelinedFrameResolvesProbe(t *testing.T) {
	// BlueField-3's engine decodes 1 MiB DEFLATE chunks faster than a core.
	lib, err := Init(Options{
		Generation: hwmodel.BlueField3,
		Resilience: &ResilienceOptions{BreakerThreshold: 2, BreakerProbeEvery: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lib.Finalize()
	src := bytes.Repeat([]byte("pipelined probe resolved at a rejected frame / "), (1<<20)/47+1)[:1<<20]
	msg, _, err := lib.CompressPipelined(Design{Algo: AlgoDeflate, Engine: hwmodel.SoC}, TypeBytes, src)
	if err != nil {
		t.Fatal(err)
	}
	msg[len(msg)-1] ^= 0xff // the last frame's body: rejected after earlier chunks were placed
	b := lib.Breaker()
	b.Failure()
	b.Failure()
	if b.Allow() {
		t.Fatal("open breaker admitted before its probe was due")
	}
	if _, _, err := lib.Decompress(hwmodel.CEngine, TypeBytes, msg, len(src)); !errors.Is(err, integrity.ErrCorrupt) {
		t.Fatalf("corrupt frame: err %v, want ErrCorrupt", err)
	}
	if st := b.State(); st != faults.StateClosed || b.Recoveries() != 1 {
		t.Fatalf("breaker %v after a healthy engine served the probe's chunks, want closed by the probe", st)
	}
}

// Pipelined operations are admitted by the same breaker as serial ones:
// once a persistently failing engine has opened it, later operations
// plan their chunks on the SoC until a probe admission is due.
func TestPipelinedOpsRespectBreaker(t *testing.T) {
	inj := faults.NewInjector(faults.Config{Seed: 22, PPersistent: 1.0})
	lib, err := Init(Options{
		Generation:    hwmodel.BlueField2,
		FaultInjector: inj,
		Resilience:    &ResilienceOptions{BreakerThreshold: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lib.Finalize()
	src := bytes.Repeat([]byte("pipelined breaker admission payload / "), (1<<20)/38+1)[:1<<20]
	for i := 0; i < 10; i++ {
		msg, _, err := lib.CompressPipelined(engineDeflate, TypeBytes, src)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := lib.DecompressPipelined(hwmodel.SoC, msg, len(src))
		if err != nil || !bytes.Equal(out, src) {
			t.Fatalf("op %d: round trip failed: %v", i, err)
		}
		lib.Release(msg)
	}
	jobs, _ := inj.Counts()
	t.Logf("%d chunk jobs reached the engine over 10 ops", jobs)
	// One op's chunks trip the breaker; the eighth admission after it
	// probes with one more op's chunks. Everything else stays off.
	if st := lib.Breaker().State(); jobs > 32 || st == faults.StateClosed {
		t.Fatalf("%d chunk jobs reached a failing engine over 10 ops, breaker %v; want at most 32 and the breaker open",
			jobs, st)
	}
}

// Sampled verification samples chunks across operations: an operation
// of fewer chunks than the sampling period is still screened in turn,
// so a persistently corrupting SoC kernel is caught at the sampled rate.
func TestSampledVerificationCoversSmallPipelinedOps(t *testing.T) {
	lib, err := Init(Options{
		Generation:    hwmodel.BlueField2,
		Verify:        integrity.VerifySampled,
		ComputeFaults: faults.NewComputeInjector(faults.ComputeFaultConfig{Seed: 23, PKernelFlip: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lib.Finalize()
	src := []byte(strings.Repeat("sampled verification across small pipelined ops / ", (256<<10)/51+1))[:256<<10]
	caught, chunks := uint64(0), 0
	for i := 0; i < 16; i++ {
		msg, rep, err := lib.CompressPipelined(Design{Algo: AlgoDeflate, Engine: hwmodel.SoC}, TypeBytes, src)
		if err != nil {
			t.Fatal(err)
		}
		caught += rep.Counts[stats.CounterVerifyMismatches]
		chunks += 4
		lib.Release(msg)
	}
	if want := uint64(chunks / integrity.DefaultSampleN); caught != want {
		t.Fatalf("sampled verification caught %d of %d corrupt chunks, want %d", caught, chunks, want)
	}
}

// A pipelined operation returns at its caller's deadline even while its
// engine chunks sit behind a hung job — or behind a stalled one with no
// watchdog to fail it — with every pooled buffer back.
func TestPipelinedEngineChunksHonourDeadline(t *testing.T) {
	for _, cfg := range []faults.Config{
		{Seed: 24, PHang: 1, HangDelay: 300 * time.Millisecond, MaxInjections: 1},
		{Seed: 25, PStall: 1, MaxInjections: 1},
	} {
		lib := faultyLib(t, cfg, nil)
		src := []byte(strings.Repeat("pipelined deadline behind a hung engine / ", (256<<10)/42+1))[:256<<10]
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		start := time.Now()
		_, _, err := lib.CompressPipelinedContext(ctx, engineDeflate, TypeBytes, src)
		elapsed := time.Since(start)
		cancel()
		t.Logf("%+v: returned after %v", cfg, elapsed)
		if !errors.Is(err, dpu.ErrDeadline) {
			t.Fatalf("%+v: err %v, want ErrDeadline", cfg, err)
		}
		if elapsed > 150*time.Millisecond {
			t.Fatalf("%+v: returned after %v with a 5ms deadline", cfg, elapsed)
		}
		if n := lib.PoolOutstanding(); n != 0 {
			t.Fatalf("%+v: %d pooled buffers outstanding after the abandoned op", cfg, n)
		}
	}
}

// lateTimerCtx is a context whose deadline has passed but whose timer has
// not fired yet: Err is still nil.
type lateTimerCtx struct{ context.Context }

func (lateTimerCtx) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }

// A deadline checkpoint reads the clock, not only the context's timer: an
// operation that reaches it after its deadline is abandoned even though
// the timer has not fired.
func TestCheckpointAbandonsPastDeadlineBeforeTimer(t *testing.T) {
	lib, err := Init(Options{Generation: hwmodel.BlueField2})
	if err != nil {
		t.Fatal(err)
	}
	defer lib.Finalize()
	ctx := lateTimerCtx{context.Background()}
	if _, _, err := lib.CompressContext(ctx, Design{Algo: AlgoDeflate, Engine: hwmodel.SoC}, TypeBytes, resilientSrc); !errors.Is(err, dpu.ErrDeadline) {
		t.Fatalf("err %v, want ErrDeadline", err)
	}
	if got := lib.TotalBreakdown().Count(stats.CounterDeadlineAbandoned); got != 1 {
		t.Fatalf("deadline_abandoned = %d, want 1", got)
	}
	if n := lib.PoolOutstanding(); n != 0 {
		t.Fatalf("%d pooled buffers outstanding after the abandoned op", n)
	}
}
