package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"pedal/internal/doca"
	"pedal/internal/dpu"
	"pedal/internal/faults"
	"pedal/internal/hwmodel"
	"pedal/internal/integrity"
	"pedal/internal/mempool"
	"pedal/internal/pipeline"
	"pedal/internal/stats"
	"pedal/internal/sz3"
	"pedal/internal/trace"
)

// DataType mirrors the datatype parameter of PEDAL_compress (paper
// Listing 1): it tells the lossy pipeline how to interpret the buffer.
type DataType uint8

// Data types. TypeBytes selects lossless treatment; the float types
// enable SZ3.
const (
	TypeBytes DataType = iota + 1
	TypeFloat32
	TypeFloat64
)

func (t DataType) String() string {
	switch t {
	case TypeBytes:
		return "bytes"
	case TypeFloat32:
		return "float32"
	case TypeFloat64:
		return "float64"
	default:
		return fmt.Sprintf("DataType(%d)", uint8(t))
	}
}

// Options configures PEDAL_Init.
type Options struct {
	// Generation selects the simulated BlueField generation. Zero means
	// BlueField-2.
	Generation hwmodel.Generation
	// Mode is the DPU host mode; PEDAL requires Separated Host (§II-A).
	// Zero means Separated Host.
	Mode dpu.Mode
	// ErrorBound is the SZ3 error bound; zero means 1e-4, the paper's
	// evaluation setting. Interpreted per SZ3Mode.
	ErrorBound float64
	// SZ3Mode selects absolute or relative (range-scaled) error bounds;
	// zero means absolute.
	SZ3Mode sz3.BoundMode
	// SZ3Predictor overrides the lossy prediction stage; zero means the
	// hybrid Auto strategy.
	SZ3Predictor sz3.PredictorKind
	// SZ3Dims describes the array shape for multi-dimensional lossy
	// compression (slowest-varying first). Empty means 1-D.
	SZ3Dims []int
	// Baseline disables PEDAL's optimisations for comparison runs: every
	// operation re-pays DOCA initialisation and buffer preparation, the
	// way the paper's baseline does (§V-D).
	Baseline bool
	// Resilience tunes the dynamic fault handling (retry attempts,
	// circuit breaker, engine watchdog). Nil means defaults.
	Resilience *ResilienceOptions
	// FaultInjector, when set, is installed on the device's C-Engine at
	// Init so tests and the fault-sweep experiment can exercise the
	// failure paths deterministically.
	FaultInjector *faults.Injector
	// Verify selects verified compression: Off trusts kernel output (the
	// pre-integrity behaviour), Sampled decode-verifies one in
	// integrity.DefaultSampleN operations, Full verifies every one.
	// Verification catches silent data corruption — a flipped bit in an
	// engine result, a miscompiled vector kernel — before the bytes leave
	// the library, and transparently re-executes on the scalar reference
	// path.
	Verify integrity.VerifyMode
	// ComputeFaults, when set, is installed on the device's C-Engine and
	// the SoC compress paths at Init: it injects silent data corruption
	// (bit flips, quantizer drift, buffer stomps) *before* checksums are
	// taken, so only verified compression can catch it. Used by the
	// ext-sdcfaults soak.
	ComputeFaults *faults.ComputeInjector
	// MemBudget caps the memory pool's outstanding bytes (overload fault
	// domain): governed draws (TryGet at the service boundary) shed once
	// held bytes reach the budget, so the daemon degrades instead of
	// OOMing. Zero leaves the pool ungoverned.
	MemBudget int64
}

// ResilienceOptions configures the fault-handling layer. Zero fields
// select defaults.
type ResilienceOptions struct {
	// MaxAttempts bounds doca.Submit's transient retry loop (default 4
	// attempts, 50µs base backoff, 5ms cap).
	MaxAttempts int
	// BreakerThreshold consecutive hard failures open the per-device
	// circuit breaker (default 3); while open, every BreakerProbeEvery-th
	// operation probes the engine (default 8).
	BreakerThreshold  int
	BreakerProbeEvery int
	// DisableBreaker turns the breaker off entirely; hard engine
	// failures then degrade ops one at a time.
	DisableBreaker bool
	// Watchdog, when non-nil, arms the C-Engine stall watchdog at Init
	// (zero fields select dpu defaults): stalled jobs are failed with
	// ErrEngineLost and replayed on the SoC, a wedged engine is
	// hot-reset, and exhausted resets degrade it permanently. Nil leaves
	// the watchdog off; jobs are then bounded only by the caller's
	// deadline.
	Watchdog *dpu.WatchdogConfig
}

// Report describes one Compress or Decompress execution: where it ran,
// what it cost in modelled hardware time, and how big the data was.
type Report struct {
	Design   Design
	Engine   hwmodel.Engine // engine that actually executed
	Fallback bool           // true when the C-Engine lacked the op and the SoC ran it
	// Degraded marks a *dynamic* fallback: the hardware supports the
	// path, but a runtime failure or an open circuit breaker pushed the
	// operation to the SoC (the paper's §III-D machinery, triggered by
	// faults instead of capability bits).
	Degraded bool
	InBytes  int
	OutBytes int
	Virtual  time.Duration
	Phases   stats.Phases
	// Counts reports the resilience events (retries, timeouts, breaker
	// transitions...) this operation incurred, indexed by stats.Counter.
	Counts stats.Counts
	// MsgCRC is the CRC-32 of the returned buffer (the wire message for
	// Compress, the expanded output for Decompress), computed once at the
	// source so downstream hops — pipeline descriptors, transport frames,
	// fleet responses, checkpoint shards — can carry and check it instead
	// of recomputing or trusting.
	MsgCRC uint32
}

// Ratio is the compression ratio original/compressed of a compression
// report (zero for decompression reports).
func (r Report) Ratio() float64 {
	if r.OutBytes == 0 {
		return 0
	}
	return float64(r.InBytes) / float64(r.OutBytes)
}

// Library is an initialised PEDAL context: the analogue of the state
// PEDAL_Init builds. It is safe for concurrent use: operations share only
// this Init-time environment, carry their own state in an op value, and
// run in parallel.
type Library struct {
	// mu is the lifecycle lock and guards only closed: every operation
	// holds it shared for its duration, Finalize takes it exclusively and
	// so waits for operations in flight.
	mu     sync.RWMutex
	closed bool

	opts  Options
	dev   *dpu.Device
	ctx   *doca.Context
	pool  *mempool.Pool
	pl    *pipeline.Pipeline
	total *stats.Breakdown
	// sampler decides which serial operations and pipelined chunks
	// decode-verify their output (compute fault domain; the pipeline gets
	// it as Spec.Sampler); nil-safe, never hits when Verify is Off.
	sampler *integrity.Sampler
	// sdc is the silent-data-corruption injector shared with the
	// C-Engine; the SoC compress producers consult it too so vectorized
	// software kernels are faultable. Nil in production.
	sdc *faults.ComputeInjector
}

// ErrFinalized is returned by operations on a finalized library.
var ErrFinalized = errors.New("core: library finalized")

// Init is PEDAL_init: it builds the whole environment once — device
// open, DOCA initialisation, memory-pool prewarming — so that the
// per-message path pays none of it (§III-C, §III-D).
func Init(opts Options) (*Library, error) {
	if opts.Generation == 0 {
		opts.Generation = hwmodel.BlueField2
	}
	if opts.Mode == 0 {
		opts.Mode = dpu.SeparatedHost
	}
	if opts.ErrorBound == 0 {
		opts.ErrorBound = sz3.DefaultErrorBound
	}
	if opts.Mode == dpu.SmartNIC {
		return nil, errors.New("core: PEDAL requires Separated Host mode (SmartNIC mode loses host RDMA-IB, §II-A)")
	}
	dev, err := dpu.NewDevice(opts.Generation, opts.Mode)
	if err != nil {
		return nil, err
	}
	total := stats.NewBreakdown()
	ctx, err := doca.Init(dev, total)
	if err != nil {
		dev.Close()
		return nil, err
	}
	lib := &Library{
		opts:  opts,
		dev:   dev,
		ctx:   ctx,
		pool:  mempool.New(),
		total: total,
	}
	// The chunk pipeline's persistent SoC worker pool is part of the
	// Init-time environment (one worker per ARM core), so per-message
	// pipelined operations spawn nothing.
	lib.pl = pipeline.New(dev, 0, lib.pool)
	// Resilience wiring: retry policy on the DOCA context, fault
	// injector and circuit breaker on the engine.
	policy := doca.DefaultRetryPolicy()
	if r := opts.Resilience; r != nil && r.MaxAttempts > 0 {
		policy.MaxAttempts = r.MaxAttempts
	}
	ctx.SetRetryPolicy(policy)
	if opts.FaultInjector != nil {
		dev.SetFaultInjector(opts.FaultInjector)
	}
	// Compute fault domain: the sampler gates decode-verification, the
	// SDC injector (tests/soaks only) corrupts kernel output pre-checksum
	// on both the C-Engine and the SoC producers.
	lib.sampler = integrity.NewSampler(opts.Verify, integrity.DefaultSampleN)
	if opts.ComputeFaults != nil {
		lib.sdc = opts.ComputeFaults
		dev.CEngine().SetComputeInjector(opts.ComputeFaults)
	}
	if r := opts.Resilience; r == nil || !r.DisableBreaker {
		bc := faults.BreakerConfig{}
		if r != nil {
			bc.Threshold = r.BreakerThreshold
			bc.ProbeEvery = r.BreakerProbeEvery
		}
		dev.CEngine().SetBreaker(faults.NewBreaker(bc))
	}
	if r := opts.Resilience; r != nil && r.Watchdog != nil {
		// Engine fault domain: the hook mirrors watchdog transitions into
		// the lifetime counters and re-opens the DOCA context after a
		// hot-reset.
		dev.CEngine().SetEventHook(lib.onEngineEvent)
		dev.CEngine().StartWatchdog(*r.Watchdog)
	}
	// Prewarm the buffer pool's classes from 4 KiB to 8 MiB, about 36 MiB.
	// Larger classes of the paper's message sweep (up to 64 MiB) fill on
	// first use and are retained up to mempool.DefaultMaxPooledSize.
	// Nothing on the virtual clock depends on a pool hit: the mapping
	// PEDAL_init pays (§III-C/D) is charged whatever the host holds.
	lib.pool.Prewarm([]int{4 << 10, 64 << 10, 1 << 20, 8 << 20}, 4)
	// Overload fault domain: arm the pool budget after prewarming so the
	// retained warm buffers never count against it.
	if opts.MemBudget > 0 {
		lib.pool.SetBudget(opts.MemBudget)
	}
	return lib, nil
}

// Finalize is PEDAL_finalize: releases the environment.
func (l *Library) Finalize() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	l.pl.Close()
	l.ctx.Close()
	l.dev.Close()
}

// Device exposes the simulated DPU (used by the MPI co-design and the
// experiment harness).
func (l *Library) Device() *dpu.Device { return l.dev }

// Generation reports the DPU generation the library runs on.
func (l *Library) Generation() hwmodel.Generation { return l.dev.Generation() }

// Options returns the Init-time options.
func (l *Library) Options() Options { return l.opts }

// TotalBreakdown returns the library-lifetime accounting, including the
// one-time Init charges.
func (l *Library) TotalBreakdown() *stats.Breakdown { return l.total }

// PoolStats reports memory-pool hits and misses.
func (l *Library) PoolStats() (hits, misses uint64) { return l.pool.Stats() }

// Pool exposes the library's governed memory pool so the service layer
// can draw request staging buffers from the same budget the compression
// paths charge.
func (l *Library) Pool() *mempool.Pool { return l.pool }

// PoolSnapshot reports the full pool counter set, including the
// overload-domain budget accounting (held/peak bytes, pressure events,
// oversize drops).
func (l *Library) PoolSnapshot() mempool.Snapshot { return l.pool.Snapshot() }

// PoolOutstanding reports memory-pool buffers currently held by callers
// (gets minus puts). Fault soaks sample it before and after injected
// failures to assert aborted operations leak no pooled buffers.
func (l *Library) PoolOutstanding() int64 { return l.pool.Outstanding() }

// enter takes the lifecycle lock for one operation; the caller releases
// it with l.mu.RUnlock. Operations never call each other's public entry
// points, so the shared lock is never acquired re-entrantly (which would
// deadlock against a waiting Finalize).
func (l *Library) enter() error {
	l.mu.RLock()
	if l.closed {
		l.mu.RUnlock()
		return ErrFinalized
	}
	return nil
}

// op is the state of one Compress or Decompress execution: the caller's
// context, the breakdown the operation charges, and the report it fills,
// all held by value. The entry point's new(op) stays on its stack;
// beginOp opens it in place, because a breakdown must not be copied.
// It is handed to every helper, so nothing an operation mutates lives on
// the Library.
type op struct {
	ctx context.Context
	bd  stats.Breakdown
	rep Report
}

// beginOp opens an operation: accounting goes to the op's own breakdown,
// which endOp merges into the lifetime total.
func (l *Library) beginOp(o *op, ctx context.Context, rep Report) {
	if ctx == nil {
		ctx = context.Background()
	}
	o.ctx, o.rep = ctx, rep
	if l.opts.Baseline {
		// The baseline pays DOCA initialisation on every message (§V-D:
		// "memory allocation and the DOCA initialization procedure are
		// invoked during every message transmission").
		o.bd.Add(stats.PhaseDOCAInit, hwmodel.InitCost(l.dev.Generation()))
	}
}

// endOp closes an operation, successful or not: the lifetime total
// absorbs whatever it charged.
func (l *Library) endOp(o *op) {
	l.total.Merge(&o.bd)
}

// finish writes the operation's account into its report; the success
// paths call it once all charges are in.
func (o *op) finish() {
	o.rep.Phases = o.bd.Snapshot()
	o.rep.Counts = o.bd.Counts()
	o.rep.Virtual = o.rep.Phases.Total()
}

// expired returns why the operation's context is done, or nil. A
// deadline counts from the clock, not from the context's timer: that
// timer fires a scheduler hop after the deadline, and an operation
// shorter than the hop must not run past its deadline unnoticed.
func (o *op) expired() error {
	if err := o.ctx.Err(); err != nil {
		return err
	}
	if d, ok := o.ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// checkDeadline is a deadline checkpoint: when the operation's context
// has expired it counts the abandonment, traces it, and returns the typed
// error the caller must propagate after releasing any pooled buffers it
// holds.
func (l *Library) checkDeadline(o *op, where string) error {
	err := o.expired()
	if err == nil {
		return nil
	}
	o.bd.Inc(stats.CounterDeadlineAbandoned)
	if tr := l.dev.CEngine().Tracer(); tr != nil {
		tr.Record(trace.Event{Engine: "core", Op: "deadline_abandoned", Algo: where, Err: err.Error()})
	}
	return fmt.Errorf("core: %s abandoned at deadline checkpoint: %w: %v", where, dpu.ErrDeadline, err)
}

// Release returns a message obtained from Compress or CompressPipelined
// (or their Context forms) to the memory pool, whole and exactly once.
// Those are the buffers the pool issued; Decompress outputs are not
// pool-drawn yet (ROADMAP item 10) and must not be passed here. Optional:
// the GC collects unreleased messages, but their pool charge stays held.
func (l *Library) Release(msg []byte) { l.pool.Put(msg) }

// Breaker exposes the engine's circuit breaker (nil when disabled) so
// experiments and tests can observe its state.
func (l *Library) Breaker() *faults.Breaker { return l.dev.CEngine().Breaker() }

// engineAllowed takes one C-Engine admission for a job of op
// (dpu.CEngine.Admit). A refusal — engine resetting or degraded, breaker
// open, or quarantine holding the job off — degrades the operation
// straight to the SoC and is counted.
func (l *Library) engineAllowed(o *op, op hwmodel.Op) bool {
	if l.dev.CEngine().Admit(op) {
		return true
	}
	o.bd.Inc(stats.CounterDegradedOps)
	return false
}

// onEngineEvent is the C-Engine fault-domain hook: it performs the DOCA
// re-open half of a hot-reset. It runs on the watchdog goroutine; the
// watchdog's own tallies are in EngineHealth.
func (l *Library) onEngineEvent(ev dpu.EngineEvent) {
	if ev.Kind == dpu.EventResetOK {
		l.ctx.Reopen()
	}
}

// EngineHealth snapshots the C-Engine fault domain (state, in-flight
// depth, stall/reset/replay counters) for diagnostics and the service
// health endpoint.
func (l *Library) EngineHealth() dpu.EngineHealth { return l.dev.CEngine().Health() }

// noteEngineResult resolves the admission of a C-Engine submission with
// its outcome and counts what it caused. A job the caller abandoned at
// its deadline is released rather than reported: a deadline storm must
// not trip the breaker open while the hardware is healthy.
func (l *Library) noteEngineResult(o *op, err error) {
	eng := l.dev.CEngine()
	if errors.Is(err, dpu.ErrDeadline) && o.expired() != nil {
		eng.Release()
		return
	}
	if err != nil && !errors.Is(err, dpu.ErrUnsupported) {
		o.bd.Inc(stats.CounterEngineFailures)
	}
	tripped, recovered := eng.Report(err)
	if tripped {
		o.bd.Inc(stats.CounterBreakerTrips)
	}
	if recovered {
		o.bd.Inc(stats.CounterBreakerRecoveries)
	}
}
