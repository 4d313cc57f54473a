// Package doca is a faithful-in-structure model of the NVIDIA DOCA SDK
// surface PEDAL uses: device open, memory maps between regular and
// DOCA-operable memory, buffer inventories, work queues, and compress /
// decompress job submission (paper §III, Figs. 3-4).
//
// The package's central job is cost accounting with real execution: every
// SDK step performs the real work through the simulated C-Engine and
// charges calibrated virtual time to a stats.Breakdown, so the paper's
// "initialisation and buffer preparation consume ≈90-94% of execution
// time" observation — and PEDAL's hoisting of those costs into
// PEDAL_Init — are observable, measurable effects.
package doca

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"pedal/internal/checksum"
	"pedal/internal/dpu"
	"pedal/internal/faults"
	"pedal/internal/hwmodel"
	"pedal/internal/stats"
)

// ErrClosed is returned by submissions on a closed context.
var ErrClosed = errors.New("doca: context closed")

// RetryPolicy bounds Submit's handling of transient C-Engine failures:
// queue-full rejections, transient faults, detected output corruption,
// and missed deadlines are retried with exponential backoff plus jitter;
// persistent hardware failures and capability misses fail immediately.
type RetryPolicy struct {
	// MaxAttempts is the total number of submissions tried (first
	// attempt included); zero or negative means 4.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; zero means 50µs.
	// The delay doubles per retry, capped at MaxBackoff (zero: 5ms),
	// and is charged as virtual time to stats.PhaseRetry.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// JobDeadline bounds each attempt's completion wait; zero waits
	// forever. A missed deadline counts as a transient failure.
	JobDeadline time.Duration
}

// DefaultRetryPolicy returns the policy Context starts with.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseBackoff: 50 * time.Microsecond, MaxBackoff: 5 * time.Millisecond}
}

func (p RetryPolicy) normalized() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = d.BaseBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = d.MaxBackoff
	}
	return p
}

// Context is an initialised DOCA environment bound to one device: the
// analogue of the doca_dev + doca_compress + progress-engine bundle a
// real application sets up once.
type Context struct {
	dev *dpu.Device
	// total is the lifetime breakdown given to Init. It takes the charges
	// that belong to no operation: Init itself and Reopen. Per-operation
	// charges go to the breakdown the caller hands to Submit, SoCRun and
	// MMap.
	total *stats.Breakdown

	// mu guards the mutable context state below: operations submit
	// concurrently, and Reopen runs on the engine watchdog goroutine
	// during a hot-reset, concurrently with whatever operation lost its
	// job to the wedge.
	mu     sync.Mutex
	rng    *faults.Rand
	closed bool
	policy RetryPolicy
}

// Init opens the device and builds the DOCA environment, charging the
// one-time initialisation cost (engine contexts, progress engine, work
// queues) to the breakdown's PhaseDOCAInit. The paper's baseline calls
// this per message; PEDAL calls it once inside PEDAL_Init.
func Init(dev *dpu.Device, bd *stats.Breakdown) (*Context, error) {
	if dev == nil {
		return nil, errors.New("doca: nil device")
	}
	c := &Context{
		dev: dev, total: bd,
		policy: DefaultRetryPolicy(),
		rng:    faults.NewRand(1),
	}
	bd.Add(stats.PhaseDOCAInit, hwmodel.InitCost(dev.Generation()))
	return c, nil
}

// SetRetryPolicy replaces the transient-failure handling policy.
func (c *Context) SetRetryPolicy(p RetryPolicy) {
	c.mu.Lock()
	c.policy = p
	c.mu.Unlock()
}

// RetryPolicy returns the active policy.
func (c *Context) RetryPolicy() RetryPolicy {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.policy
}

// Device returns the underlying DPU.
func (c *Context) Device() *dpu.Device { return c.dev }

// Close tears down the context. The device itself stays open (it may be
// shared); real DOCA reference-counts the same way.
func (c *Context) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
}

// Reopen models the DOCA device re-open performed during an engine
// hot-reset (real DOCA work queues and buf inventories do not survive a
// context destroy) and charges the rebuild cost to PhaseReset. core
// installs this as the engine's reset hook so accounting tracks the
// hardware state machine. The hook runs on the watchdog goroutine and
// belongs to no operation, so the cost goes to the lifetime total.
func (c *Context) Reopen() {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return
	}
	c.total.Add(stats.PhaseReset, hwmodel.ResetCost(c.dev.Generation()))
}

// MMap charges bd the cost of making n bytes DOCA-operable per message
// (allocation + pinning + inventory registration), which the paper's
// baseline pays on every job. PEDAL maps its pool once at PEDAL_Init
// (§III-C), so per message it pays only the memcpy into that memory.
func (c *Context) MMap(bd *stats.Breakdown, n int) {
	bd.Add(stats.PhaseBufPrep, hwmodel.BufPrepCost(c.dev.Generation(), hwmodel.CEngine, n))
}

// Result carries a completed job's output and its modelled duration.
type Result struct {
	Output  []byte
	Virtual time.Duration
}

// Submit runs algo/op over input on the C-Engine, charging the modelled
// hardware time and every resilience event to bd, the submitting
// operation's breakdown. The engine copies input at submit, so the caller
// owns it again once Submit returns, even when the job it abandoned is
// still queued. When the hardware lacks the path, Submit fails with
// dpu.ErrUnsupported — PEDAL's capability fallback then redirects the
// operation to the SoC.
//
// Transient failures (queue full, transient engine faults, checksum
// mismatches, missed deadlines) are retried per the RetryPolicy with
// exponential backoff; the backoff delays are charged as virtual time to
// stats.PhaseRetry and counted in stats.CounterRetries. Engine output is
// verified against the engine-reported CRC before being returned, so
// corruption is detected here rather than propagated.
//
// ctx bounds the call by the caller's deadline: the retry loop
// checkpoints it before every attempt and the completion wait selects on
// it, so work the caller has abandoned stops at the next checkpoint with
// a typed dpu.ErrDeadline (counted as a deadline_abandoned event) instead
// of burning attempts nobody is waiting for.
func (c *Context) Submit(ctx context.Context, bd *stats.Breakdown, algo hwmodel.Algo, op hwmodel.Op, input []byte, maxOutput int) (Result, error) {
	c.mu.Lock()
	closed := c.closed
	p := c.policy.normalized()
	c.mu.Unlock()
	if closed {
		return Result{}, ErrClosed
	}
	var lastErr error
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		if ctx.Err() != nil {
			bd.Inc(stats.CounterDeadlineAbandoned)
			return Result{}, fmt.Errorf("doca: abandoned before attempt %d: %w: %v",
				attempt+1, dpu.ErrDeadline, ctx.Err())
		}
		if attempt > 0 {
			// The jitter stream is shared by every operation on the
			// context, so it advances under the lock.
			c.mu.Lock()
			backoff := faults.Backoff(attempt-1, p.BaseBackoff, p.MaxBackoff, c.rng)
			c.mu.Unlock()
			bd.Inc(stats.CounterRetries)
			bd.Add(stats.PhaseRetry, backoff)
		}
		res, err := c.submitOnce(ctx, bd, algo, op, input, maxOutput, p)
		if err == nil {
			return res, nil
		}
		if !dpu.IsTransient(err) {
			return Result{}, err
		}
		if ctx.Err() != nil {
			// The attempt failed because the caller's deadline expired
			// mid-wait: that is an abandonment, not a transient to retry.
			bd.Inc(stats.CounterDeadlineAbandoned)
			return Result{}, err
		}
		lastErr = err
	}
	return Result{}, fmt.Errorf("doca: %v %v failed after %d attempts: %w", algo, op, p.MaxAttempts, lastErr)
}

// submitOnce performs one submission attempt: enqueue, bounded wait,
// checksum verification, cost accounting.
func (c *Context) submitOnce(ctx context.Context, bd *stats.Breakdown, algo hwmodel.Algo, op hwmodel.Op, input []byte, maxOutput int, p RetryPolicy) (Result, error) {
	job := dpu.Job{Algo: algo, Op: op, Input: input, MaxOutput: maxOutput}
	if p.JobDeadline > 0 {
		// Stamp the deadline on the descriptor too, so the engine can
		// drop the job at dequeue once we have stopped waiting for it.
		job.Deadline = time.Now().Add(p.JobDeadline)
	}
	if d, ok := ctx.Deadline(); ok && (job.Deadline.IsZero() || d.Before(job.Deadline)) {
		job.Deadline = d
	}
	h, err := c.dev.CEngine().Submit(job)
	if err != nil {
		return Result{}, err
	}
	res, ok := h.WaitContextTimeout(ctx, p.JobDeadline)
	if !ok {
		bd.Inc(stats.CounterTimeouts)
		return Result{}, res.Err
	}
	if res.Err != nil {
		return Result{}, res.Err
	}
	if sum := checksum.CRC32(res.Output); sum != res.Checksum {
		bd.Inc(stats.CounterCorruptions)
		return Result{}, fmt.Errorf("%w: CRC 0x%08x != engine 0x%08x over %d bytes",
			dpu.ErrCorrupt, sum, res.Checksum, len(res.Output))
	}
	phase := stats.PhaseCompress
	if op == hwmodel.Decompress {
		phase = stats.PhaseDecompress
	}
	bd.Add(phase, res.Virtual)
	return Result{Output: res.Output, Virtual: res.Virtual}, nil
}

// SoCRun models running algo/op in software on the SoC cores: the real
// work is done by the caller (PEDAL invokes the Go codecs directly); this
// helper charges the calibrated virtual time to bd.
func (c *Context) SoCRun(bd *stats.Breakdown, algo hwmodel.Algo, op hwmodel.Op, n int) (time.Duration, error) {
	d, ok := hwmodel.OpCost(c.dev.Generation(), hwmodel.SoC, algo, op, n)
	if !ok {
		return 0, fmt.Errorf("doca: no SoC cost model for %v %v", algo, op)
	}
	phase := stats.PhaseCompress
	if op == hwmodel.Decompress {
		phase = stats.PhaseDecompress
	}
	bd.Add(phase, d)
	return d, nil
}
