package dpu

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pedal/internal/checksum"
	"pedal/internal/faults"
	"pedal/internal/flate"
	"pedal/internal/hwmodel"
	"pedal/internal/lz4"
	"pedal/internal/mempool"
	"pedal/internal/trace"
)

// EngineState is the C-Engine fault-domain position: Live serves jobs,
// Resetting is the window between a declared wedge and a completed
// hot-reset, Degraded is the permanent SoC-only escalation after reset
// attempts are exhausted.
type EngineState uint8

// Engine states.
const (
	EngineLive EngineState = iota + 1
	EngineResetting
	EngineDegraded
)

func (s EngineState) String() string {
	switch s {
	case EngineLive:
		return "live"
	case EngineResetting:
		return "resetting"
	case EngineDegraded:
		return "degraded"
	default:
		return fmt.Sprintf("EngineState(%d)", uint8(s))
	}
}

// JobResult is the completion record of one C-Engine job.
type JobResult struct {
	// Output is the produced data (compressed or decompressed bytes).
	Output []byte
	// Virtual is the modelled hardware execution time of the job.
	Virtual time.Duration
	// Checksum is the engine-computed CRC-32 of Output — the completion
	// metadata real DOCA work queues report alongside the data. Callers
	// verify it against the received bytes to detect corruption on the
	// data path (see VerifyOutput).
	Checksum uint32
	// Seq is the engine-assigned submission sequence number, matching
	// the in-flight journal entry the job was recorded under.
	Seq uint64
	// Err is non-nil when the job failed (unsupported path, corrupt
	// input, or an injected runtime fault). Hardware reports such
	// failures through the work queue's completion status.
	Err error
}

// VerifyOutput recomputes the output CRC and compares it with the
// engine-reported checksum; false means the output was corrupted after
// the engine produced it and must not be used.
func (r *JobResult) VerifyOutput() bool {
	return r.Err == nil && checksum.CRC32(r.Output) == r.Checksum
}

// Job describes one compression or decompression operation submitted to
// the C-Engine. Submit copies Input into engine memory before it returns,
// so the caller owns Input again as soon as Submit or TrySubmit returns,
// whatever later happens to the job.
type Job struct {
	Algo  hwmodel.Algo
	Op    hwmodel.Op
	Input []byte
	// MaxOutput bounds decompression output (DOCA requires the caller to
	// provide a destination buffer; this models its capacity). Zero means
	// a generous default.
	MaxOutput int
	// Deadline, when non-zero, is the completion deadline the submitter
	// waits against. The dispatcher drops jobs whose deadline has already
	// expired at dequeue, completing them with ErrDeadline instead of
	// wasting engine time on a result the caller has abandoned.
	Deadline time.Time
}

// JobHandle tracks an in-flight job.
type JobHandle struct {
	seq  uint64
	done chan JobResult
}

// Seq returns the engine-assigned submission sequence number.
func (h *JobHandle) Seq() uint64 { return h.seq }

// complete delivers r unless a result was already delivered. The first
// writer wins; late or duplicate completions (a watchdog-failed job that
// eventually finishes, a drained stale-epoch job) are dropped, so no
// writer — lane, dispatcher or watchdog — can ever block on an
// abandoned handle.
func (h *JobHandle) complete(r JobResult) {
	select {
	case h.done <- r:
	default:
	}
}

// Wait blocks until the job completes and returns its result.
func (h *JobHandle) Wait() JobResult { return <-h.done }

// WaitTimeout blocks up to d for completion; ok=false means the deadline
// fired first and the result carries ErrDeadline. The abandoned job may
// still complete in the background — completion sends are non-blocking,
// so no lane can ever wedge on an abandoned handle. d <= 0 waits
// forever.
func (h *JobHandle) WaitTimeout(d time.Duration) (JobResult, bool) {
	if d <= 0 {
		return h.Wait(), true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case r := <-h.done:
		return r, true
	case <-timer.C:
		return JobResult{Seq: h.seq, Err: ErrDeadline}, false
	}
}

// WaitContext blocks until completion or ctx cancellation; ok=false
// means ctx won and the result carries ErrDeadline.
func (h *JobHandle) WaitContext(ctx context.Context) (JobResult, bool) {
	select {
	case r := <-h.done:
		return r, true
	case <-ctx.Done():
		return JobResult{Seq: h.seq, Err: fmt.Errorf("%w: %v", ErrDeadline, ctx.Err())}, false
	}
}

// WaitContextTimeout blocks until completion, ctx cancellation, or the
// elapsed timeout d, whichever fires first; ok=false means the job was
// abandoned and the result carries ErrDeadline. A background context
// with no deadline takes the allocation-free WaitTimeout path, so the
// hot benchmarks see no new machinery. d <= 0 means no elapsed bound.
func (h *JobHandle) WaitContextTimeout(ctx context.Context, d time.Duration) (JobResult, bool) {
	if ctx == nil || ctx.Done() == nil {
		return h.WaitTimeout(d)
	}
	if d <= 0 {
		return h.WaitContext(ctx)
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case r := <-h.done:
		return r, true
	case <-timer.C:
		return JobResult{Seq: h.seq, Err: ErrDeadline}, false
	case <-ctx.Done():
		return JobResult{Seq: h.seq, Err: fmt.Errorf("%w: %v", ErrDeadline, ctx.Err())}, false
	}
}

type queued struct {
	job    Job
	handle *JobHandle
	fault  faults.Decision
	seq    uint64
	// sdc is the compute-fault decision drawn at dispatch from sdcInj,
	// which the lane applies to the job's output.
	sdc    faults.ComputeDecision
	sdcInj *faults.ComputeInjector
}

// journalEntry is one in-flight job's journal record: enough to detect a
// stall (submit timestamp scored against the hwmodel latency budget) and
// to name the work the caller replays on the SoC path, from its own input,
// when the handle fails with ErrEngineLost.
type journalEntry struct {
	seq       uint64
	algo      hwmodel.Algo
	op        hwmodel.Op
	bytes     int
	submitted time.Time
	handle    *JobHandle
}

// InflightJob is the exported view of one journal entry.
type InflightJob struct {
	Seq   uint64
	Algo  hwmodel.Algo
	Op    hwmodel.Op
	Bytes int
	Age   time.Duration
}

// engineEpoch is one incarnation of the hardware work queue and its
// dispatcher. A hot-reset retires the epoch and installs a fresh one, the
// way a DOCA device re-open tears down and rebuilds the queue pair.
type engineEpoch struct {
	queue chan queued
	// stop closes when the epoch retires (hot-reset or engine close),
	// unblocking submitters stuck on a full queue, a wedged dispatcher and
	// a hang it is sitting out.
	stop chan struct{}
	// submitters counts Submit calls bound to this epoch; the dispatcher
	// closes the queue only after they drain, so a send never races the
	// close.
	submitters sync.WaitGroup
	// stale marks a reset-retired epoch: the dispatcher fails newly
	// dequeued jobs with ErrEngineLost instead of executing on dead
	// hardware. A close-retired epoch keeps stale false so accepted jobs
	// still run.
	stale      atomic.Bool
	retireOnce sync.Once
}

func newEpoch() *engineEpoch {
	return &engineEpoch{
		queue: make(chan queued, cengineQueueDepth),
		stop:  make(chan struct{}),
	}
}

// retire ends the epoch: failPending marks it stale (reset path — the
// dispatcher fails drained jobs), and stop unblocks submitters and the
// dispatcher, which then closes the queue once in-flight submitters
// drain, serves what was accepted, and exits.
func (ep *engineEpoch) retire(failPending bool) {
	ep.retireOnce.Do(func() {
		if failPending {
			ep.stale.Store(true)
		}
		close(ep.stop)
	})
}

// WatchdogConfig tunes the stall watchdog and hot-reset escalation.
// Zero fields select defaults.
type WatchdogConfig struct {
	// Interval between watchdog scans; zero means 2ms.
	Interval time.Duration
	// BudgetSlack multiplies the hwmodel expected latency of each job to
	// form its overdue budget; zero means 8.
	BudgetSlack float64
	// BudgetFloor is the minimum per-job budget, absorbing queue wait
	// and host scheduling noise; zero means 50ms.
	BudgetFloor time.Duration
	// WedgeAfter is K: this many stall detections without an intervening
	// completed job declare the whole engine wedged (all in-flight jobs
	// failed, hot-reset initiated); zero means 3.
	WedgeAfter int
	// MaxResetAttempts bounds hot-reset attempts before the engine
	// escalates to permanent SoC-only degradation; zero means 3.
	MaxResetAttempts int
	// ResetBackoff is the wall delay between reset attempts; zero means
	// 1ms.
	ResetBackoff time.Duration
}

func (c WatchdogConfig) normalized() WatchdogConfig {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Millisecond
	}
	if c.BudgetSlack <= 0 {
		c.BudgetSlack = 8
	}
	if c.BudgetFloor <= 0 {
		c.BudgetFloor = 50 * time.Millisecond
	}
	if c.WedgeAfter <= 0 {
		c.WedgeAfter = 3
	}
	if c.MaxResetAttempts <= 0 {
		c.MaxResetAttempts = 3
	}
	if c.ResetBackoff <= 0 {
		c.ResetBackoff = time.Millisecond
	}
	return c
}

// EngineEventKind names a fault-domain transition.
type EngineEventKind uint8

// Fault-domain events, emitted through the hook installed with
// SetEventHook.
const (
	// EventStallDetected fires per job the watchdog failed as overdue.
	EventStallDetected EngineEventKind = iota + 1
	// EventWedgeDeclared fires when the stall streak crosses the
	// threshold: all in-flight jobs are failed and a hot-reset begins.
	EventWedgeDeclared
	// EventResetOK fires when a hot-reset attempt brings the engine back
	// to Live.
	EventResetOK
	// EventResetFailed fires per failed hot-reset attempt.
	EventResetFailed
	// EventDegraded fires when reset attempts are exhausted and the
	// engine permanently degrades to SoC-only operation.
	EventDegraded
)

// EngineEvent describes one fault-domain transition.
type EngineEvent struct {
	Kind  EngineEventKind
	State EngineState
	// Seq is the stalled job (EventStallDetected).
	Seq uint64
	// Pending is the in-flight job count failed by a wedge declaration.
	Pending int
	// Attempt is the 1-based reset attempt number.
	Attempt int
}

// EngineHealth is a snapshot of the engine fault domain.
type EngineHealth struct {
	State    EngineState
	Inflight int
	// Stalls counts jobs the watchdog failed as overdue; Wedges counts
	// whole-engine wedge declarations; Resets counts successful
	// hot-resets; ResetFailures counts failed reset attempts.
	Stalls, Wedges, Resets, ResetFailures uint64
	// ExpiredDropped counts jobs dropped at dequeue because their
	// deadline had already passed; LostJobs counts handles failed with
	// ErrEngineLost (each is a replay candidate for the SoC path).
	ExpiredDropped, LostJobs uint64
	// Quarantined reports the compute fault domain's verdict: the
	// engine is benched after repeated decode-verified mismatches and
	// only half-open probes run on it. CorruptMismatches /
	// Quarantines / Readmits are the quarantine's lifetime totals.
	Quarantined           bool
	CorruptMismatches     uint64
	Quarantines, Readmits uint64
}

// CEngine is the hardware compression accelerator: one ordered job
// queue, drained the way a hardware queue pair drains submissions. Each
// epoch's dispatcher dequeues in submission order and keeps every
// ordering rule — stale-epoch failure, the deadline drop, injected
// stalls, wedges and head-of-line hangs — then hands each job's host
// work (the codec pass, the CRC and the completion) to one of
// runtime.GOMAXPROCS(0) host lanes. Only host wall time goes parallel:
// the modelled engine stays one serial queue, since each job's Virtual
// duration is its own modelled cost and every fault draw follows queue
// order. It is also a recoverable fault domain: an optional watchdog
// detects stalled jobs and wedged queues, fails the in-flight journal
// with ErrEngineLost, and hot-resets the engine with bounded attempts
// before degrading permanently to SoC-only operation.
type CEngine struct {
	gen hwmodel.Generation
	// lanes is the number of host goroutines each epoch runs jobs on.
	lanes int
	// closeCh signals engine close to the watchdog goroutine.
	closeCh chan struct{}
	// running counts the engine's goroutines — each epoch's dispatcher,
	// which waits for its lanes, and the watchdog. close waits for it,
	// so none outlives the engine.
	running sync.WaitGroup
	// inputs is the engine memory job inputs are copied into at submit.
	// A lane, or the dispatcher when it drops a job, returns each copy
	// once its job can no longer read it, so the engine holds one per job
	// it accepted and has not finished, plus one per submitter waiting
	// for a queue slot. It is the engine's own, outside any library
	// budget: a late job never holds a caller's bytes.
	inputs *mempool.Pool

	mu       sync.Mutex
	closed   bool
	tracer   *trace.Tracer
	injector *faults.Injector
	// sdc corrupts compressed output pre-checksum (silent data
	// corruption).
	sdc *faults.ComputeInjector
	// The health ladder behind Admit: breaker opens on hard job failures
	// (nil: none installed), quarantine on verified output mismatches.
	breaker    atomic.Pointer[faults.Breaker]
	quarantine *faults.Breaker
	mismatches atomic.Uint64
	state      EngineState
	epoch      *engineEpoch
	seq        uint64
	inflight   map[uint64]*journalEntry
	wd         *WatchdogConfig
	hook       func(EngineEvent)
	// stallStreak counts watchdog stall detections since the last
	// genuinely completed job; reaching WedgeAfter declares a wedge.
	stallStreak int

	stalls, wedges, resets, resetFailures, expired, lost uint64
}

// SetTracer attaches an activity recorder; every executed job is logged.
// Pass nil to disable.
func (e *CEngine) SetTracer(t *trace.Tracer) {
	e.mu.Lock()
	e.tracer = t
	e.mu.Unlock()
}

func (e *CEngine) getTracer() *trace.Tracer {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tracer
}

// Tracer returns the attached activity recorder (nil when disabled).
func (e *CEngine) Tracer() *trace.Tracer { return e.getTracer() }

// SetInjector attaches a fault injector; every subsequent job draws a
// fault decision from it. Pass nil to disable.
func (e *CEngine) SetInjector(inj *faults.Injector) {
	e.mu.Lock()
	e.injector = inj
	e.mu.Unlock()
}

func (e *CEngine) getInjector() *faults.Injector {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.injector
}

// engineUnitID is the C-Engine complex's stream in the compute
// injector (SoC worker cores are 1..N).
const engineUnitID = 0

// SetComputeInjector attaches the silent-data-corruption schedule:
// compressed outputs are corrupted *before* the engine checksums them,
// so only decode-verification catches it. Pass nil to disable.
func (e *CEngine) SetComputeInjector(inj *faults.ComputeInjector) {
	e.mu.Lock()
	e.sdc = inj
	e.mu.Unlock()
}

func (e *CEngine) getComputeInjector() *faults.ComputeInjector {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sdc
}

// SetBreaker installs the circuit breaker over hard job failures; nil
// removes it, and every admission then passes it.
func (e *CEngine) SetBreaker(b *faults.Breaker) { e.breaker.Store(b) }

// Breaker returns the installed circuit breaker (nil when none).
func (e *CEngine) Breaker() *faults.Breaker { return e.breaker.Load() }

// Admit is the engine's one admission rule: the engine is live, the
// circuit breaker allows, and the integrity quarantine allows. Only
// compress output is verified, so compress admissions may be quarantine
// probes, while decompress waits a quarantine out. A granted admission
// is resolved once: by Report with its job's outcome, or by Release when
// the caller abandons it. A request refused because the engine is not
// live still counts toward the probe countdown of both ladders, so how
// many requests a hot reset's wall time spans does not move the probe.
func (e *CEngine) Admit(op hwmodel.Op) bool {
	if e.State() != EngineLive {
		if op == hwmodel.Compress {
			e.quarantine.Skip()
		}
		e.Breaker().Skip()
		return false
	}
	if op == hwmodel.Compress {
		if !e.quarantine.Allow() {
			return false
		}
	} else if e.Quarantined() {
		return false
	}
	if !e.Breaker().Allow() {
		// The quarantine probe just granted goes unused.
		e.quarantine.Release()
		return false
	}
	return true
}

// Report resolves an admission with its job's outcome and reports the
// circuit breaker transition it caused. A success resets the failure
// streak and closes a half-open breaker; a hard failure is a strike (and
// leaves a quarantine probe unverified, so it is handed back); a
// capability miss is a static condition and counts nothing.
func (e *CEngine) Report(err error) (tripped, recovered bool) {
	b := e.Breaker()
	switch {
	case err == nil:
		if recovered = b.Success(); recovered {
			e.traceHealth("breaker", "closed", "engine recovered")
		}
	case errors.Is(err, ErrUnsupported):
		e.Release()
	default:
		e.quarantine.Release()
		if tripped = b.Failure(); tripped {
			e.traceHealth("breaker", "open", err.Error())
		}
	}
	return tripped, recovered
}

// Release resolves an admission whose job's outcome will never be
// reported or, for compress, verified — its caller abandoned it at a
// deadline — so a probe it held cannot leave either ladder half-open.
func (e *CEngine) Release() {
	e.Breaker().Release()
	e.quarantine.Release()
}

// ReportCorrupt records one decode-verified mismatch against the
// engine's output and reports whether it quarantined the engine (three
// consecutive mismatches bench the complex, and a mismatching probe
// keeps it benched; core falls back to the scalar/SoC path meanwhile).
func (e *CEngine) ReportCorrupt() bool {
	e.mismatches.Add(1)
	quarantined := e.quarantine.Failure()
	if quarantined {
		e.traceHealth(hwmodel.CEngine.String(), "quarantine", "verified mismatch threshold reached")
	}
	return quarantined
}

// ReportVerified records one decode-verified success: the mismatch
// streak resets, and a quarantine probe that verified clean readmits
// the engine. Reports whether a readmission happened.
func (e *CEngine) ReportVerified() bool {
	readmitted := e.quarantine.Success()
	if readmitted {
		e.traceHealth(hwmodel.CEngine.String(), "readmit", "")
	}
	return readmitted
}

// Quarantined reports the quarantine state without probe side effects.
func (e *CEngine) Quarantined() bool { return e.quarantine.State() != faults.StateClosed }

// traceHealth records a health-ladder transition on the tracer.
func (e *CEngine) traceHealth(engine, op, why string) {
	if tr := e.getTracer(); tr != nil {
		tr.Record(trace.Event{Engine: engine, Op: op, Err: why})
	}
}

// SetEventHook installs the fault-domain transition listener (stall,
// wedge, reset, degradation). The hook runs on the watchdog goroutine
// and must not block; pass nil to remove it.
func (e *CEngine) SetEventHook(fn func(EngineEvent)) {
	e.mu.Lock()
	e.hook = fn
	e.mu.Unlock()
}

// cengineQueueDepth mirrors a typical DOCA work-queue depth.
const cengineQueueDepth = 128

// engineWatchdog labels watchdog trace events.
const engineWatchdog = "watchdog"

// engineLanes, when positive, pins the host lane count of engines built
// after it is set; zero means runtime.GOMAXPROCS(0). Tests pin it.
var engineLanes int

func newCEngine(gen hwmodel.Generation) *CEngine {
	lanes := engineLanes
	if lanes <= 0 {
		lanes = runtime.GOMAXPROCS(0)
	}
	e := &CEngine{
		gen:        gen,
		lanes:      lanes,
		closeCh:    make(chan struct{}),
		inputs:     mempool.New(),
		quarantine: faults.NewBreaker(faults.BreakerConfig{}),
		state:      EngineLive,
		epoch:      newEpoch(),
		inflight:   make(map[uint64]*journalEntry),
	}
	e.start(e.epoch)
	return e
}

// start runs ep's dispatcher and its host lanes as engine goroutines.
// Every one of them exists by the time start returns, so an engine's
// goroutine count is settled once it is built or reset. The caller holds
// e.mu, with the engine not closed, or is building e.
func (e *CEngine) start(ep *engineEpoch) {
	idle := make(chan struct{}, e.lanes)
	work := make(chan queued)
	var lanes sync.WaitGroup
	for i := 0; i < e.lanes; i++ {
		idle <- struct{}{}
		lanes.Add(1)
		go func() {
			defer lanes.Done()
			for q := range work {
				e.run(q)
				idle <- struct{}{}
			}
		}()
	}
	e.running.Add(1)
	go func() {
		defer e.running.Done()
		e.dispatch(ep, idle, work)
		close(work)
		lanes.Wait()
	}()
}

// Supports reports whether this engine supports algo/op (Table II).
func (e *CEngine) Supports(algo hwmodel.Algo, op hwmodel.Op) bool {
	return supportsCEngine(e.gen, algo, op)
}

// State reports the engine fault-domain position.
func (e *CEngine) State() EngineState {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.state
}

// Health snapshots the engine fault domain: state, in-flight depth, and
// the stall/reset/replay counters.
func (e *CEngine) Health() EngineHealth {
	e.mu.Lock()
	defer e.mu.Unlock()
	return EngineHealth{
		State:             e.state,
		Inflight:          len(e.inflight),
		Stalls:            e.stalls,
		Wedges:            e.wedges,
		Resets:            e.resets,
		ResetFailures:     e.resetFailures,
		ExpiredDropped:    e.expired,
		LostJobs:          e.lost,
		Quarantined:       e.Quarantined(),
		CorruptMismatches: e.mismatches.Load(),
		Quarantines:       e.quarantine.Trips(),
		Readmits:          e.quarantine.Recoveries(),
	}
}

// InflightJobs snapshots the in-flight journal (tests and diagnostics).
func (e *CEngine) InflightJobs() []InflightJob {
	now := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]InflightJob, 0, len(e.inflight))
	for _, je := range e.inflight {
		out = append(out, InflightJob{
			Seq: je.seq, Algo: je.algo, Op: je.op,
			Bytes: je.bytes, Age: now.Sub(je.submitted),
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// Submit copies the job's input into engine memory and enqueues the job.
// It fails fast with ErrUnsupported when the hardware lacks the path
// (callers should have checked Supports, the way PEDAL's capability
// fallback does), with ErrQueueFull when the injector models a busy work
// queue, with ErrEngineLost while the engine is resetting or permanently
// degraded, and with ErrClosed after close.
func (e *CEngine) Submit(job Job) (*JobHandle, error) {
	return e.submit(job, true)
}

// TrySubmit is Submit without the blocking enqueue: when the work queue
// is full it returns ErrQueueFull immediately instead of waiting for a
// slot. The chunked pipeline uses it to spill overflow chunks to the SoC
// cores rather than stalling the scheduler behind a saturated engine.
func (e *CEngine) TrySubmit(job Job) (*JobHandle, error) {
	return e.submit(job, false)
}

func (e *CEngine) submit(job Job, blocking bool) (*JobHandle, error) {
	if !e.Supports(job.Algo, job.Op) {
		return nil, fmt.Errorf("%w: %v %v on %v C-Engine", ErrUnsupported, job.Algo, job.Op, e.gen)
	}
	// One fault decision per submitted job, drawn at submission time the
	// way the hardware queue would accept or reject the descriptor.
	var dec faults.Decision
	if inj := e.getInjector(); inj != nil {
		dec = inj.Next()
		if dec.Class == faults.QueueFull {
			return nil, fmt.Errorf("%w: %v %v", ErrQueueFull, job.Algo, job.Op)
		}
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	if e.state != EngineLive {
		st := e.state
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: engine %v", ErrEngineLost, st)
	}
	e.seq++
	h := &JobHandle{seq: e.seq, done: make(chan JobResult, 1)}
	ep := e.epoch
	ep.submitters.Add(1)
	// Journal the job before it leaves our hands: the watchdog scores
	// this entry against the latency budget, and a wedge declaration
	// fails it so the caller can replay on the SoC.
	e.inflight[h.seq] = &journalEntry{
		seq: h.seq, algo: job.Algo, op: job.Op, bytes: len(job.Input),
		submitted: time.Now(), handle: h,
	}
	e.mu.Unlock()
	defer ep.submitters.Done()
	job.Input = append(e.inputs.GetCap(len(job.Input)), job.Input...)
	q := queued{job: job, handle: h, fault: dec, seq: h.seq}
	// Enqueue outside the lock: a full queue must not wedge SetTracer or
	// close behind a blocked send, and retire never races this send — it
	// signals stop first and waits for in-flight submitters before
	// closing the queue.
	if blocking {
		select {
		case ep.queue <- q:
			return h, nil
		case <-ep.stop:
			return nil, e.submitFailed(q)
		}
	}
	select {
	case ep.queue <- q:
		return h, nil
	case <-ep.stop:
		return nil, e.submitFailed(q)
	default:
		e.journalRemove(h.seq)
		e.inputs.Put(job.Input)
		return nil, fmt.Errorf("%w: %v %v (queue depth %d)", ErrQueueFull, job.Algo, job.Op, cengineQueueDepth)
	}
}

// submitFailed cleans up after an enqueue lost against epoch retirement —
// the journal entry and the input copy — and picks the caller-facing
// error.
func (e *CEngine) submitFailed(q queued) error {
	e.journalRemove(q.seq)
	e.inputs.Put(q.job.Input)
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return ErrClosed
	}
	return fmt.Errorf("%w: engine resetting", ErrEngineLost)
}

func (e *CEngine) journalRemove(seq uint64) {
	e.mu.Lock()
	delete(e.inflight, seq)
	e.mu.Unlock()
}

// jobCompleted retires a journal entry after genuine execution and
// resets the watchdog's stall streak: a draining engine is not wedged.
func (e *CEngine) jobCompleted(seq uint64) {
	e.mu.Lock()
	delete(e.inflight, seq)
	e.stallStreak = 0
	e.mu.Unlock()
}

// Run is the synchronous convenience wrapper: submit and wait.
func (e *CEngine) Run(job Job) JobResult {
	h, err := e.Submit(job)
	if err != nil {
		return JobResult{Err: err}
	}
	return h.Wait()
}

// dispatch is one epoch's server. It dequeues in submission order, and
// only once a host lane is idle, so each job meets the ordering rules
// (see admit) when a serial engine would have started it; what it admits
// runs on a lane. Once the epoch retires it waits for in-flight
// submitters, closes the queue and serves what was accepted. A token on
// idle is a free lane; work hands an admitted job to one.
func (e *CEngine) dispatch(ep *engineEpoch, idle chan struct{}, work chan<- queued) {
	serve := func(q queued) {
		if e.admit(ep, &q) {
			work <- q
			return
		}
		// Dropped at dispatch, the job reads its input no more.
		e.inputs.Put(q.job.Input)
		idle <- struct{}{}
	}
	for live := true; live; {
		<-idle
		select {
		case q := <-ep.queue:
			serve(q)
		case <-ep.stop:
			idle <- struct{}{}
			live = false
		}
	}
	ep.submitters.Wait()
	close(ep.queue)
	for q := range ep.queue {
		<-idle
		serve(q)
	}
}

// admit applies the ordering rules to a dequeued job and reports whether
// it goes on to a lane. A stale epoch fails it, a passed deadline drops
// it, an injected stall swallows it, an injected wedge stops dispatch
// until the epoch retires, and an injected hang holds the head of the
// line. An admitted compress job draws its compute-fault decision here,
// in queue order, for its lane to apply.
func (e *CEngine) admit(ep *engineEpoch, q *queued) bool {
	if ep.stale.Load() {
		e.failStale(q)
		return false
	}
	if !q.job.Deadline.IsZero() && time.Now().After(q.job.Deadline) {
		// Dead on arrival: the submitter's wait deadline has already
		// fired. Executing would spend engine time on an abandoned
		// result, so drop at dequeue.
		e.noteExpired(*q)
		e.journalRemove(q.seq)
		q.handle.complete(JobResult{Seq: q.seq, Err: fmt.Errorf("%w: expired in queue", ErrDeadline)})
		return false
	}
	switch q.fault.Class {
	case faults.Stall:
		// Injected descriptor loss: the engine accepted the job and will
		// never complete it. The journal entry stays; only the watchdog
		// (or the caller's wait deadline) frees the caller.
		return false
	case faults.Wedge:
		// Injected firmware wedge: stop draining entirely until the epoch
		// is retired by a hot-reset or engine close. Jobs already on a
		// lane still finish.
		<-ep.stop
		e.journalRemove(q.seq)
		q.handle.complete(JobResult{Seq: q.seq, Err: fmt.Errorf("%w: engine wedged", ErrEngineLost)})
		return false
	case faults.Hang:
		// A hung hardware queue entry: head-of-line blocking for
		// everything behind it, and only a wait deadline frees the
		// submitter. Retirement ends the hang; a reset also ends the job.
		t := time.NewTimer(q.fault.Delay)
		select {
		case <-t.C:
		case <-ep.stop:
			t.Stop()
		}
		if ep.stale.Load() {
			e.failStale(q)
			return false
		}
	case faults.Transient, faults.Persistent:
		// The job fails before its codec pass: no output to corrupt.
		return true
	}
	if q.job.Op == hwmodel.Compress {
		q.sdcInj = e.getComputeInjector()
		q.sdc = q.sdcInj.Next(engineUnitID)
	}
	return true
}

// failStale fails a job of a reset-retired epoch: the hardware behind
// its queue is gone. The watchdog already failed journaled handles; the
// duplicate completion is a dropped non-blocking send.
func (e *CEngine) failStale(q *queued) {
	e.journalRemove(q.seq)
	q.handle.complete(JobResult{Seq: q.seq, Err: fmt.Errorf("%w: epoch retired", ErrEngineLost)})
}

// run is a lane's share of one job: the codec pass, the CRC and the
// completion. The input copy goes back to the engine's pool after it.
func (e *CEngine) run(q queued) {
	res := e.execute(q)
	res.Seq = q.seq
	e.jobCompleted(q.seq)
	q.handle.complete(res)
	e.inputs.Put(q.job.Input)
}

func (e *CEngine) noteExpired(q queued) {
	e.mu.Lock()
	e.expired++
	tr := e.tracer
	e.mu.Unlock()
	if tr != nil {
		tr.Record(trace.Event{
			Engine: hwmodel.CEngine.String(), Algo: q.job.Algo.String(),
			Op: "deadline_expired_drop", InBytes: len(q.job.Input),
			Err: ErrDeadline.Error(),
		})
	}
}

// StartWatchdog arms the stall watchdog: a goroutine that scores every
// journaled job against its expected-latency budget, fails overdue jobs
// with ErrEngineLost, declares the engine wedged after WedgeAfter
// consecutive stalls, and drives the hot-reset/degradation state
// machine. Idempotent: the first configuration wins.
func (e *CEngine) StartWatchdog(cfg WatchdogConfig) {
	cfg = cfg.normalized()
	e.mu.Lock()
	if e.closed || e.wd != nil {
		e.mu.Unlock()
		return
	}
	e.wd = &cfg
	e.running.Add(1)
	e.mu.Unlock()
	go func() {
		defer e.running.Done()
		e.watchdog(cfg)
	}()
}

func (e *CEngine) watchdog(cfg WatchdogConfig) {
	tick := time.NewTicker(cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-e.closeCh:
			return
		case <-tick.C:
		}
		if wedged := e.scan(cfg); wedged {
			e.hotReset(cfg)
		}
	}
}

// budget is the expected-latency allowance for one in-flight job: the
// hwmodel cost of the operation scaled by the configured slack, plus a
// floor absorbing queue wait and host scheduling noise. Decompression
// cost scales with the expanded output, unknown while in flight, so the
// compressed size is inflated by a nominal expansion ratio first.
func (e *CEngine) budget(cfg WatchdogConfig, je *journalEntry) time.Duration {
	n := je.bytes
	if je.op == hwmodel.Decompress {
		n *= 8
	}
	d, ok := hwmodel.OpCost(e.gen, hwmodel.CEngine, je.algo, je.op, n)
	if !ok {
		d = 0
	}
	return cfg.BudgetFloor + time.Duration(float64(d)*cfg.BudgetSlack)
}

// scan fails jobs whose budget has expired and reports whether the
// stall streak crossed the wedge threshold (the caller then hot-resets).
func (e *CEngine) scan(cfg WatchdogConfig) bool {
	now := time.Now()
	e.mu.Lock()
	if e.closed || e.state != EngineLive {
		e.mu.Unlock()
		return false
	}
	var overdue []*journalEntry
	for _, je := range e.inflight {
		if now.Sub(je.submitted) > e.budget(cfg, je) {
			overdue = append(overdue, je)
		}
	}
	if len(overdue) == 0 {
		e.mu.Unlock()
		return false
	}
	sort.Slice(overdue, func(a, b int) bool { return overdue[a].seq < overdue[b].seq })
	for _, je := range overdue {
		delete(e.inflight, je.seq)
		e.stalls++
		e.lost++
		e.stallStreak++
	}
	wedged := e.stallStreak >= cfg.WedgeAfter
	var drained []*journalEntry
	if wedged {
		e.state = EngineResetting
		e.wedges++
		for _, je := range e.inflight {
			drained = append(drained, je)
			e.lost++
		}
		e.inflight = make(map[uint64]*journalEntry)
		e.stallStreak = 0
	}
	tr := e.tracer
	hook := e.hook
	e.mu.Unlock()

	for _, je := range overdue {
		je.handle.complete(JobResult{Seq: je.seq, Err: fmt.Errorf(
			"%w: job %d stalled (%v %v over %d bytes)", ErrEngineLost, je.seq, je.algo, je.op, je.bytes)})
		if tr != nil {
			tr.Record(trace.Event{
				Engine: engineWatchdog, Algo: je.algo.String(),
				Op: "engine_stall_detected", InBytes: je.bytes, Err: "job overdue",
			})
		}
		if hook != nil {
			hook(EngineEvent{Kind: EventStallDetected, State: EngineLive, Seq: je.seq})
		}
	}
	if wedged {
		sort.Slice(drained, func(a, b int) bool { return drained[a].seq < drained[b].seq })
		for _, je := range drained {
			je.handle.complete(JobResult{Seq: je.seq, Err: fmt.Errorf(
				"%w: engine wedged with job %d in flight", ErrEngineLost, je.seq)})
		}
		pending := len(overdue) + len(drained)
		if tr != nil {
			tr.Record(trace.Event{
				Engine: engineWatchdog, Op: "engine_wedge_declared",
				InBytes: pending, Err: "stall streak exhausted budget",
			})
		}
		if hook != nil {
			hook(EngineEvent{Kind: EventWedgeDeclared, State: EngineResetting, Pending: pending})
		}
	}
	return wedged
}

// hotReset retires the wedged epoch and re-opens the engine with a
// fresh queue and dispatcher (the DOCA work-queue teardown + rebuild of a
// device re-open). Attempts are bounded: a firmware that refuses to come
// back escalates to permanent SoC-only degradation.
func (e *CEngine) hotReset(cfg WatchdogConfig) {
	e.mu.Lock()
	old := e.epoch
	tr := e.tracer
	hook := e.hook
	e.mu.Unlock()
	old.retire(true)
	for attempt := 1; attempt <= cfg.MaxResetAttempts; attempt++ {
		if attempt > 1 {
			time.Sleep(cfg.ResetBackoff)
		}
		if dec := e.getInjector().NextReset(); dec.Class == faults.ResetFail {
			e.mu.Lock()
			e.resetFailures++
			e.mu.Unlock()
			if tr != nil {
				tr.Record(trace.Event{Engine: engineWatchdog, Op: "engine_reset",
					Err: fmt.Sprintf("attempt %d/%d failed", attempt, cfg.MaxResetAttempts)})
			}
			if hook != nil {
				hook(EngineEvent{Kind: EventResetFailed, State: EngineResetting, Attempt: attempt})
			}
			continue
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			return
		}
		ep := newEpoch()
		e.epoch = ep
		e.state = EngineLive
		e.resets++
		e.start(ep)
		e.mu.Unlock()
		if tr != nil {
			tr.Record(trace.Event{Engine: engineWatchdog, Op: "engine_reset"})
		}
		if hook != nil {
			hook(EngineEvent{Kind: EventResetOK, State: EngineLive, Attempt: attempt})
		}
		return
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.state = EngineDegraded
	e.mu.Unlock()
	if tr != nil {
		tr.Record(trace.Event{Engine: engineWatchdog, Op: "engine_degraded",
			Err: "reset attempts exhausted"})
	}
	if hook != nil {
		hook(EngineEvent{Kind: EventDegraded, State: EngineDegraded, Attempt: cfg.MaxResetAttempts})
	}
}

// Reset manually hot-resets the engine: every in-flight job fails with
// ErrEngineLost, the queue is rebuilt, and bounded attempts escalate to
// permanent degradation exactly like a watchdog-initiated reset. It
// returns the resulting state. Resetting and Degraded engines return
// their current state unchanged.
func (e *CEngine) Reset() EngineState {
	e.mu.Lock()
	if e.closed || e.state != EngineLive {
		st := e.state
		e.mu.Unlock()
		return st
	}
	cfg := WatchdogConfig{}.normalized()
	if e.wd != nil {
		cfg = *e.wd
	}
	e.state = EngineResetting
	var drained []*journalEntry
	for _, je := range e.inflight {
		drained = append(drained, je)
		e.lost++
	}
	e.inflight = make(map[uint64]*journalEntry)
	e.stallStreak = 0
	e.mu.Unlock()
	sort.Slice(drained, func(a, b int) bool { return drained[a].seq < drained[b].seq })
	for _, je := range drained {
		je.handle.complete(JobResult{Seq: je.seq, Err: fmt.Errorf(
			"%w: manual reset with job %d in flight", ErrEngineLost, je.seq)})
	}
	e.hotReset(cfg)
	return e.State()
}

func (e *CEngine) close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	ep := e.epoch
	e.mu.Unlock()
	close(e.closeCh)
	// Unblock submitters stuck on a full queue; the dispatcher waits until
	// none are in flight, closes the queue, drains what was accepted and
	// exits after its lanes. This ordering makes close(queue) race-free.
	ep.retire(false)
	e.running.Wait()
}

// execute performs the real compression work and attaches the modelled
// hardware duration. Failed jobs are traced too, with the error noted.
func (e *CEngine) execute(q queued) JobResult {
	job := q.job
	wallStart := time.Now()
	res := e.executeInner(q)
	if tr := e.getTracer(); tr != nil {
		ev := trace.Event{
			Engine: hwmodel.CEngine.String(),
			Algo:   job.Algo.String(), Op: job.Op.String(),
			InBytes: len(job.Input), OutBytes: len(res.Output),
			Virtual: res.Virtual, Wall: time.Since(wallStart),
		}
		if res.Err != nil {
			ev.Err = res.Err.Error()
		}
		tr.Record(ev)
	}
	return res
}

func (e *CEngine) executeInner(q queued) JobResult {
	job, fault := q.job, q.fault
	switch fault.Class {
	case faults.Transient:
		return JobResult{Err: fmt.Errorf("%w: injected %v %v fault", ErrTransient, job.Algo, job.Op)}
	case faults.Persistent:
		return JobResult{Err: fmt.Errorf("%w: injected %v %v fault", ErrHardware, job.Algo, job.Op)}
	}
	limit := job.MaxOutput
	if limit <= 0 {
		limit = 1 << 30
	}
	var out []byte
	var err error
	switch {
	case job.Algo == hwmodel.Deflate && job.Op == hwmodel.Compress:
		// The hardware engine compresses in one pass at a fixed effort.
		out = flate.Compress(job.Input, flate.DefaultLevel)
	case job.Algo == hwmodel.Deflate && job.Op == hwmodel.Decompress:
		out, err = flate.DecompressLimit(job.Input, limit)
	case job.Algo == hwmodel.LZ4 && job.Op == hwmodel.Decompress:
		out, err = lz4.DecompressLimit(job.Input, limit)
	default:
		return JobResult{Err: fmt.Errorf("%w: %v %v", ErrUnsupported, job.Algo, job.Op)}
	}
	if err != nil {
		return JobResult{Err: err}
	}
	// Compute-fault (SDC) injection happens BEFORE the engine digests
	// its output: the corrupted bytes carry a valid checksum, exactly
	// like a miscomputing compression lane. VerifyOutput cannot see it;
	// only decode-verification against the source digest can. Compress
	// only — the SDC model targets the compression kernels the paper
	// offloads. The decision was drawn at dispatch.
	q.sdcInj.Apply(q.sdc, out)
	// The engine reports the CRC of the data it produced; corruption
	// injected below therefore mismatches it, the way a bit flip on the
	// PCIe/DMA path would.
	sum := checksum.CRC32(out)
	if fault.Class == faults.Corrupt && len(out) > 0 {
		out[len(out)/2] ^= 0x55
	}
	// Hardware time scales with the volume of data moved through the
	// engine, which for decompression is the expanded output.
	n := len(job.Input)
	if job.Op == hwmodel.Decompress {
		n = len(out)
	}
	d, ok := hwmodel.OpCost(e.gen, hwmodel.CEngine, job.Algo, job.Op, n)
	if !ok {
		return JobResult{Err: fmt.Errorf("%w: no cost model for %v %v", ErrUnsupported, job.Algo, job.Op)}
	}
	return JobResult{Output: out, Virtual: d, Checksum: sum}
}
