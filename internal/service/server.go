package service

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"pedal/internal/checksum"
	"pedal/internal/core"
	"pedal/internal/dpu"
	"pedal/internal/hwmodel"
	"pedal/internal/integrity"
	"pedal/internal/stats"
	"pedal/internal/trace"
)

// Connection deadline defaults. A stalled peer must not wedge a handler
// goroutine forever.
const (
	DefaultIdleTimeout  = 2 * time.Minute
	DefaultWriteTimeout = 30 * time.Second
)

// DefaultQueueDepth is the admission wait-queue capacity when QueueDepth
// is zero.
const DefaultQueueDepth = 16

// connState tracks one connection's handler for graceful drain: busy
// means the handler is between a fully read request and its response,
// so Shutdown must let it finish; idle handlers are blocked in
// readRequestGoverned and get their read deadline fired instead.
type connState struct {
	busy bool
}

// Server serves PEDAL compression over a listener. One PEDAL library is
// shared by all connections, the way a DPU daemon would share the
// device.
//
// Admission control mirrors a real DPU daemon with a fixed engine-queue
// depth: at most MaxConcurrent requests execute at once, up to
// QueueDepth more wait, and anything beyond that is shed immediately
// with a statusBusy response (the client sees ErrBusy, never a hang or
// a dropped byte).
type Server struct {
	lib *core.Library
	ln  net.Listener

	mu       sync.Mutex
	closed   bool
	draining bool
	conns    map[net.Conn]*connState
	wg       sync.WaitGroup

	admitOnce sync.Once
	sem       chan struct{} // MaxConcurrent execution slots
	queue     chan struct{} // QueueDepth admission waiters

	bd *stats.Breakdown

	// Logf receives per-connection error logs; nil silences them.
	Logf func(format string, args ...any)
	// IdleTimeout bounds the wait for the next request on an open
	// connection; WriteTimeout bounds each response write. Zero selects
	// the defaults above; negative disables the deadline.
	IdleTimeout  time.Duration
	WriteTimeout time.Duration
	// MaxConcurrent bounds requests executing at once. Zero means
	// GOMAXPROCS; negative disables admission control entirely.
	MaxConcurrent int
	// QueueDepth bounds requests waiting for an execution slot before
	// the server sheds with statusBusy. Zero means DefaultQueueDepth;
	// negative means no queue (shed as soon as all slots are busy).
	QueueDepth int
	// Tracer, when set, records shed/drain/panic events alongside the
	// hardware timeline. A nil tracer is a no-op.
	Tracer *trace.Tracer
	// ExecDelay stalls each admitted request for the given duration
	// before executing it, while holding its admission slot. Chaos and
	// soak harnesses use it to model a slow or contended engine and
	// drive the server into sustained overload deterministically. To
	// change the delay while the server is running use SetExecDelay.
	ExecDelay time.Duration
	// execDelay overrides ExecDelay when non-zero: nanoseconds, with -1
	// meaning "explicitly zero". Lets fault injectors flip a live
	// server between stalled and healthy without racing the handlers.
	execDelay atomic.Int64
	// RetryAfterHint, when positive, is carried on every statusBusy
	// response so clients back off for at least that long instead of
	// guessing. Zero keeps the pre-hint wire format (empty busy body) —
	// unless the server is under pool or queue pressure, in which case a
	// load-scaled hint is synthesised so clients back off harder exactly
	// when the daemon needs them to (cooperative backpressure).
	RetryAfterHint time.Duration
	// DefaultDeadline bounds requests that carry no deadline hint of
	// their own, and acts as a ceiling on hints that are looser. Zero
	// leaves hint-free requests unbounded (classic behaviour).
	DefaultDeadline time.Duration
	// defaultDeadline overrides DefaultDeadline when non-zero:
	// nanoseconds, with -1 meaning "explicitly zero". Lets fault
	// injectors storm a live server with tiny deadlines without racing
	// the handlers (the SetExecDelay pattern).
	defaultDeadline atomic.Int64

	// rung is the brownout ladder state (rungHealthy..rungSerial),
	// stepped by load observed at request admission.
	rung atomic.Int32

	// execHook replaces execute when non-nil (tests use it to inject
	// slow or panicking handlers).
	execHook func(request) ([]byte, error)
}

// NewServer wraps an initialised library. The caller retains ownership
// of lib (Close does not finalize it).
func NewServer(lib *core.Library) *Server {
	return &Server{
		lib:   lib,
		conns: make(map[net.Conn]*connState),
		bd:    stats.NewBreakdown(),
	}
}

// Stats exposes the server's request/shed/panic/drain counters.
func (s *Server) Stats() *stats.Breakdown { return s.bd }

// SetExecDelay changes the per-request execution stall on a running
// server (atomically — handlers may be mid-request). Chaos harnesses
// use it to wedge and un-wedge a live shard.
func (s *Server) SetExecDelay(d time.Duration) {
	if d <= 0 {
		s.execDelay.Store(-1)
		return
	}
	s.execDelay.Store(int64(d))
}

// currentExecDelay resolves the effective stall: the atomic override if
// SetExecDelay was ever called, the ExecDelay field otherwise.
func (s *Server) currentExecDelay() time.Duration {
	switch v := s.execDelay.Load(); {
	case v > 0:
		return time.Duration(v)
	case v < 0:
		return 0
	default:
		return s.ExecDelay
	}
}

// SetDefaultDeadline changes the server-side deadline ceiling on a
// running server (atomically — handlers may be mid-request). Chaos
// harnesses use it to drive a deadline storm against a live shard.
func (s *Server) SetDefaultDeadline(d time.Duration) {
	if d <= 0 {
		s.defaultDeadline.Store(-1)
		return
	}
	s.defaultDeadline.Store(int64(d))
}

// currentDefaultDeadline resolves the effective ceiling: the atomic
// override if SetDefaultDeadline was ever called, the DefaultDeadline
// field otherwise.
func (s *Server) currentDefaultDeadline() time.Duration {
	switch v := s.defaultDeadline.Load(); {
	case v > 0:
		return time.Duration(v)
	case v < 0:
		return 0
	default:
		return s.DefaultDeadline
	}
}

// Brownout ladder rungs (overload fault domain). Load — the worse of
// pool-budget occupancy and admission-queue occupancy — steps the
// server up the ladder: first low-priority requests are shed, then the
// chunk pipeline's concurrency is halved, finally it falls back to
// serial. Each rung trades throughput for bounded memory instead of
// failing unpredictably.
const (
	rungHealthy = iota
	rungShedBestEffort
	rungShrinkPipeline
	rungSerial
)

// Brownout step-up thresholds per rung; a rung steps back down one
// level once load clears its own threshold by brownoutHysteresis.
var brownoutUp = [4]float64{0, 0.70, 0.85, 0.95}

const brownoutHysteresis = 0.15

// defaultPressureRetryAfter is the synthesised Retry-After hint when
// the server sheds under pressure but RetryAfterHint was not set.
const defaultPressureRetryAfter = 2 * time.Millisecond

// loadFactor measures overload pressure in [0,1+): the worse of pool
// budget occupancy (held/budget) and admission queue occupancy.
func (s *Server) loadFactor() float64 {
	var load float64
	if snap := s.lib.PoolSnapshot(); snap.Budget > 0 {
		load = float64(snap.HeldBytes) / float64(snap.Budget)
	}
	s.initAdmission()
	if s.queue != nil {
		if q := float64(len(s.queue)) / float64(cap(s.queue)); q > load {
			load = q
		}
	}
	return load
}

// pressureHint scales the Retry-After hint by current load, so a busy
// response under deep pressure asks for a longer backoff than one at
// the edge of capacity.
func (s *Server) pressureHint() time.Duration {
	h := s.RetryAfterHint
	load := s.loadFactor()
	if h <= 0 {
		if load < brownoutUp[rungShedBestEffort] {
			return 0
		}
		h = defaultPressureRetryAfter
	}
	if load > 0 {
		scale := load
		if scale > 1 {
			scale = 1
		}
		h += time.Duration(scale * float64(3*h))
	}
	if h > maxRetryAfter {
		h = maxRetryAfter
	}
	return h
}

// maybeBrownout re-evaluates the brownout rung against current load and
// applies the rung's pipeline concurrency cap. Returns the rung in
// effect for this request.
func (s *Server) maybeBrownout() int {
	load := s.loadFactor()
	cur := int(s.rung.Load())
	want := cur
	if cur < rungSerial && load >= brownoutUp[cur+1] {
		for want < rungSerial && load >= brownoutUp[want+1] {
			want++
		}
	} else if cur > rungHealthy && load < brownoutUp[cur]-brownoutHysteresis {
		want--
	}
	if want != cur && s.rung.CompareAndSwap(int32(cur), int32(want)) {
		s.applyRung(want, cur, load)
		return want
	}
	return cur
}

// applyRung installs a rung's pipeline concurrency cap and records the
// transition (brownout steps count once per upward transition).
func (s *Server) applyRung(want, cur int, load float64) {
	pl := s.lib.Pipeline()
	switch want {
	case rungSerial:
		pl.SetMaxConcurrency(1)
	case rungShrinkPipeline:
		pl.SetMaxConcurrency((pl.Workers() + 1) / 2)
	default:
		pl.SetMaxConcurrency(0)
	}
	op := "brownout_clear"
	if want > cur {
		op = "brownout"
		s.bd.Inc(stats.CounterBrownouts)
	}
	s.Tracer.Record(trace.Event{Engine: "service", Op: op, InBytes: want, OutBytes: cur,
		Err: fmt.Sprintf("load=%.2f", load)})
}

// BrownoutRung exposes the current ladder rung (0 = healthy) for
// operational tooling and soak assertions.
func (s *Server) BrownoutRung() int { return int(s.rung.Load()) }

// readRequestGoverned reads one request, drawing the body from the
// library's governed memory pool when a budget is configured. When the
// pool refuses the draw (budget exhausted) the body is still read —
// the stream must stay framed — but shed=true tells the handler to
// answer statusBusy instead of executing, converting memory pressure
// into cooperative backpressure. putBody releases a pooled body back
// to the budget and must be called exactly once.
func (s *Server) readRequestGoverned(conn io.Reader) (req request, putBody func(), shed bool, err error) {
	req, n, err := readRequestHeader(conn)
	if err != nil {
		return request{}, nil, false, err
	}
	putBody = func() {}
	if n == 0 {
		req.data = []byte{}
		return req, putBody, false, nil
	}
	pool := s.lib.Pool()
	// Oversize bodies (larger than the whole budget) can never be
	// admitted; they bypass governance rather than shedding forever.
	if budget := pool.Budget(); budget > 0 && int64(n) <= budget {
		buf, gerr := pool.TryGet(int(n))
		if gerr == nil {
			if _, err := io.ReadFull(conn, buf); err != nil {
				pool.Put(buf)
				return request{}, nil, false, err
			}
			req.data = buf
			return req, func() { pool.Put(buf) }, false, nil
		}
		s.bd.Inc(stats.CounterMemPressure)
		shed = true
	}
	body, err := readBody(conn, n)
	if err != nil {
		return request{}, nil, false, err
	}
	req.data = body
	return req, putBody, shed, nil
}

// initAdmission resolves the semaphore and queue once, at first use, so
// MaxConcurrent/QueueDepth can be set any time before Serve.
func (s *Server) initAdmission() {
	s.admitOnce.Do(func() {
		mc := s.MaxConcurrent
		if mc == 0 {
			mc = runtime.GOMAXPROCS(0)
		}
		if mc > 0 {
			s.sem = make(chan struct{}, mc)
		}
		qd := s.QueueDepth
		if qd == 0 {
			qd = DefaultQueueDepth
		}
		if s.sem != nil && qd > 0 {
			s.queue = make(chan struct{}, qd)
		}
	})
}

// admit claims an execution slot. It returns a release func and true on
// success; false means both the slots and the wait queue are full and
// the request must be shed.
func (s *Server) admit() (func(), bool) {
	s.initAdmission()
	if s.sem == nil {
		return func() {}, true
	}
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, true
	default:
	}
	if s.queue == nil {
		return nil, false
	}
	select {
	case s.queue <- struct{}{}:
	default:
		return nil, false
	}
	// Queued: wait (bounded by the holders finishing) for a slot.
	s.sem <- struct{}{}
	<-s.queue
	return func() { <-s.sem }, true
}

// Serve accepts connections until the listener closes. Temporary accept
// errors (e.g. fd exhaustion) are retried with exponential backoff
// instead of killing the loop. It returns the accept error that
// terminated the loop (net.ErrClosed after Close or Shutdown).
func (s *Server) Serve(ln net.Listener) error {
	s.initAdmission()
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if te, ok := err.(interface{ Temporary() bool }); ok && te.Temporary() && !s.isClosed() {
				if backoff == 0 {
					backoff = 5 * time.Millisecond
				} else if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
				s.logf("service: accept error (retrying in %v): %v", backoff, err)
				time.Sleep(backoff)
				continue
			}
			s.wg.Wait()
			return err
		}
		backoff = 0
		s.mu.Lock()
		if s.closed || s.draining {
			s.mu.Unlock()
			conn.Close()
			s.wg.Wait()
			return net.ErrClosed
		}
		s.conns[conn] = &connState{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// Close stops accepting and closes active connections immediately,
// abandoning in-flight requests. Prefer Shutdown for a graceful drain.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
}

// Shutdown gracefully drains the server: it stops accepting new
// connections, lets every in-flight request finish and write its
// response, then closes. Idle connections (blocked waiting for the next
// request) are released immediately. If ctx expires first, remaining
// connections are closed abruptly and ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	alreadyDraining := s.draining
	s.draining = true
	ln := s.ln
	s.ln = nil
	var inflight int
	// Fire the read deadline of idle handlers so their blocking
	// readRequestGoverned returns now; busy handlers finish their response and
	// then observe draining at the top of their loop. Both the poke and
	// the handler's own deadline/busy transitions happen under s.mu, so
	// no request can slip between the two states unobserved.
	for c, st := range s.conns {
		if st.busy {
			inflight++
		} else {
			c.SetReadDeadline(time.Now())
		}
	}
	s.bd.CountAdd(stats.CounterDrained, uint64(inflight))
	s.mu.Unlock()
	if !alreadyDraining {
		s.Tracer.Record(trace.Event{Engine: "service", Op: "drain", InBytes: inflight})
	}
	if ln != nil {
		ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		return nil
	case <-ctx.Done():
		// Abandon the drain: close the remaining connections. Handlers
		// blocked on connection I/O unwind immediately; a handler wedged
		// inside execute is not waited for (mirroring net/http).
		s.mu.Lock()
		s.closed = true
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed || s.draining
}

// timeout resolves a configured deadline: zero → def, negative → off.
func timeout(configured, def time.Duration) time.Duration {
	if configured == 0 {
		return def
	}
	if configured < 0 {
		return 0
	}
	return configured
}

func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	idle := timeout(s.IdleTimeout, DefaultIdleTimeout)
	write := timeout(s.WriteTimeout, DefaultWriteTimeout)
	s.mu.Lock()
	st := s.conns[conn]
	s.mu.Unlock()
	if st == nil {
		return // raced with Close
	}
	respond := func(status byte, body []byte) error {
		if write > 0 {
			conn.SetWriteDeadline(time.Now().Add(write))
		}
		return writeResponse(conn, status, body)
	}
	for {
		// Mark idle and arm the read deadline in the same critical
		// section where Shutdown checks busy and pokes deadlines: either
		// Shutdown sees us idle and fires the deadline, or we see
		// draining and exit — a request can never be read after drain
		// without being served.
		s.mu.Lock()
		if s.draining || s.closed {
			s.mu.Unlock()
			return
		}
		st.busy = false
		if idle > 0 {
			conn.SetReadDeadline(time.Now().Add(idle))
		} else {
			conn.SetReadDeadline(time.Time{})
		}
		s.mu.Unlock()
		req, putBody, memShed, err := s.readRequestGoverned(conn)
		if err != nil {
			return // EOF, deadline, drain poke, or broken connection
		}
		s.mu.Lock()
		st.busy = true
		if s.draining {
			// The request raced past the drain poke (bytes were already
			// buffered); it still gets served and counted as drained.
			s.bd.Inc(stats.CounterDrained)
		}
		s.mu.Unlock()
		if req.op == opPing {
			// Keepalive: answer before admission so overload never
			// masquerades as death (a shed ping would let a busy spell
			// tear down every session at once).
			putBody()
			if err := respond(statusOK, nil); err != nil {
				return
			}
			continue
		}
		rung := s.maybeBrownout()
		if memShed || (rung >= rungShedBestEffort && req.bestEffort) {
			why := "best_effort"
			if memShed {
				why = "mem_pressure"
			}
			putBody()
			s.bd.Inc(stats.CounterSheds)
			s.Tracer.Record(trace.Event{Engine: "service", Op: "shed", InBytes: len(req.data), Err: why})
			if err := respond(statusBusy, retryAfterBody(s.pressureHint())); err != nil {
				return
			}
			continue
		}
		release, ok := s.admit()
		if !ok {
			putBody()
			s.bd.Inc(stats.CounterSheds)
			s.Tracer.Record(trace.Event{Engine: "service", Op: "shed", InBytes: len(req.data), Err: "busy"})
			if err := respond(statusBusy, retryAfterBody(s.pressureHint())); err != nil {
				return
			}
			continue
		}
		body, pooled, err := s.execute(req)
		release()
		// Buffers go back to the budget only after the response bytes are
		// on the wire (or the write failed): the response may alias the
		// request buffer (decompress passthrough), and a daemon that never
		// returned pool-drawn response bodies would bleed its budget dry.
		finish := func() {
			putBody()
			if pooled && body != nil {
				s.lib.Release(body)
			}
		}
		s.bd.Inc(stats.CounterRequests)
		if err != nil {
			finish()
			status := byte(statusErr)
			if errors.Is(err, dpu.ErrDeadline) {
				// The request's budget ran out mid-flight: the work was
				// abandoned at a checkpoint and the client gets the typed
				// status so it never mistakes overload for a data error.
				status = statusDeadline
				s.bd.Inc(stats.CounterDeadlineAbandoned)
				s.Tracer.Record(trace.Event{Engine: "service", Op: "deadline_abandoned", Err: err.Error()})
			}
			if werr := respond(status, []byte(err.Error())); werr != nil {
				return
			}
			continue
		}
		err = respond(statusOK, body)
		finish()
		if err != nil {
			s.logf("service: write response: %v", err)
			return
		}
	}
}

// execute runs one request against the library. pooled reports that the
// returned body is a pool-drawn buffer whose budget charge the caller
// must release (via lib.Release) once the response is written. A
// panicking handler is recovered into a statusErr response so one
// poisoned request cannot take down the daemon or its other connections.
func (s *Server) execute(req request) (body []byte, pooled bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.bd.Inc(stats.CounterPanics)
			s.logf("service: handler panic: %v\n%s", r, debug.Stack())
			s.Tracer.Record(trace.Event{Engine: "service", Op: "panic", Err: fmt.Sprint(r)})
			body, pooled = nil, false
			err = fmt.Errorf("internal error: handler panic: %v", r)
		}
	}()
	if d := s.currentExecDelay(); d > 0 {
		time.Sleep(d)
	}
	if s.execHook != nil {
		body, err = s.execHook(req)
		return body, false, err
	}
	if req.op == opHealth {
		// Health carries no payload and no engine selector.
		return s.HealthBody(), false, nil
	}
	// Per-request deadline: the client's hint was stamped to an absolute
	// deadline at read time, so queue wait already counts against the
	// budget; the server's own ceiling bounds hint-free requests and
	// caps hints looser than the operator allows.
	deadlineAt := req.deadlineAt
	if d := s.currentDefaultDeadline(); d > 0 {
		if ceiling := time.Now().Add(d); deadlineAt.IsZero() || ceiling.Before(deadlineAt) {
			deadlineAt = ceiling
		}
	}
	ctx := context.Background()
	cancel := context.CancelFunc(func() {})
	if !deadlineAt.IsZero() {
		ctx, cancel = context.WithDeadline(ctx, deadlineAt)
	}
	defer cancel()
	engine := hwmodel.Engine(req.engine)
	if engine != hwmodel.SoC && engine != hwmodel.CEngine {
		return nil, false, errors.New("bad engine")
	}
	dt := core.DataType(req.dtype)
	switch req.op {
	case opCompress:
		d := core.Design{Algo: core.AlgoID(req.algo), Engine: engine}
		// The assembled message is pool-drawn; ownership passes to the
		// caller, which releases it once the response hits the wire.
		msg, _, err := s.lib.CompressContext(ctx, d, dt, req.data)
		return msg, err == nil, err
	case opDecompress:
		// Decompress outputs are plain allocations (or, on passthrough,
		// aliases into the request buffer) — never pool-charged.
		out, _, err := s.lib.DecompressContext(ctx, engine, dt, req.data, int(req.maxOut))
		return out, false, err
	case opCompressChecked:
		payload, err := s.checkRequestDigest(req, "compress")
		if err != nil {
			return nil, false, err
		}
		d := core.Design{Algo: core.AlgoID(req.algo), Engine: engine}
		msg, rep, err := s.lib.CompressContext(ctx, d, dt, payload)
		if err != nil {
			return nil, false, err
		}
		// prependDigest copies, so the pool-drawn message can go back to
		// the budget immediately.
		body = prependDigest(rep.MsgCRC, msg)
		s.lib.Release(msg)
		return body, false, nil
	case opDecompressChecked:
		payload, err := s.checkRequestDigest(req, "decompress")
		if err != nil {
			return nil, false, err
		}
		out, rep, err := s.lib.DecompressContext(ctx, engine, dt, payload, int(req.maxOut))
		if err != nil {
			return nil, false, err
		}
		return prependDigest(rep.MsgCRC, out), false, nil
	default:
		return nil, false, errors.New("bad op")
	}
}

// checkRequestDigest strips and verifies the crc(4 LE) prefix of a
// checked request. A mismatch means the request bytes were damaged on
// the host→daemon hop: the request is rejected with a typed integrity
// error before any compression work, and the daemon's hops_rejected
// counter records the detection.
func (s *Server) checkRequestDigest(req request, segment string) ([]byte, error) {
	if len(req.data) < checkedDigestLen {
		return nil, errors.New("checked request missing digest")
	}
	want := binary.LittleEndian.Uint32(req.data)
	payload := req.data[checkedDigestLen:]
	if got := checksum.CRC32(payload); got != want {
		s.bd.Inc(stats.CounterHopsRejected)
		return nil, &integrity.CorruptError{Hop: "service.request", Segment: segment, Want: want, Got: got}
	}
	return payload, nil
}

// prependDigest builds a checked response body: the source-computed CRC
// (MsgCRC from the library, not recomputed at the wire) followed by the
// payload.
func prependDigest(crc uint32, payload []byte) []byte {
	body := make([]byte, checkedDigestLen, checkedDigestLen+len(payload))
	binary.LittleEndian.PutUint32(body, crc)
	return append(body, payload...)
}

// HealthBody renders the engine fault-domain status as the health
// endpoint's key=value text line. Exposed so cmd/pedald can log the same
// line at startup and drain.
func (s *Server) HealthBody() []byte {
	h := s.lib.EngineHealth()
	tb := s.lib.TotalBreakdown()
	replayed := tb.Count(stats.CounterJobsReplayed)
	// The integrity counters fold the library's detections (verified
	// compression, pipeline hops) with the daemon's own wire-hop
	// rejections — one line answers "has this daemon ever seen silent
	// data corruption".
	// Overload fault-domain counters: pool budget occupancy, pressure
	// sheds, deadline-abandoned work, and brownout ladder steps — one
	// line answers "is this daemon shedding load and why".
	snap := s.lib.PoolSnapshot()
	return []byte(fmt.Sprintf(
		"state=%s inflight=%d stalls=%d wedges=%d resets=%d reset_failures=%d expired_dropped=%d lost_jobs=%d jobs_replayed=%d verify_mismatches=%d hops_rejected=%d cores_quarantined=%d scalar_fallbacks=%d pool_held=%d pool_peak=%d pool_budget=%d mem_pressure=%d deadline_abandoned=%d brownouts=%d brownout_rung=%d",
		h.State, h.Inflight, h.Stalls, h.Wedges, h.Resets, h.ResetFailures,
		h.ExpiredDropped, h.LostJobs, replayed,
		tb.Count(stats.CounterVerifyMismatches),
		tb.Count(stats.CounterHopsRejected)+s.bd.Count(stats.CounterHopsRejected),
		tb.Count(stats.CounterCoresQuarantined),
		tb.Count(stats.CounterScalarFallbacks),
		snap.HeldBytes, snap.PeakBytes, snap.Budget,
		snap.PressureRejects+s.bd.Count(stats.CounterMemPressure),
		tb.Count(stats.CounterDeadlineAbandoned)+s.bd.Count(stats.CounterDeadlineAbandoned),
		s.bd.Count(stats.CounterBrownouts), s.rung.Load()))
}
