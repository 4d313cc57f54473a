package mpi

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pedal/internal/stats"
)

// Process fault domain: a heartbeat failure detector plus ULFM-style
// recovery. Every rank beats a world-shared detector; a monitor declares
// a rank dead once its heartbeat goes stale past the suspicion timeout.
// Liveness (did the process beat recently?) runs on the wall clock — a
// crashed goroutine stops in real time, not virtual time — while each
// beat is stamped with the rank's virtual clock so experiments can
// relate failure points to the simulated timeline.
//
// Once a rank is declared dead it stays dead: beats from it are ignored
// (zombie fencing), so a process that un-hangs after the timeout — the
// RankRestart fault class — can never rejoin the old world. Survivors
// observe ErrRankFailed from any blocked or new operation, agree on a
// dense surviving group via Shrink, and re-run interrupted work on the
// new epoch; the epoch filter in the envelope protocol drops the old
// attempt's leftovers, which is what makes the re-run idempotent.

// Errors of the process fault domain.
var (
	// ErrRankFailed reports that a peer rank was declared failed by the
	// heartbeat detector (or that this rank itself was fenced). Every
	// concrete failure is a *RankFailedError, which unwraps to this
	// sentinel; recover by calling Shrink on every survivor and
	// re-running the operation on the shrunk communicator.
	ErrRankFailed = errors.New("mpi: rank failed")
	// ErrDeadline reports a blocking operation that exceeded
	// WorldOptions.OpDeadline without the awaited frame arriving.
	ErrDeadline = errors.New("mpi: operation deadline exceeded")
)

// RankFailedError carries the identity of a detected process failure.
type RankFailedError struct {
	// Rank is the world rank of the failed process, or -1 when the
	// failure surfaces only as a communicator revocation.
	Rank int
	// Revoked marks errors raised because some member of the current
	// group died, revoking the communicator as a whole — the operation
	// was aborted even if its direct peer is alive, because the
	// collective's tree may route through the dead rank.
	Revoked bool
	// Fenced marks the error returned to a zombie: this rank itself was
	// declared dead (a hang outlasted the suspicion timeout) and has
	// been fenced out of the world.
	Fenced bool
}

func (e *RankFailedError) Error() string {
	switch {
	case e.Fenced:
		return fmt.Sprintf("mpi: rank %d fenced: declared failed by the world", e.Rank)
	case e.Revoked && e.Rank >= 0:
		return fmt.Sprintf("mpi: communicator revoked: rank %d failed", e.Rank)
	case e.Revoked:
		return "mpi: communicator revoked by a rank failure"
	default:
		return fmt.Sprintf("mpi: rank %d failed", e.Rank)
	}
}

// Unwrap lets errors.Is(err, ErrRankFailed) match every failure shape.
func (e *RankFailedError) Unwrap() error { return ErrRankFailed }

// DetectorConfig tunes the heartbeat failure detector. The timing
// budget: a crash is declared within SuspectAfter (+ one Interval of
// scan jitter) of the last heartbeat, so worst-case detection latency is
// SuspectAfter + Interval of wall time.
type DetectorConfig struct {
	// Interval is the heartbeat period and the monitor scan period;
	// zero means 2ms.
	Interval time.Duration
	// SuspectAfter is the heartbeat staleness that declares a rank
	// dead; zero means 8×Interval. It must exceed worst-case scheduler
	// jitter for the heartbeat goroutines or healthy ranks get fenced.
	SuspectAfter time.Duration
	// ShrinkTimeout bounds the Shrink agreement round; zero means 5s.
	ShrinkTimeout time.Duration
	// PollInterval is the sleep between transport polls while a
	// blocking wait watches for revocation; zero means 200µs.
	PollInterval time.Duration
}

func (cfg DetectorConfig) withDefaults() DetectorConfig {
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Millisecond
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 8 * cfg.Interval
	}
	if cfg.ShrinkTimeout <= 0 {
		cfg.ShrinkTimeout = 5 * time.Second
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 200 * time.Microsecond
	}
	return cfg
}

// detector is the world-shared failure detector. Ranks beat it directly
// (method call, not a wire frame: n² heartbeat frames would swamp the
// small test fabrics, and real MPI failure detectors also run on a side
// channel distinct from the message path).
type detector struct {
	cfg DetectorConfig

	mu        sync.Mutex
	last      []time.Time     // wall-clock time of each rank's last beat
	virt      []time.Duration // virtual-clock stamp of each rank's last beat
	dead      []bool
	deadCount int
	refs      int  // live Comm handles; the monitor stops at zero
	armed     bool // monitor running; set by arm after world construction

	stopCh chan struct{}
	done   chan struct{}
}

// newDetector builds the shared detector without starting the monitor:
// ranks register their heartbeats during world construction, which can
// legitimately take longer than SuspectAfter (DOCA init alone costs
// hundreds of milliseconds per rank on real BlueFields), and a monitor
// scanning mid-construction would fence healthy ranks whose heartbeat
// goroutines simply have not started yet. arm starts the scan once the
// world is fully built.
func newDetector(n int, cfg DetectorConfig) *detector {
	d := &detector{
		cfg:    cfg,
		last:   make([]time.Time, n),
		virt:   make([]time.Duration, n),
		dead:   make([]bool, n),
		refs:   n,
		stopCh: make(chan struct{}),
		done:   make(chan struct{}),
	}
	now := time.Now()
	for i := range d.last {
		d.last[i] = now
	}
	return d
}

// arm stamps every rank live as of now and starts the staleness monitor.
// Called exactly once, after every rank's heartbeat goroutine is running,
// so construction time never counts against the suspicion budget.
func (d *detector) arm() {
	d.mu.Lock()
	now := time.Now()
	for i := range d.last {
		d.last[i] = now
	}
	d.armed = true
	d.mu.Unlock()
	go d.monitor()
}

// monitor scans heartbeat staleness every Interval and declares deaths.
func (d *detector) monitor() {
	defer close(d.done)
	t := time.NewTicker(d.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-d.stopCh:
			return
		case <-t.C:
			now := time.Now()
			d.mu.Lock()
			for r := range d.last {
				if !d.dead[r] && now.Sub(d.last[r]) > d.cfg.SuspectAfter {
					d.dead[r] = true
					d.deadCount++
				}
			}
			d.mu.Unlock()
		}
	}
}

// beat records a heartbeat from rank, stamped with the rank's virtual
// clock. Beats from dead ranks are ignored (fencing); the return value
// reports acceptance.
func (d *detector) beat(rank int, virt time.Duration) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dead[rank] {
		return false
	}
	d.last[rank] = time.Now()
	if virt > d.virt[rank] {
		d.virt[rank] = virt
	}
	return true
}

func (d *detector) isDead(rank int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return rank >= 0 && rank < len(d.dead) && d.dead[rank]
}

func (d *detector) anyDead() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.deadCount > 0
}

// firstDeadOf returns the first world rank in group that is dead.
func (d *detector) firstDeadOf(group []int) (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.deadCount == 0 {
		return -1, false
	}
	for _, w := range group {
		if w >= 0 && w < len(d.dead) && d.dead[w] {
			return w, true
		}
	}
	return -1, false
}

// aliveRanks returns the sorted world ranks not declared dead.
func (d *detector) aliveRanks() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]int, 0, len(d.dead)-d.deadCount)
	for r, dd := range d.dead {
		if !dd {
			out = append(out, r)
		}
	}
	return out
}

// deadRanks returns the sorted world ranks declared dead.
func (d *detector) deadRanks() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []int
	for r, dd := range d.dead {
		if dd {
			out = append(out, r)
		}
	}
	return out
}

// lastVirtual reports the virtual-clock stamp of rank's last accepted
// heartbeat: where on the simulated timeline the rank was last known
// alive.
func (d *detector) lastVirtual(rank int) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.virt[rank]
}

// release drops one Comm reference; the monitor stops with the last.
// A detector discarded before arm (world construction failed) has no
// monitor goroutine to stop.
func (d *detector) release() {
	d.mu.Lock()
	d.refs--
	last := d.refs == 0
	armed := d.armed
	d.mu.Unlock()
	if last && armed {
		close(d.stopCh)
		<-d.done
	}
}

// startHeartbeat launches the rank's heartbeat goroutine.
func (c *Comm) startHeartbeat() {
	c.hbStop = make(chan struct{})
	c.hbWG.Add(1)
	go func() {
		defer c.hbWG.Done()
		t := time.NewTicker(c.det.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-c.hbStop:
				return
			case <-t.C:
				if time.Now().UnixNano() < c.pauseUntil.Load() {
					continue // injected hang: the process is frozen
				}
				if c.det.beat(c.worldRank, c.clock.Now()) {
					c.bd.Inc(stats.CounterHeartbeats)
				} else {
					c.bd.Inc(stats.CounterFencedBeats)
				}
			}
		}
	}()
}

func (c *Comm) stopHeartbeat() {
	if c.hbStop == nil {
		return
	}
	c.hbOnce.Do(func() { close(c.hbStop) })
	c.hbWG.Wait()
}

// Kill crashes the rank (the RankCrash fault class): the heartbeat stops
// and the process goes silent, but its endpoint stays open — peers learn
// of the death only through the failure detector, exactly like a real
// process crash behind a still-routable NIC. Subsequent operations on
// the killed Comm return ErrClosed. Call it from the rank's own
// goroutine (a rank is single-threaded, like a real MPI process).
func (c *Comm) Kill() {
	if c.killed || c.closed {
		return
	}
	c.killed = true
	c.stopHeartbeat()
	c.failPending(&RankFailedError{Rank: c.worldRank})
}

// Hang freezes the rank's heartbeat for d (the RankHang / RankRestart
// fault classes). A pause under the detector's SuspectAfter is invisible;
// a longer one gets the rank declared dead and fenced, and when the
// process "restarts" its beats are ignored and its operations fail.
// Safe to call from any goroutine.
func (c *Comm) Hang(d time.Duration) {
	c.pauseUntil.Store(time.Now().Add(d).UnixNano())
}

// Fenced reports whether the world has declared this rank dead.
func (c *Comm) Fenced() bool {
	return c.det != nil && c.det.isDead(c.worldRank)
}

// liveness is the per-poll fault check inside every blocking wait:
// fencing first (a zombie must not keep operating), then the awaited
// peer, then whole-group revocation, then the optional wall-clock
// deadline. await is the awaited group rank, or AnySource; a zero start
// skips the deadline check (used for op-entry checks).
func (c *Comm) liveness(await int, start time.Time) error {
	if d := c.det; d != nil {
		if d.isDead(c.worldRank) {
			c.bd.Inc(stats.CounterRevocations)
			return &RankFailedError{Rank: c.worldRank, Fenced: true}
		}
		if await != AnySource && await >= 0 && await < len(c.group) {
			if w := c.group[await]; d.isDead(w) {
				c.bd.Inc(stats.CounterRevocations)
				return &RankFailedError{Rank: w}
			}
		}
		if w, any := d.firstDeadOf(c.group); any {
			c.bd.Inc(stats.CounterRevocations)
			return &RankFailedError{Rank: w, Revoked: true}
		}
		if c.pendingCommit != nil {
			// A peer already committed the next epoch without us noticing
			// a death locally; the communicator is revoked until Shrink
			// installs the commit.
			c.bd.Inc(stats.CounterRevocations)
			return &RankFailedError{Rank: -1, Revoked: true}
		}
	}
	if dl := c.opts.OpDeadline; dl > 0 && !start.IsZero() && time.Since(start) > dl {
		return fmt.Errorf("%w (%v)", ErrDeadline, dl)
	}
	return nil
}

// failPending completes every in-flight nonblocking request with err,
// releasing pooled compressed payloads so an aborted transfer leaks no
// mempool buffers.
func (c *Comm) failPending(err error) {
	for _, r := range c.pending {
		r.abortSend(err)
	}
}

// pollInterval returns the transport poll period for waiting loops.
func (c *Comm) pollInterval() time.Duration {
	if c.det != nil {
		return c.det.cfg.PollInterval
	}
	return 200 * time.Microsecond
}
