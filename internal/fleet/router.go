package fleet

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pedal/internal/core"
	"pedal/internal/dpu"
	"pedal/internal/faults"
	"pedal/internal/hwmodel"
	"pedal/internal/integrity"
	"pedal/internal/service"
	"pedal/internal/stats"
	"pedal/internal/trace"
)

// Backend is one shard's client surface. *service.Client implements it;
// tests substitute in-memory fakes.
type Backend interface {
	Compress(d core.Design, dt core.DataType, data []byte) ([]byte, error)
	Decompress(engine hwmodel.Engine, dt core.DataType, msg []byte, maxOut int) ([]byte, error)
	Health() (service.Health, error)
	Ping() error
	Close() error
}

// CheckedBackend is the optional hop-carried-checksum extension of
// Backend: both directions of the shard hop carry a CRC digest and a
// mismatch surfaces as a typed integrity.ErrCorrupt. *service.Client
// implements it. Backends without it fall back to the unchecked calls.
type CheckedBackend interface {
	CompressChecked(d core.Design, dt core.DataType, data []byte) ([]byte, error)
	DecompressChecked(engine hwmodel.Engine, dt core.DataType, msg []byte, maxOut int) ([]byte, error)
}

// Class is a request priority class. Overload sheds best-effort first:
// gold requests are never load-shed by the router, are spread across
// replicas when a shard answers busy, and are the only class hedged
// (hedging buys tail latency with duplicate work — a budget reserved
// for traffic that paid for it).
type Class uint8

const (
	// BestEffort is load-shed first under overload, with a typed busy
	// error carrying a Retry-After hint.
	BestEffort Class = iota
	// Gold is the protected class: failover, busy-retry across replicas,
	// and latency-percentile hedging keep it alive through single-shard
	// failures.
	Gold
)

func (c Class) String() string {
	if c == Gold {
		return "gold"
	}
	return "best-effort"
}

// Request carries the routing metadata of one fleet operation.
type Request struct {
	// Tenant names the quota bucket; empty means unmetered.
	Tenant string
	// Key selects the shard via consistent hashing (typically
	// tenant+object key, so one tenant's objects spread but each object
	// is served with affinity).
	Key string
	// Class is the priority class.
	Class Class
	// Idempotent marks the request safe to re-execute: eligible for
	// failover to another shard and (gold only) hedging. Compression and
	// decompression are idempotent; callers doing stateful operations
	// must leave this false.
	Idempotent bool
}

// ErrNoShards reports that no live shard is available to route to.
var ErrNoShards = errors.New("fleet: no live shards")

// ShedError is a router-side load shed: the primary shard for the key
// is saturated and the request's class does not entitle it to queue.
// errors.Is(err, service.ErrBusy) matches it, and the Retry-After hint
// travels via service.RetryAfter.
type ShedError struct {
	Shard      string
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("fleet: shard %s saturated, best-effort shed (retry after %v)", e.Shard, e.RetryAfter)
}

// Is makes every router shed satisfy errors.Is(err, service.ErrBusy).
func (e *ShedError) Is(target error) bool { return target == service.ErrBusy }

// RetryAfterDuration exposes the hint to service.RetryAfter.
func (e *ShedError) RetryAfterDuration() time.Duration { return e.RetryAfter }

// QuotaError is a per-tenant quota rejection: the tenant already has its
// full in-flight allowance running. Like ShedError it matches ErrBusy
// and carries a Retry-After hint.
type QuotaError struct {
	Tenant     string
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("fleet: tenant %q over quota (retry after %v)", e.Tenant, e.RetryAfter)
}

// Is makes quota rejections satisfy errors.Is(err, service.ErrBusy).
func (e *QuotaError) Is(target error) bool { return target == service.ErrBusy }

// RetryAfterDuration exposes the hint to service.RetryAfter.
func (e *QuotaError) RetryAfterDuration() time.Duration { return e.RetryAfter }

// Config tunes the router. The zero value is serviceable: 64 vnodes,
// bounded load c=1.25, 2 failover attempts, adaptive hedging off until
// HedgeQuantile is set, no quotas, health thresholds at 3 strikes.
type Config struct {
	// Replicas is the virtual-node count per shard; zero means
	// DefaultReplicas.
	Replicas int
	// LoadFactor is the bounded-load factor c: a shard whose in-flight
	// count exceeds ceil(c·(total+1)/live) is skipped as primary and its
	// keys spill to ring successors. Zero means 1.25; negative disables
	// bounded load.
	LoadFactor float64

	// FailoverAttempts is how many additional shards an idempotent
	// request may try after the primary fails with a peer-class error.
	// Zero means 2; negative disables failover.
	FailoverAttempts int
	// HedgeQuantile arms adaptive hedging for gold idempotent requests:
	// when the primary has not answered within this quantile of recent
	// fleet latency, a second attempt is launched on the next shard and
	// the first completion wins. Zero disables adaptive hedging.
	HedgeQuantile float64
	// HedgeDelay, when positive, is a fixed hedge delay overriding the
	// quantile estimate (deterministic tests).
	HedgeDelay time.Duration
	// HedgeMinDelay/HedgeMaxDelay clamp the adaptive delay; zero means
	// 1ms / 250ms. HedgeMinSamples gates hedging until the latency
	// window has that many observations (zero means 16).
	HedgeMinDelay   time.Duration
	HedgeMaxDelay   time.Duration
	HedgeMinSamples int

	// ShardCapacity bounds router-side in-flight per shard: best-effort
	// requests whose primary is at capacity are shed immediately with a
	// Retry-After hint. Zero means unlimited. Gold is never load-shed by
	// the router (the daemons' own admission still bounds it).
	ShardCapacity int
	// DefaultTenantQuota caps a tenant's in-flight requests; zero means
	// unlimited. TenantQuotas overrides per tenant (values <= 0 mean
	// unlimited for that tenant).
	DefaultTenantQuota int
	TenantQuotas       map[string]int
	// GoldBusyRetries re-runs the whole routing sequence (with jittered
	// backoff honoring Retry-After) when a gold request is shed by every
	// candidate. Zero means 3; negative disables.
	GoldBusyRetries int
	// RetryAfterHint is carried on router-side sheds; zero means 2ms.
	RetryAfterHint time.Duration

	// EjectAfter is the consecutive-failure streak (data path or probe)
	// that ejects a shard from routing; zero means 3. ReadmitAfter is
	// the half-open probe success streak that readmits it; zero means 1.
	EjectAfter   int
	ReadmitAfter int
	// ProbeTimeout bounds one health-plane probe (dial + ping + health);
	// zero means 250ms.
	ProbeTimeout time.Duration
	// DegradeAfter treats successful requests slower than this as
	// evidence of a degraded shard: EjectAfter consecutive slow answers
	// eject it just like hard failures. Zero disables.
	DegradeAfter time.Duration

	// RequestTimeout bounds each shard attempt; zero means 5s.
	RequestTimeout time.Duration
	// RequestBudget bounds one whole routed operation end to end —
	// every failover, hedge, and gold busy-retry draws from the same
	// budget, so a request cannot outlive its caller's patience by
	// retrying. Zero means 4× RequestTimeout; negative disables the
	// end-to-end deadline (classic unbounded retries).
	RequestBudget time.Duration
	// Dial opens a connection to a shard address with the given
	// round-trip timeout. Nil uses service.DialTimeout.
	Dial func(addr string, timeout time.Duration) (Backend, error)
	// Tracer, when set, records routing decisions (sheds, failovers,
	// hedges, ejections, drains) under Engine "fleet".
	Tracer *trace.Tracer
	// Seed seeds the backoff-jitter PRNG; zero selects the fixed
	// default (deterministic either way).
	Seed uint64
}

func (c *Config) replicas() int {
	if c.Replicas <= 0 {
		return DefaultReplicas
	}
	return c.Replicas
}

func (c *Config) loadFactor() float64 {
	if c.LoadFactor == 0 {
		return 1.25
	}
	return c.LoadFactor
}

func (c *Config) failoverAttempts() int {
	if c.FailoverAttempts == 0 {
		return 2
	}
	if c.FailoverAttempts < 0 {
		return 0
	}
	return c.FailoverAttempts
}

func (c *Config) goldBusyRetries() int {
	if c.GoldBusyRetries == 0 {
		return 3
	}
	if c.GoldBusyRetries < 0 {
		return 0
	}
	return c.GoldBusyRetries
}

func (c *Config) retryAfterHint() time.Duration {
	if c.RetryAfterHint <= 0 {
		return 2 * time.Millisecond
	}
	return c.RetryAfterHint
}

func (c *Config) ejectAfter() int {
	if c.EjectAfter <= 0 {
		return 3
	}
	return c.EjectAfter
}

func (c *Config) readmitAfter() int {
	if c.ReadmitAfter <= 0 {
		return 1
	}
	return c.ReadmitAfter
}

func (c *Config) probeTimeout() time.Duration {
	if c.ProbeTimeout <= 0 {
		return 250 * time.Millisecond
	}
	return c.ProbeTimeout
}

func (c *Config) requestTimeout() time.Duration {
	if c.RequestTimeout <= 0 {
		return 5 * time.Second
	}
	return c.RequestTimeout
}

func (c *Config) requestBudget() time.Duration {
	if c.RequestBudget < 0 {
		return 0
	}
	if c.RequestBudget == 0 {
		return 4 * c.requestTimeout()
	}
	return c.RequestBudget
}

func (c *Config) hedgeMinSamples() int {
	if c.HedgeMinSamples <= 0 {
		return 16
	}
	return c.HedgeMinSamples
}

func (c *Config) hedgeClamp(d time.Duration) time.Duration {
	lo, hi := c.HedgeMinDelay, c.HedgeMaxDelay
	if lo <= 0 {
		lo = time.Millisecond
	}
	if hi <= 0 {
		hi = 250 * time.Millisecond
	}
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

// shardState is a shard's health-plane state. Only live shards receive
// new requests; the ring itself is membership-stable, so state flips
// never reshuffle unrelated keys.
type shardState uint8

const (
	stateLive shardState = iota
	stateEjected
	stateDraining
	stateDrained
)

func (s shardState) String() string {
	switch s {
	case stateLive:
		return "live"
	case stateEjected:
		return "ejected"
	case stateDraining:
		return "draining"
	default:
		return "drained"
	}
}

// Shard is one pedald instance under the router.
type Shard struct {
	ID   string
	Addr string

	// inflight counts router-side attempts currently running against
	// this shard (bounded-load input and drain barrier).
	inflight atomic.Int64

	connMu sync.Mutex
	conn   Backend

	// Guarded by Router.mu:
	state         shardState
	failStreak    int    // consecutive peer-class failures (data path + probes)
	slowStreak    int    // consecutive over-DegradeAfter successes
	corruptStreak int    // consecutive checksum-mismatch answers
	okProbes      int    // consecutive half-open probe successes while ejected
	engine        string // last engine fault-domain state reported by Health
	lastErr       string
}

// backend returns the shard's connection, dialing lazily.
func (s *Shard) backend(dial func(string, time.Duration) (Backend, error), timeout time.Duration) (Backend, error) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.conn == nil {
		be, err := dial(s.Addr, timeout)
		if err != nil {
			return nil, err
		}
		s.conn = be
	}
	return s.conn, nil
}

// recycle discards the connection: a timed-out or broken stream is
// desynchronised and must never carry another request.
func (s *Shard) recycle() {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
}

// Router maps requests onto a fleet of shards with the resilience
// contract described in the package comment. Safe for concurrent use.
type Router struct {
	cfg Config
	bd  *stats.Breakdown
	lat *latWindow

	mu         sync.Mutex
	shards     map[string]*Shard
	order      []string
	ring       *hashRing
	tenantLoad map[string]int
	rng        *faults.Rand

	pollMu   sync.Mutex
	pollStop chan struct{}
	pollDone chan struct{}
}

// NewRouter builds a router; add shards with AddShard before routing.
func NewRouter(cfg Config) *Router {
	if cfg.Dial == nil {
		cfg.Dial = func(addr string, timeout time.Duration) (Backend, error) {
			cl, err := service.DialTimeout(addr, timeout)
			if err != nil {
				return nil, err
			}
			cl.Timeout = timeout
			return cl, nil
		}
	}
	return &Router{
		cfg:        cfg,
		bd:         stats.NewBreakdown(),
		lat:        newLatWindow(0),
		shards:     make(map[string]*Shard),
		tenantLoad: make(map[string]int),
		rng:        faults.NewRand(cfg.Seed),
	}
}

// Stats exposes the router's shed/failover/hedge/health counters and
// the virtual time charged to hedge waits and busy backoff.
func (r *Router) Stats() *stats.Breakdown { return r.bd }

// AddShard registers a shard and rebuilds the ring. Adding an existing
// id is a no-op.
func (r *Router) AddShard(id, addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.shards[id]; ok {
		return
	}
	r.shards[id] = &Shard{ID: id, Addr: addr, state: stateLive}
	r.rebuildRingLocked()
	r.traceLocked("join", id, "")
}

func (r *Router) rebuildRingLocked() {
	ids := make([]string, 0, len(r.shards))
	for id := range r.shards {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	r.order = ids
	r.ring = newRing(ids, r.cfg.replicas())
}

// Close stops the health poll loop and closes every shard connection.
func (r *Router) Close() {
	r.Stop()
	r.mu.Lock()
	shards := make([]*Shard, 0, len(r.shards))
	for _, s := range r.shards {
		shards = append(shards, s)
	}
	r.mu.Unlock()
	for _, s := range shards {
		s.recycle()
	}
}

// Primary returns the shard id a key currently routes to first, or ""
// when no live shard exists. Exposed for operational tooling and tests.
func (r *Router) Primary(key string) string {
	c := r.candidates(key)
	if len(c) == 0 {
		return ""
	}
	return c[0].ID
}

// Compress routes a compression request through the fleet.
func (r *Router) Compress(req Request, d core.Design, dt core.DataType, data []byte) ([]byte, error) {
	return r.do(req, func(be Backend) ([]byte, error) { return be.Compress(d, dt, data) })
}

// Decompress routes a decompression request through the fleet.
func (r *Router) Decompress(req Request, engine hwmodel.Engine, dt core.DataType, msg []byte, maxOut int) ([]byte, error) {
	return r.do(req, func(be Backend) ([]byte, error) { return be.Decompress(engine, dt, msg, maxOut) })
}

// CompressChecked routes a compression request with hop-carried
// checksums on both directions of the shard hop. A digest mismatch is a
// typed integrity error: idempotent requests fail over to another shard
// (the corruption is shard- or path-local, not deterministic), and a
// shard producing ejectAfter consecutive corrupt answers is quarantined
// from routing until the health plane's half-open probes readmit it.
func (r *Router) CompressChecked(req Request, d core.Design, dt core.DataType, data []byte) ([]byte, error) {
	return r.do(req, func(be Backend) ([]byte, error) {
		if cb, ok := be.(CheckedBackend); ok {
			return cb.CompressChecked(d, dt, data)
		}
		return be.Compress(d, dt, data)
	})
}

// DecompressChecked routes a decompression request with hop-carried
// checksums (see CompressChecked).
func (r *Router) DecompressChecked(req Request, engine hwmodel.Engine, dt core.DataType, msg []byte, maxOut int) ([]byte, error) {
	return r.do(req, func(be Backend) ([]byte, error) {
		if cb, ok := be.(CheckedBackend); ok {
			return cb.DecompressChecked(engine, dt, msg, maxOut)
		}
		return be.Decompress(engine, dt, msg, maxOut)
	})
}

// do applies tenant admission, then runs the routing sequence; gold
// requests shed busy by every candidate re-run it after a jittered
// backoff that honors the Retry-After hint. One end-to-end budget
// (RequestBudget) covers the whole sequence: busy-retries, failovers,
// and hedges all inherit what remains of it, and exhaustion surfaces
// as a typed deadline error rather than a sleep past the caller's
// patience.
func (r *Router) do(req Request, op func(Backend) ([]byte, error)) ([]byte, error) {
	release, err := r.admitTenant(req.Tenant)
	if err != nil {
		return nil, err
	}
	defer release()
	var overall time.Time
	if budget := r.cfg.requestBudget(); budget > 0 {
		overall = time.Now().Add(budget)
	}
	for attempt := 0; ; attempt++ {
		body, err := r.doOnce(req, op, overall)
		if err == nil || req.Class != Gold || attempt >= r.cfg.goldBusyRetries() || !errors.Is(err, service.ErrBusy) {
			return body, err
		}
		d := r.busyBackoff(attempt, err)
		if !overall.IsZero() && d >= time.Until(overall) {
			// Sleeping through the backoff would overrun the request's
			// end-to-end budget: abandon the retry sequence, typed.
			r.bd.Inc(stats.CounterDeadlineAbandoned)
			r.trace("deadline_abandoned", req.Key, err.Error())
			return nil, &service.DeadlineError{
				RetryAfter: service.RetryAfter(err),
				Msg:        fmt.Sprintf("fleet: busy-retry backoff %v overruns the request budget", d),
			}
		}
		r.bd.Add(stats.PhaseRetry, d)
		time.Sleep(d)
	}
}

// busyBackoff is the delay before a gold busy-retry: jittered
// exponential backoff, floored by the server's Retry-After hint.
func (r *Router) busyBackoff(attempt int, err error) time.Duration {
	r.mu.Lock()
	d := faults.Backoff(attempt, time.Millisecond, 20*time.Millisecond, r.rng)
	if hint := service.RetryAfter(err); hint > 0 && hint > d {
		d = hint + time.Duration(r.rng.Float64()*float64(hint/2))
	}
	r.mu.Unlock()
	return d
}

// launchKind distinguishes why an attempt was started, for accounting.
type launchKind uint8

const (
	launchPrimary launchKind = iota
	launchFailover
	launchHedge
)

type attemptResult struct {
	body  []byte
	err   error
	kind  launchKind
	shard *Shard
}

// errClass buckets a shard error for the routing policy.
type errClass uint8

const (
	// errClassPeer: the shard is unreachable or unresponsive (dial
	// failure, ErrPeerDead, broken or timed-out stream). Failover-eligible
	// and counted toward ejection.
	errClassPeer errClass = iota
	// errClassBusy: the shard answered — it is alive but saturated.
	errClassBusy
	// errClassRemote: the shard executed the request and returned an
	// application error; another shard would compute the same answer.
	errClassRemote
	// errClassCorrupt: a hop-carried checksum caught damaged bytes on
	// this shard's path. Unlike errClassRemote the answer is not
	// deterministic — another shard (or even a retry) would produce clean
	// bytes — so corrupt answers are failover-eligible, and repeated ones
	// quarantine the shard.
	errClassCorrupt
)

func classify(err error) errClass {
	switch {
	case errors.Is(err, integrity.ErrCorrupt):
		return errClassCorrupt
	case errors.Is(err, service.ErrBusy):
		return errClassBusy
	case errors.Is(err, dpu.ErrDeadline):
		// The shard answered but abandoned the work at its deadline — it
		// is alive and overloaded, exactly like a busy shed: no ejection
		// streak, and gold idempotent requests may fail over to a shard
		// with more headroom.
		return errClassBusy
	case errors.Is(err, service.ErrRemote):
		return errClassRemote
	default:
		return errClassPeer
	}
}

// doOnce runs one pass over the candidate sequence: primary attempt,
// optional hedge after the latency-percentile delay, failover on
// peer-class errors (and on busy, for gold), first success wins.
// Failovers and hedges are only launched while the end-to-end budget
// (overall; zero time = unbounded) has time remaining — a duplicate
// attempt the caller can no longer wait for is wasted shard work.
func (r *Router) doOnce(req Request, op func(Backend) ([]byte, error), overall time.Time) ([]byte, error) {
	cands := r.candidates(req.Key)
	if len(cands) == 0 {
		return nil, ErrNoShards
	}
	primary := cands[0]

	// Priority load shedding: a saturated primary sheds best-effort
	// immediately and explicitly; gold proceeds into the daemons' own
	// admission queues.
	if req.Class == BestEffort && r.cfg.ShardCapacity > 0 &&
		int(primary.inflight.Load()) >= r.cfg.ShardCapacity {
		r.bd.Inc(stats.CounterFleetSheds)
		r.trace("shed", primary.ID, "saturated")
		return nil, &ShedError{Shard: primary.ID, RetryAfter: r.cfg.retryAfterHint()}
	}

	maxAttempts := 1
	if req.Idempotent {
		maxAttempts += r.cfg.failoverAttempts()
	}
	if maxAttempts > len(cands) {
		maxAttempts = len(cands)
	}
	results := make(chan attemptResult, maxAttempts)
	launch := func(s *Shard, kind launchKind) {
		s.inflight.Add(1)
		go func() {
			start := time.Now()
			body, err := r.callShard(s, op)
			s.inflight.Add(-1)
			r.recordOutcome(s, err, time.Since(start))
			results <- attemptResult{body: body, err: err, kind: kind, shard: s}
		}()
	}
	launch(primary, launchPrimary)
	launched, next, outstanding := 1, 1, 1

	var hedgeTimer <-chan time.Time
	var hedgeDelay time.Duration
	if req.Idempotent && req.Class == Gold && launched < maxAttempts {
		if d, ok := r.hedgeDelay(); ok && (overall.IsZero() || time.Until(overall) > d) {
			hedgeDelay = d
			hedgeTimer = time.After(d)
		}
	}

	var firstErr error
	for outstanding > 0 {
		select {
		case res := <-results:
			outstanding--
			if res.err == nil {
				if res.kind == launchHedge {
					r.bd.Inc(stats.CounterHedgeWins)
					r.trace("hedge_win", res.shard.ID, "")
				}
				return res.body, nil
			}
			if firstErr == nil {
				firstErr = res.err
			}
			class := classify(res.err)
			if class == errClassRemote {
				// Deterministic application error — re-executing
				// elsewhere would fail identically.
				return nil, res.err
			}
			canFailover := req.Idempotent && launched < maxAttempts && next < len(cands)
			if class == errClassBusy && req.Class != Gold {
				// A best-effort shed stands; the caller backs off.
				canFailover = false
			}
			if canFailover && !overall.IsZero() && time.Until(overall) <= 0 {
				// Budget exhausted: a failover attempt could not finish
				// in time the caller still has.
				r.bd.Inc(stats.CounterDeadlineAbandoned)
				r.trace("deadline_abandoned", res.shard.ID, "failover budget exhausted")
				canFailover = false
			}
			if canFailover {
				r.bd.Inc(stats.CounterFailovers)
				r.trace("failover", cands[next].ID, res.err.Error())
				launch(cands[next], launchFailover)
				next++
				launched++
				outstanding++
			}
		case <-hedgeTimer:
			hedgeTimer = nil
			if launched < maxAttempts && next < len(cands) {
				r.bd.Inc(stats.CounterHedges)
				// The wait that justified the hedge is charged as
				// virtual time, like retry backoff in the engine layer.
				r.bd.Add(stats.PhaseHedgeWait, hedgeDelay)
				r.trace("hedge", cands[next].ID, "")
				launch(cands[next], launchHedge)
				next++
				launched++
				outstanding++
			}
		}
	}
	return nil, firstErr
}

// callShard runs op against the shard's (lazily dialed) connection.
func (r *Router) callShard(s *Shard, op func(Backend) ([]byte, error)) ([]byte, error) {
	be, err := s.backend(r.cfg.Dial, r.cfg.requestTimeout())
	if err != nil {
		return nil, err
	}
	return op(be)
}

// candidates returns the live shards for a key in attempt order:
// bounded-load-adjusted primary first, then the ring successors.
func (r *Router) candidates(key string) []*Shard {
	r.mu.Lock()
	defer r.mu.Unlock()
	seq := r.ring.sequence(key)
	live := make([]*Shard, 0, len(seq))
	for _, id := range seq {
		if s := r.shards[id]; s != nil && s.state == stateLive {
			live = append(live, s)
		}
	}
	c := r.cfg.loadFactor()
	if len(live) < 2 || c <= 0 {
		return live
	}
	var total int64
	for _, s := range live {
		total += s.inflight.Load()
	}
	bound := int64(math.Ceil(c * float64(total+1) / float64(len(live))))
	for i, s := range live {
		if s.inflight.Load() < bound {
			if i == 0 {
				return live
			}
			out := make([]*Shard, 0, len(live))
			out = append(out, s)
			out = append(out, live[:i]...)
			out = append(out, live[i+1:]...)
			return out
		}
	}
	return live
}

// admitTenant claims one in-flight slot of the tenant's quota. The
// release func is idempotent.
func (r *Router) admitTenant(tenant string) (func(), error) {
	quota := r.quotaFor(tenant)
	if quota <= 0 {
		return func() {}, nil
	}
	r.mu.Lock()
	if r.tenantLoad[tenant] >= quota {
		r.mu.Unlock()
		r.bd.Inc(stats.CounterQuotaSheds)
		r.trace("quota_shed", tenant, "")
		return nil, &QuotaError{Tenant: tenant, RetryAfter: r.cfg.retryAfterHint()}
	}
	r.tenantLoad[tenant]++
	r.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			r.mu.Lock()
			r.tenantLoad[tenant]--
			r.mu.Unlock()
		})
	}, nil
}

func (r *Router) quotaFor(tenant string) int {
	if tenant == "" {
		return 0
	}
	if q, ok := r.cfg.TenantQuotas[tenant]; ok {
		return q
	}
	return r.cfg.DefaultTenantQuota
}

// hedgeDelay resolves the current hedge trigger delay, or false when
// hedging is disabled or the latency window is still warming up.
func (r *Router) hedgeDelay() (time.Duration, bool) {
	if r.cfg.HedgeDelay > 0 {
		return r.cfg.HedgeDelay, true
	}
	if r.cfg.HedgeQuantile <= 0 {
		return 0, false
	}
	if r.lat.size() < r.cfg.hedgeMinSamples() {
		return 0, false
	}
	return r.cfg.hedgeClamp(r.lat.quantile(r.cfg.HedgeQuantile)), true
}

// recordOutcome feeds one attempt's result into the health view: peer
// failures build the ejection streak (and poison the connection), slow
// successes build the degraded streak, clean successes reset both and
// feed the hedge latency estimator.
func (r *Router) recordOutcome(s *Shard, err error, lat time.Duration) {
	if err == nil {
		r.lat.add(lat)
		r.mu.Lock()
		s.failStreak = 0
		s.corruptStreak = 0
		if r.cfg.DegradeAfter > 0 && lat > r.cfg.DegradeAfter {
			s.slowStreak++
			if s.slowStreak >= r.cfg.ejectAfter() {
				r.ejectLocked(s, fmt.Sprintf("degraded: %v per request", lat.Round(time.Millisecond)))
			}
		} else {
			s.slowStreak = 0
		}
		r.mu.Unlock()
		return
	}
	switch classify(err) {
	case errClassBusy, errClassRemote:
		return // the daemon answered; it is alive
	case errClassCorrupt:
		// The shard answered with damaged bytes. The stream itself is
		// intact (the frame was read in full before the digest check), so
		// the connection survives — but the answer counts toward a
		// quarantine streak: a core flipping bits keeps flipping them.
		r.bd.Inc(stats.CounterHopsRejected)
		r.mu.Lock()
		s.corruptStreak++
		s.lastErr = err.Error()
		if s.corruptStreak >= r.cfg.ejectAfter() {
			r.bd.Inc(stats.CounterCoresQuarantined)
			r.ejectLocked(s, "corrupt: "+err.Error())
		}
		r.mu.Unlock()
		return
	}
	s.recycle()
	r.mu.Lock()
	s.failStreak++
	s.lastErr = err.Error()
	if s.failStreak >= r.cfg.ejectAfter() {
		r.ejectLocked(s, err.Error())
	}
	r.mu.Unlock()
}

// ejectLocked removes a live shard from routing. Caller holds r.mu.
func (r *Router) ejectLocked(s *Shard, reason string) {
	if s.state != stateLive {
		return
	}
	s.state = stateEjected
	s.okProbes = 0
	r.bd.Inc(stats.CounterShardEjects)
	r.traceLocked("eject", s.ID, reason)
}

// readmitLocked returns an ejected shard to routing. Caller holds r.mu.
func (r *Router) readmitLocked(s *Shard) {
	if s.state != stateEjected {
		return
	}
	s.state = stateLive
	s.failStreak, s.slowStreak, s.corruptStreak, s.okProbes = 0, 0, 0, 0
	s.lastErr = ""
	r.bd.Inc(stats.CounterShardReadmits)
	r.traceLocked("readmit", s.ID, "")
	go s.recycle() // force a fresh dial; the old conn predates the outage
}

// trace records a fleet routing event (Algo carries the shard/tenant).
func (r *Router) trace(op, who, errText string) {
	r.cfg.Tracer.Record(trace.Event{Engine: "fleet", Op: op, Algo: who, Err: errText})
}

// traceLocked is trace for call sites holding r.mu (the tracer has its
// own lock; this exists only to document the convention).
func (r *Router) traceLocked(op, who, errText string) { r.trace(op, who, errText) }
