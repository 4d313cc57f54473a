// Package faults provides deterministic fault injection and generic
// resilience primitives for every fault domain of the simulated DPU.
//
// Real DOCA work queues report job failures through completion statuses:
// an engine can reject a submission (queue full), fail a job transiently
// (bus glitch, ECC retry), fail it persistently (engine wedged), stall
// (head-of-line hang), or — worst of all — complete "successfully" with
// corrupt output. The Injector reproduces these classes from a seeded
// PRNG so every failure schedule is replayable in tests; its network,
// disk and compute siblings do the same for frames, storage operations
// and kernel executions, and the rank, shard and overload schedules for
// whole units. All of them draw through one probability walk over one
// seeded stream, so one seed pins a whole schedule. The Breaker and
// Backoff helpers are the matching recovery machinery: the C-Engine runs
// its circuit breaker and its integrity quarantine as two Breakers.
package faults

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Class is the failure class injected into one job.
type Class uint8

// Failure classes.
const (
	// None leaves the job untouched.
	None Class = iota
	// Transient fails the job with a retryable error; an immediate
	// resubmission may succeed.
	Transient
	// Persistent fails the job with a hard error; retrying is futile
	// until the engine recovers.
	Persistent
	// Corrupt lets the job "succeed" but flips bits in its output, so
	// only checksum verification catches it.
	Corrupt
	// QueueFull rejects the job at submission time, modelling a busy
	// work queue (EAGAIN).
	QueueFull
	// Hang stalls the worker for Delay before executing, modelling a
	// latency spike that only a wait deadline can bound.
	Hang
	// Stall swallows the job: the engine accepts it and never completes
	// it, the way a firmware wedge loses a descriptor. Only a watchdog
	// tracking submit timestamps can recover the caller.
	Stall
	// Wedge freezes the engine's queue drain entirely: the job and
	// everything submitted behind it sit undrained until the engine is
	// hot-reset. This is the whole-engine failure mode of a wedged
	// firmware state machine.
	Wedge
	// ResetFail fails a hot-reset attempt (the firmware refuses to come
	// back); it is drawn per reset attempt via NextReset, never per job.
	ResetFail
)

// classNames is Class.String's one table: every failure domain's
// classes, engine to overload.
var classNames = map[Class]string{
	None: "none", Transient: "transient", Persistent: "persistent", Corrupt: "corrupt",
	QueueFull: "queue-full", Hang: "hang", Stall: "stall", Wedge: "wedge", ResetFail: "reset-fail",
	RankCrash: "rank-crash", RankHang: "rank-hang", RankRestart: "rank-restart",
	ShardCrash: "shard-crash", ShardStall: "shard-stall", ShardRestart: "shard-restart",
	DiskTear: "disk-tear", DiskRot: "disk-rot", DiskStall: "disk-stall", CrashMidCommit: "crash-mid-commit",
	KernelFlip: "kernel-flip", QuantDrift: "quant-drift", BufferStomp: "buffer-stomp",
	MemPressure: "mem-pressure", SlowConsumer: "slow-consumer", DeadlineStorm: "deadline-storm",
}

func (c Class) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// pick is the one probability walk every injector and schedule draws
// through: the probabilities ps are laid end to end from zero in order,
// and pick returns the index of the band u falls in, or -1 for the
// remainder (the no-fault case).
func pick(u float64, ps ...float64) int {
	for i, p := range ps {
		if u < p {
			return i
		}
		u -= p
	}
	return -1
}

// stream is the event-stream core the four injectors embed: one lock,
// one seeded Rand, the seen/injected counts and the MaxInjections budget.
type stream struct {
	mu       sync.Mutex
	rng      Rand
	max      int
	seen     uint64
	injected uint64
}

func newStream(seed uint64, max int) stream { return stream{rng: *NewRand(seed), max: max} }

// draw walks one draw from rng through ps and returns the band index
// (-1: no fault); once MaxInjections faults were injected it draws
// nothing. The caller holds mu and counts the event and the injection.
func (s *stream) draw(rng *Rand, ps ...float64) int {
	if s.max > 0 && s.injected >= uint64(s.max) {
		return -1
	}
	return pick(rng.Float64(), ps...)
}

func (s *stream) counts() (seen, injected uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen, s.injected
}

// unitHit is one unit a per-unit schedule drew a fault for: the band
// index of its class and the operation count at which it fires.
type unitHit struct{ unit, band, at int }

// drawUnits is the per-unit draw behind the rank, shard and overload
// schedules: one seeded stream walks units first..n-1 in order, each unit
// takes one draw through ps, and a hit draws its firing op uniformly in
// [minOps, maxOps] (pinned at minOps when maxOps <= minOps). The walk
// stops after maxF hits.
func drawUnits(seed uint64, first, n, maxF, minOps, maxOps int, ps ...float64) []unitHit {
	rng := NewRand(seed)
	var out []unitHit
	for u := first; u < n && len(out) < maxF; u++ {
		k := pick(rng.Float64(), ps...)
		if k < 0 {
			continue
		}
		at := minOps
		if maxOps > minOps {
			at += int(rng.Uint64() % uint64(maxOps-minOps+1))
		}
		out = append(out, unitHit{unit: u, band: k, at: at})
	}
	return out
}

// byFiring orders hits by firing op, then unit: the order fleet
// schedules are handed out in.
func byFiring(hits []unitHit) []unitHit {
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].at != hits[j].at {
			return hits[i].at < hits[j].at
		}
		return hits[i].unit < hits[j].unit
	})
	return hits
}

// capFailures resolves a MaxFailures setting: zero or less means def,
// and no schedule fails more than limit units.
func capFailures(maxF, def, limit int) int {
	if maxF <= 0 {
		maxF = def
	}
	return min(maxF, limit)
}

// Decision is the injector's verdict for one job.
type Decision struct {
	Class Class
	// Delay is the injected stall duration (Hang class only).
	Delay time.Duration
}

// Config sets per-job injection probabilities. The probabilities are
// evaluated in struct order against one uniform draw, so their sum must
// not exceed 1; the remainder is the no-fault case.
type Config struct {
	// Seed makes the schedule reproducible; zero selects a fixed
	// default seed (injection stays deterministic either way).
	Seed uint64
	// PTransient, PPersistent, PCorrupt, PQueueFull, PHang, PStall,
	// PWedge are the per-job probabilities of each failure class.
	PTransient  float64
	PPersistent float64
	PCorrupt    float64
	PQueueFull  float64
	PHang       float64
	PStall      float64
	PWedge      float64
	// PResetFail is the per-attempt probability that an engine hot-reset
	// fails (drawn by NextReset, independent of the per-job schedule and
	// of MaxInjections — a wedged firmware does not heal just because
	// the job fault budget ran out).
	PResetFail float64
	// HangDelay is the stall injected by the Hang class; zero means
	// 20ms.
	HangDelay time.Duration
	// MaxInjections bounds the total number of injected faults; zero
	// means unlimited. Tests use it to model an engine that fails for a
	// while and then recovers.
	MaxInjections int
}

// Injector hands out per-job fault decisions from a deterministic
// sequence. It is safe for concurrent use; concurrency makes the
// job→decision assignment racy, but the decision *sequence* stays fixed
// by the seed.
type Injector struct {
	stream
	cfg Config
}

// NewInjector builds an injector from cfg.
func NewInjector(cfg Config) *Injector {
	if cfg.HangDelay <= 0 {
		cfg.HangDelay = 20 * time.Millisecond
	}
	return &Injector{stream: newStream(cfg.Seed, cfg.MaxInjections), cfg: cfg}
}

// Next draws the fault decision for the next job.
func (i *Injector) Next() Decision {
	if i == nil {
		return Decision{}
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.seen++
	c := &i.cfg
	// Config lists the probabilities in class order, Transient first.
	k := i.draw(&i.rng, c.PTransient, c.PPersistent, c.PCorrupt, c.PQueueFull, c.PHang, c.PStall, c.PWedge)
	if k < 0 {
		return Decision{}
	}
	i.injected++
	d := Decision{Class: Transient + Class(k)}
	if d.Class == Hang {
		d.Delay = c.HangDelay
	}
	return d
}

// NextReset draws the verdict for one engine hot-reset attempt: a
// Decision with Class ResetFail when the attempt must fail, None when
// the reset succeeds. The draw shares the injector's PRNG so the whole
// failure schedule (jobs and resets) replays from one seed.
func (i *Injector) NextReset() Decision {
	if i == nil {
		return Decision{}
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if pick(i.rng.Float64(), i.cfg.PResetFail) < 0 {
		return Decision{}
	}
	i.injected++
	return Decision{Class: ResetFail}
}

// Counts reports how many jobs were seen and how many received a fault.
func (i *Injector) Counts() (jobs, injected uint64) {
	if i == nil {
		return 0, 0
	}
	return i.counts()
}

// Rand is a tiny deterministic PRNG (SplitMix64). It exists so fault
// schedules and retry jitter never depend on global randomness and
// replay exactly across runs.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed (zero selects a fixed
// default seed).
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next value in the sequence.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(uint64(1)<<53)
}

// Backoff returns the delay before retry attempt (0-based): exponential
// growth from base capped at max, with jitter over the upper half of the
// interval so concurrent retriers decorrelate. A nil r yields the
// deterministic midpoint.
func Backoff(attempt int, base, max time.Duration, r *Rand) time.Duration {
	if base <= 0 {
		base = 50 * time.Microsecond
	}
	if max <= 0 {
		max = 5 * time.Millisecond
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if r == nil {
		return d/2 + d/4
	}
	return d/2 + time.Duration(r.Float64()*float64(d/2))
}
