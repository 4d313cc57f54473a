package faults

import (
	"fmt"
	"sync"
)

// BreakerState is the circuit breaker's position.
type BreakerState uint8

// Breaker states. Closed admits everything; Open rejects (degrading
// callers to their fallback path) while periodically promoting one
// request to a HalfOpen probe whose outcome decides the next state.
const (
	StateClosed BreakerState = iota
	StateOpen
	StateHalfOpen
)

var breakerStateNames = [...]string{StateClosed: "closed", StateOpen: "open", StateHalfOpen: "half-open"}

func (s BreakerState) String() string {
	if int(s) < len(breakerStateNames) {
		return breakerStateNames[s]
	}
	return fmt.Sprintf("BreakerState(%d)", uint8(s))
}

// BreakerConfig tunes the state machine.
type BreakerConfig struct {
	// Threshold is the number of consecutive hard failures that opens
	// the breaker; zero means 3.
	Threshold int
	// ProbeEvery admits one half-open probe per this many rejected
	// requests while open; zero means 8. Probing by request count (not
	// wall time) keeps the simulation deterministic.
	ProbeEvery int
}

// Breaker is a strike/half-open ladder: Threshold consecutive failures
// open it, every ProbeEvery-th request while open is one half-open probe,
// and the probe's outcome closes or re-opens it. The C-Engine runs two:
// its circuit breaker over hard job failures — the paper's capability
// fallback applied dynamically when a *supported* path starts failing at
// runtime — and its integrity quarantine over verified mismatches.
type Breaker struct {
	mu          sync.Mutex
	cfg         BreakerConfig
	state       BreakerState
	consecFails int
	sinceOpen   int
	trips       uint64
	recoveries  uint64
}

// NewBreaker builds a closed breaker from cfg.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 3
	}
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = 8
	}
	return &Breaker{cfg: cfg}
}

// Allow reports whether the next engine request may proceed. While open
// it rejects, except that every ProbeEvery-th request is admitted as a
// half-open probe; the probe's Success or Failure resolves the state.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		return true
	case StateHalfOpen:
		// One probe in flight at a time.
		return false
	default: // StateOpen
		b.sinceOpen++
		if b.sinceOpen >= b.cfg.ProbeEvery {
			b.state = StateHalfOpen
			b.sinceOpen = 0
			return true
		}
		return false
	}
}

// Skip counts a request that was refused before it reached the breaker
// (the engine was resetting or degraded) toward the probe countdown, as
// Allow would have, but grants nothing: a probe that falls due during
// the refusal goes to the next request Allow sees. The request that
// probes therefore depends on the request count alone, not on how long
// the refusal lasted.
func (b *Breaker) Skip() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == StateOpen && b.sinceOpen < b.cfg.ProbeEvery-1 {
		b.sinceOpen++
	}
}

// Success records a completed engine operation. It reports whether this
// success closed an open breaker (a recovered engine).
func (b *Breaker) Success() (recovered bool) {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFails = 0
	if b.state == StateHalfOpen {
		b.state = StateClosed
		b.recoveries++
		return true
	}
	return false
}

// Failure records a hard engine failure. It reports whether this failure
// tripped the breaker open.
func (b *Breaker) Failure() (tripped bool) {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateHalfOpen:
		// Failed probe: back to open, restart the probe countdown.
		b.state = StateOpen
		b.sinceOpen = 0
		return false
	case StateOpen:
		return false
	default: // StateClosed
		b.consecFails++
		if b.consecFails >= b.cfg.Threshold {
			b.state = StateOpen
			b.sinceOpen = 0
			b.trips++
			return true
		}
		return false
	}
}

// Release hands back an admission whose outcome will never be reported:
// its caller abandoned it at a deadline, or left it unused. A half-open
// probe re-opens the breaker and restarts the probe countdown, as a
// failed probe would, but counts no failure; any other position stays.
func (b *Breaker) Release() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == StateHalfOpen {
		b.state = StateOpen
		b.sinceOpen = 0
	}
}

// State reports the current position.
func (b *Breaker) State() BreakerState {
	if b == nil {
		return StateClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Trips and Recoveries report lifetime transition counts.
func (b *Breaker) Trips() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

func (b *Breaker) Recoveries() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.recoveries
}
