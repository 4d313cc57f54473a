package faults

import (
	"fmt"
	"time"
)

// Overload failure classes. Unlike the crash/corruption domains these
// faults break no component outright — they starve the system of
// memory, drain speed, or time, and what must absorb them is the
// overload machinery: pool budgets, deadline propagation, and the
// service brownout ladder.
const (
	// MemPressure squeezes the governed memory-pool budget to a fraction
	// of its configured value for a while, so request staging draws
	// start failing with ErrMemPressure and the daemon must convert the
	// shortage into cooperative backpressure (busy + Retry-After)
	// instead of OOM-ing or hanging.
	MemPressure Class = iota + 96
	// SlowConsumer stalls every request a daemon executes (a consumer
	// that drains results slower than they are produced), driving queue
	// depth and pool occupancy up until the brownout ladder engages.
	SlowConsumer
	// DeadlineStorm floods the daemon with requests carrying deadlines
	// too tight to meet, so nearly all of them must be abandoned at a
	// checkpoint with a typed deadline error — and the abandoned work
	// must release every pooled buffer it held.
	DeadlineStorm
)

// OverloadFault is one scheduled overload episode: shard Shard enters
// the condition after the harness has completed AfterOps operations and
// leaves it Ops operations later. Budget is the squeezed pool budget
// (MemPressure), Stall the per-request delay (SlowConsumer), and
// Deadline the per-request budget forced on clients (DeadlineStorm);
// each field is ignored by the other classes.
type OverloadFault struct {
	Shard    int
	Class    Class
	AfterOps int
	// Ops is the episode length in completed operations; the harness
	// restores the squeezed resource after this many further ops.
	Ops      int
	Budget   int64
	Stall    time.Duration
	Deadline time.Duration
}

func (f OverloadFault) String() string {
	return fmt.Sprintf("shard %d: %v after %d ops for %d ops", f.Shard, f.Class, f.AfterOps, f.Ops)
}

// OverloadFaultConfig draws a deterministic overload schedule for an
// n-shard fleet. Probabilities are per shard and evaluated in struct
// order against one uniform draw, like the other schedule configs.
type OverloadFaultConfig struct {
	// Seed makes the schedule reproducible; zero selects the fixed
	// default seed.
	Seed uint64
	// PMemPressure, PSlowConsumer, PDeadlineStorm are the per-shard
	// probabilities of each class.
	PMemPressure   float64
	PSlowConsumer  float64
	PDeadlineStorm float64
	// MinOps and MaxOps bound the operation index at which a drawn fault
	// fires (uniform in [MinOps, MaxOps]); MaxOps <= MinOps pins it.
	MinOps int
	MaxOps int
	// Ops is the episode length; zero means 40 operations.
	Ops int
	// Budget is the squeezed pool budget injected by MemPressure; zero
	// means 1 MiB.
	Budget int64
	// Stall is the per-request delay injected by SlowConsumer; zero
	// means 5ms.
	Stall time.Duration
	// Deadline is the per-request budget injected by DeadlineStorm; zero
	// means 1µs (tight enough that essentially every request must be
	// abandoned at its first checkpoint).
	Deadline time.Duration
	// MaxFailures caps how many shards are squeezed at once so the
	// fleet keeps healthy capacity; zero means at most n-1.
	MaxFailures int
}

// NewOverloadSchedule draws the overload schedule for an n-shard fleet:
// at most MaxFailures entries, sorted by firing order (AfterOps, then
// shard).
func NewOverloadSchedule(cfg OverloadFaultConfig, n int) []OverloadFault {
	if n <= 0 {
		return nil
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 40
	}
	if cfg.Budget <= 0 {
		cfg.Budget = 1 << 20
	}
	if cfg.Stall <= 0 {
		cfg.Stall = 5 * time.Millisecond
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = time.Microsecond
	}
	var out []OverloadFault
	for _, h := range byFiring(drawUnits(cfg.Seed, 0, n, capFailures(cfg.MaxFailures, n-1, n), cfg.MinOps, cfg.MaxOps,
		cfg.PMemPressure, cfg.PSlowConsumer, cfg.PDeadlineStorm)) {
		out = append(out, OverloadFault{
			Shard: h.unit, Class: MemPressure + Class(h.band), AfterOps: h.at, Ops: cfg.Ops,
			Budget: cfg.Budget, Stall: cfg.Stall, Deadline: cfg.Deadline,
		})
	}
	return out
}
