package faults

import (
	"fmt"
	"time"
)

// Fleet-level (shard) failure classes. These sit above even the rank
// classes: an entire pedald instance — one shard of the compression
// fleet — crashes, stalls, or reboots, and the fleet router's failover
// and health plane, not any single client, is what must absorb it.
const (
	// ShardCrash kills the shard's daemon abruptly: its listener closes,
	// in-flight requests fail, and it never returns. Clients see dial
	// failures and broken streams until the router ejects it.
	ShardCrash Class = iota + 48
	// ShardStall wedges the shard without killing it: the daemon accepts
	// connections and answers pings but every request takes Stall to
	// execute. The slow-shard case is the nastier one — only latency
	// policy (hedging, degraded ejection), not connectivity, notices.
	ShardStall
	// ShardRestart models a rolling reboot: the daemon goes down hard
	// for Down, then comes back healthy on the same address. The router
	// must eject it while dark and readmit it via half-open probes.
	ShardRestart
)

// ShardFault is one scheduled fleet-level failure: shard Shard fails
// with Class after the fleet has completed AfterOps operations. Stall
// is the per-request execution delay for ShardStall; Down is the
// outage duration for ShardRestart (both ignored by the other classes).
type ShardFault struct {
	Shard    int
	Class    Class
	AfterOps int
	Stall    time.Duration
	Down     time.Duration
}

func (f ShardFault) String() string {
	return fmt.Sprintf("shard %d: %v after %d ops", f.Shard, f.Class, f.AfterOps)
}

// ShardFaultConfig draws a deterministic shard-failure schedule for an
// n-shard fleet. Probabilities are per shard and evaluated in struct
// order against one uniform draw, like Config and RankFaultConfig.
type ShardFaultConfig struct {
	// Seed makes the schedule reproducible; zero selects the fixed
	// default seed.
	Seed uint64
	// PCrash, PStall, PRestart are the per-shard probabilities of each
	// class.
	PCrash   float64
	PStall   float64
	PRestart float64
	// MinOps and MaxOps bound the fleet operation index at which a drawn
	// fault fires (uniform in [MinOps, MaxOps]); MaxOps <= MinOps pins
	// the fault at MinOps.
	MinOps int
	MaxOps int
	// Stall is the per-request delay injected by ShardStall; zero means
	// 250ms.
	Stall time.Duration
	// Down is the outage injected by ShardRestart; zero means 200ms.
	Down time.Duration
	// MaxFailures caps how many shards fail so the ring always keeps
	// live successors for failover; zero means at most n-2.
	MaxFailures int
}

// NewShardSchedule draws the failure schedule for an n-shard fleet: at
// most MaxFailures entries, sorted by firing order (AfterOps, then
// shard). Unlike rank schedules every shard may be drawn — the fleet
// has no orchestrating shard 0; the router itself is the survivor.
func NewShardSchedule(cfg ShardFaultConfig, n int) []ShardFault {
	if n <= 0 {
		return nil
	}
	if cfg.Stall <= 0 {
		cfg.Stall = 250 * time.Millisecond
	}
	if cfg.Down <= 0 {
		cfg.Down = 200 * time.Millisecond
	}
	var out []ShardFault
	for _, h := range byFiring(drawUnits(cfg.Seed, 0, n, capFailures(cfg.MaxFailures, n-2, n-1), cfg.MinOps, cfg.MaxOps,
		cfg.PCrash, cfg.PStall, cfg.PRestart)) {
		out = append(out, ShardFault{
			Shard: h.unit, Class: ShardCrash + Class(h.band), AfterOps: h.at,
			Stall: cfg.Stall, Down: cfg.Down,
		})
	}
	return out
}
