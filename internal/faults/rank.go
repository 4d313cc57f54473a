package faults

import (
	"fmt"
	"time"
)

// Process-level (rank) failure classes. These sit above the per-job and
// per-frame classes: an entire MPI rank dies, pauses, or reboots, and
// the runtime's heartbeat failure detector — not any single operation —
// is what notices.
const (
	// RankCrash kills the rank silently and permanently: its heartbeat
	// stops, in-flight sends are lost, and it never returns. Peers learn
	// of the death only through the failure detector.
	RankCrash Class = iota + 32
	// RankHang pauses the rank's heartbeat for a bounded duration (a
	// long GC pause, an OS hiccup). If the pause stays under the
	// detector's suspicion timeout nothing happens; if it exceeds it the
	// rank is declared dead and fenced even though the process lives.
	RankHang
	// RankRestart models a reboot: the heartbeat stops long enough for
	// the detector to declare the rank dead, then resumes. The restarted
	// process is a zombie from the world's perspective — ULFM semantics
	// fence it out, and every operation it attempts fails.
	RankRestart
)

// RankFault is one scheduled process-level failure: rank Rank fails with
// Class after it has completed AfterOps application operations. Pause is
// the heartbeat gap for RankHang/RankRestart (ignored for RankCrash).
type RankFault struct {
	Rank     int
	Class    Class
	AfterOps int
	Pause    time.Duration
}

func (f RankFault) String() string {
	return fmt.Sprintf("rank %d: %v after %d ops", f.Rank, f.Class, f.AfterOps)
}

// RankFaultConfig draws a deterministic process-failure schedule for an
// n-rank world. Probabilities are per rank and evaluated in struct
// order against one uniform draw, like Config.
type RankFaultConfig struct {
	// Seed makes the schedule reproducible; zero selects the fixed
	// default seed.
	Seed uint64
	// PCrash, PHang, PRestart are the per-rank probabilities of each
	// class.
	PCrash   float64
	PHang    float64
	PRestart float64
	// MinOps and MaxOps bound the operation index at which a drawn
	// fault fires (uniform in [MinOps, MaxOps]); MaxOps <= MinOps pins
	// the fault at MinOps.
	MinOps int
	MaxOps int
	// Pause is the heartbeat gap injected by RankHang/RankRestart; zero
	// means 50ms.
	Pause time.Duration
	// MaxFailures caps how many ranks fail so the world always keeps
	// survivors; zero means at most n-2 (a shrink needs two live ranks
	// to still be a world worth shrinking).
	MaxFailures int
}

// NewRankSchedule draws the failure schedule for an n-rank world:
// at most MaxFailures entries, sorted by rank. Rank 0 is never drawn —
// tests use it as the orchestrating survivor — but callers may of
// course kill it explicitly.
func NewRankSchedule(cfg RankFaultConfig, n int) []RankFault {
	if n <= 0 {
		return nil
	}
	if cfg.Pause <= 0 {
		cfg.Pause = 50 * time.Millisecond
	}
	var out []RankFault
	for _, h := range drawUnits(cfg.Seed, 1, n, capFailures(cfg.MaxFailures, n-2, n-1), cfg.MinOps, cfg.MaxOps,
		cfg.PCrash, cfg.PHang, cfg.PRestart) {
		out = append(out, RankFault{Rank: h.unit, Class: RankCrash + Class(h.band), AfterOps: h.at, Pause: cfg.Pause})
	}
	return out
}
