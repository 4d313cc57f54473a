// Package stats accumulates per-phase virtual-time breakdowns. The
// paper's Figures 7 and 9 report execution time split into four
// fractions — DOCA initialisation, buffer preparation, compression, and
// decompression — and this package is the accounting backbone for
// regenerating them.
//
// Phases and counters are small integer enums, and a Breakdown is two
// fixed arrays of atomic words indexed by them: no map and no lock. Every
// operation, hop and daemon charges a breakdown, and the lifetime totals
// are shared by every goroutine of a Library, server or router, so each
// charge is one atomic operation and folding one breakdown into another
// touches only its non-zero entries. A breakdown's zero value is ready to
// use, which lets an operation keep its ledger inside its own state
// instead of allocating one.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Phase labels one segment of a compression run.
type Phase uint8

// The four fractions of Figs. 7 and 9, plus auxiliary phases used by the
// MPI co-design experiments.
const (
	PhaseDOCAInit Phase = iota
	PhaseBufPrep
	PhaseCompress
	PhaseDecompress
	PhaseWire
	// PhaseRetry accumulates the virtual backoff delays spent retrying
	// transient C-Engine failures.
	PhaseRetry
	// PhaseReset accumulates the virtual cost of engine hot-resets
	// (work-queue teardown + rebuild after a wedge).
	PhaseReset
	// PhaseHedgeWait accumulates the latency-percentile delays the fleet
	// router waited before launching hedge requests: the price of tail
	// tolerance, charged as virtual time like retry backoff.
	PhaseHedgeWait
	numPhases
)

// phaseNames is Phase.String's one table.
var phaseNames = [numPhases]string{
	PhaseDOCAInit: "doca_init", PhaseBufPrep: "buffer_prep", PhaseCompress: "compression",
	PhaseDecompress: "decompression", PhaseWire: "wire", PhaseRetry: "retry_backoff",
	PhaseReset: "engine_reset", PhaseHedgeWait: "hedge_wait",
}

func (p Phase) String() string {
	if p < numPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("Phase(%d)", uint8(p))
}

// Counter names a monotonically increasing resilience event count.
// Unlike phases (virtual time), counters tally *how often* the fault
// handling machinery fired, so experiments can report availability under
// injected faults.
type Counter uint8

const (
	// Resilience counters.

	// CounterRetries counts transient-failure resubmissions.
	CounterRetries Counter = iota
	// CounterTimeouts counts jobs that missed their completion deadline.
	CounterTimeouts
	// CounterCorruptions counts engine outputs rejected by checksum
	// verification.
	CounterCorruptions
	// CounterEngineFailures counts hard C-Engine failures (after retry
	// exhaustion) seen by the fallback layer.
	CounterEngineFailures
	// CounterBreakerTrips and CounterBreakerRecoveries count circuit
	// breaker open/close transitions.
	CounterBreakerTrips
	CounterBreakerRecoveries
	// CounterDegradedOps counts operations routed straight to the SoC
	// because the breaker was open.
	CounterDegradedOps

	// Engine fault-domain counters (internal/dpu and internal/core; the
	// watchdog's stall, wedge and reset tallies live in dpu.EngineHealth).

	// CounterJobsReplayed counts operations that lost their engine job to
	// a stall/wedge and were deterministically re-executed on the SoC
	// path from the in-flight journal.
	CounterJobsReplayed

	// Network reliability counters (internal/transport's faulty wrapper and
	// reliability sublayer). The net_injected_* counters tally faults the
	// seeded injector put on the wire; the remaining counters tally what the
	// reliability machinery detected and repaired on the receive side.

	CounterNetInjDrops
	CounterNetInjDups
	CounterNetInjReorders
	CounterNetInjCorrupts
	CounterNetInjDelays
	// CounterRetransmits counts frames re-sent by the reliability
	// sublayer (RTO expiry or NACK-triggered fast retransmit).
	CounterRetransmits
	// CounterNetCorrupt counts frames rejected by CRC verification.
	CounterNetCorrupt
	// CounterNetDuplicates counts already-delivered frames discarded by
	// sequence-number deduplication.
	CounterNetDuplicates
	// CounterNetReorders counts out-of-order frames buffered and later
	// delivered in sequence.
	CounterNetReorders
	// CounterNetNacks counts NACK control frames sent to request a
	// retransmission (gap or CRC failure observed).
	CounterNetNacks

	// Process fault-domain counters (internal/mpi): the heartbeat failure
	// detector, ULFM-style communicator shrink, and epoch-stamped frame
	// filtering.

	// CounterHeartbeats counts heartbeats the detector accepted from
	// this rank.
	CounterHeartbeats
	// CounterFencedBeats counts heartbeats ignored because they came
	// from a rank already declared dead (zombie fencing: a restarted or
	// unhung process never rejoins the old world).
	CounterFencedBeats
	// CounterRevocations counts operations aborted with a rank-failure
	// error instead of blocking on a dead peer.
	CounterRevocations
	// CounterShrinks counts successful World.Shrink agreements installed
	// by this rank (each installs a new dense group and epoch).
	CounterShrinks
	// CounterStaleFrames counts frames dropped by the epoch filter:
	// leftovers of an operation interrupted by a failure, or traffic
	// from fenced ranks. Dropping them is what makes post-shrink re-runs
	// idempotent.
	CounterStaleFrames
	// CounterShrinkJoinResends counts join re-transmissions during the
	// shrink agreement (coordinator change or lost first join).
	CounterShrinkJoinResends

	// Service admission-control counters (internal/service).

	// CounterRequests counts requests the server answered (any status).
	CounterRequests
	// CounterSheds counts requests refused with a busy status because
	// both the handler semaphore and the wait queue were full.
	CounterSheds
	// CounterPanics counts handler panics converted into error
	// responses instead of daemon crashes.
	CounterPanics
	// CounterDrained counts requests completed while the server was
	// draining towards shutdown.
	CounterDrained

	// Fleet fault-domain counters (internal/fleet): the shard router's
	// shedding, failover, hedging and health-plane machinery.

	// CounterFleetSheds counts best-effort requests the router refused
	// because the primary shard was saturated (priority load shedding).
	CounterFleetSheds
	// CounterQuotaSheds counts requests refused because the tenant was
	// over its in-flight quota.
	CounterQuotaSheds
	// CounterFailovers counts attempts re-routed to a failover shard
	// after a peer-class failure on the previous one.
	CounterFailovers
	// CounterHedges counts hedge requests launched after the latency
	// trigger fired; CounterHedgeWins counts the hedges that finished
	// before the primary attempt.
	CounterHedges
	CounterHedgeWins
	// CounterShardEjects and CounterShardReadmits count shard health
	// transitions out of and back into the routing set.
	CounterShardEjects
	CounterShardReadmits
	// CounterShardDrains counts shards gracefully drained: hash range
	// migrated, in-flight requests completed, daemon safe to stop.
	CounterShardDrains

	// Storage fault-domain counters (internal/ckpt): the checkpoint store's
	// commit protocol, digest verification and scrub-and-repair machinery.

	// CounterCkptCommits counts checkpoints made durable (manifest
	// atomically renamed into place).
	CounterCkptCommits
	// CounterCkptRestores counts restarts that recovered a fully
	// digest-verified checkpoint.
	CounterCkptRestores
	// CounterCkptTornManifests counts manifests rejected by magic/CRC
	// validation (torn write or rot in the metadata itself).
	CounterCkptTornManifests
	// CounterCkptRotDetected counts shard copies that failed digest
	// verification (torn writes and silent bit rot both land here).
	CounterCkptRotDetected
	// CounterCkptRepairs counts shard copies rewritten from a surviving
	// replica or re-compressed from source (read-repair and scrub).
	CounterCkptRepairs
	// CounterCkptCondemned counts epochs declared unrecoverable and
	// retired from the restore sequence.
	CounterCkptCondemned

	// Compute fault-domain counters (internal/integrity): verified
	// compression, hop-carried checksum rejection and the silent-data-
	// corruption quarantine ladder.

	// CounterVerifyMismatches counts compressed outputs that failed
	// decode-verification against the source digest (or the scalar-vs-
	// slab differential referee) before release.
	CounterVerifyMismatches
	// CounterHopsRejected counts payloads rejected at a hop boundary
	// (pipeline reassembly, fleet response, checkpoint write-back)
	// because the hop-carried CRC no longer matched the bytes.
	CounterHopsRejected
	// CounterCoresQuarantined counts compute units (C-Engine complexes)
	// pulled from service after repeated verified mismatches.
	CounterCoresQuarantined
	// CounterScalarFallbacks counts operations transparently re-executed
	// on the scalar reference path after a verification failure.
	CounterScalarFallbacks

	// Overload fault-domain counters (mempool budgets, deadline
	// propagation, cooperative backpressure): the machinery that makes the
	// system degrade under pressure instead of OOMing or working past the
	// point anyone still wants the answer.

	// CounterDeadlineAbandoned counts operations abandoned at a deadline
	// checkpoint with a typed ErrDeadline: the caller's budget ran out,
	// so the layer released its pooled buffers and stopped instead of
	// finishing work nobody is waiting for. Every layer (core, pipeline,
	// service, fleet) feeds the same counter.
	CounterDeadlineAbandoned
	// CounterMemPressure counts typed ErrMemPressure refusals: a
	// governed pool draw that would have exceeded the byte budget.
	CounterMemPressure
	// CounterBrownouts counts brownout-ladder escalations: the service
	// observed sustained pool pressure or queue depth and stepped down a
	// rung (shed low-priority, shrink pipeline concurrency, serial
	// fallback).
	CounterBrownouts
	numCounters
)

// counterNames is Counter.String's one table.
var counterNames = [numCounters]string{
	CounterRetries: "retries", CounterTimeouts: "timeouts", CounterCorruptions: "corruption_detected",
	CounterEngineFailures: "engine_failures", CounterBreakerTrips: "breaker_trips",
	CounterBreakerRecoveries: "breaker_recoveries", CounterDegradedOps: "degraded_ops",
	CounterJobsReplayed: "jobs_replayed",
	CounterNetInjDrops:  "net_injected_drops", CounterNetInjDups: "net_injected_dups",
	CounterNetInjReorders: "net_injected_reorders", CounterNetInjCorrupts: "net_injected_corrupts",
	CounterNetInjDelays: "net_injected_delays", CounterRetransmits: "retransmits",
	CounterNetCorrupt: "net_corrupt_detected", CounterNetDuplicates: "net_duplicates_dropped",
	CounterNetReorders: "net_reorders_healed", CounterNetNacks: "net_nacks_sent",
	CounterHeartbeats: "heartbeats_sent", CounterFencedBeats: "fenced_heartbeats_dropped",
	CounterRevocations: "ops_revoked", CounterShrinks: "comm_shrinks",
	CounterStaleFrames: "stale_frames_dropped", CounterShrinkJoinResends: "shrink_join_resends",
	CounterRequests: "requests_served", CounterSheds: "requests_shed",
	CounterPanics: "panics_recovered", CounterDrained: "drained_requests",
	CounterFleetSheds: "fleet_sheds", CounterQuotaSheds: "fleet_quota_sheds",
	CounterFailovers: "fleet_failovers", CounterHedges: "fleet_hedges", CounterHedgeWins: "fleet_hedge_wins",
	CounterShardEjects: "shards_ejected", CounterShardReadmits: "shards_readmitted",
	CounterShardDrains: "shards_drained",
	CounterCkptCommits: "ckpt_commits", CounterCkptRestores: "ckpt_restores",
	CounterCkptTornManifests: "ckpt_torn_manifests", CounterCkptRotDetected: "ckpt_rot_detected",
	CounterCkptRepairs: "ckpt_shard_repairs", CounterCkptCondemned: "ckpt_epochs_condemned",
	CounterVerifyMismatches: "verify_mismatches", CounterHopsRejected: "hops_rejected",
	CounterCoresQuarantined: "cores_quarantined", CounterScalarFallbacks: "scalar_fallbacks",
	CounterDeadlineAbandoned: "deadline_abandoned", CounterMemPressure: "mem_pressure_rejects",
	CounterBrownouts: "brownout_steps",
}

func (k Counter) String() string {
	if k < numCounters {
		return counterNames[k]
	}
	return fmt.Sprintf("Counter(%d)", uint8(k))
}

// Phases is a breakdown's phase durations, indexed by Phase.
type Phases [numPhases]time.Duration

// Total returns the sum over all phases.
func (ps Phases) Total() time.Duration {
	var t time.Duration
	for _, d := range ps {
		t += d
	}
	return t
}

// Counts is a breakdown's event counts, indexed by Counter.
type Counts [numCounters]uint64

// Breakdown is a concurrency-safe accumulator of virtual durations per
// phase plus resilience event counters. Each entry is its own atomic
// word; the zero value is ready to use, and a Breakdown must not be
// copied after first use.
type Breakdown struct {
	phases [numPhases]atomic.Int64
	counts [numCounters]atomic.Uint64
}

// NewBreakdown returns an empty breakdown for a long-lived owner.
func NewBreakdown() *Breakdown { return new(Breakdown) }

// Add accumulates d into phase p.
func (b *Breakdown) Add(p Phase, d time.Duration) {
	if b != nil {
		b.phases[p].Add(int64(d))
	}
}

// Get returns the accumulated duration for phase p.
func (b *Breakdown) Get(p Phase) time.Duration {
	if b == nil {
		return 0
	}
	return time.Duration(b.phases[p].Load())
}

// Total returns the sum over all phases.
func (b *Breakdown) Total() time.Duration { return b.Snapshot().Total() }

// Fraction returns phase p's share of the total, in [0, 1].
func (b *Breakdown) Fraction(p Phase) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return float64(b.Get(p)) / float64(t)
}

// Inc adds one to counter k.
func (b *Breakdown) Inc(k Counter) { b.CountAdd(k, 1) }

// CountAdd adds n to counter k.
func (b *Breakdown) CountAdd(k Counter, n uint64) {
	if b != nil {
		b.counts[k].Add(n)
	}
}

// Count returns the accumulated value of counter k.
func (b *Breakdown) Count(k Counter) uint64 {
	if b == nil {
		return 0
	}
	return b.counts[k].Load()
}

// Counts returns a copy of the counters.
func (b *Breakdown) Counts() Counts {
	var out Counts
	if b != nil {
		for k := range b.counts {
			out[k] = b.counts[k].Load()
		}
	}
	return out
}

// Reset clears all phases and counters.
func (b *Breakdown) Reset() {
	if b == nil {
		return
	}
	for p := range b.phases {
		b.phases[p].Store(0)
	}
	for k := range b.counts {
		b.counts[k].Store(0)
	}
}

// Snapshot returns a copy of the phase durations.
func (b *Breakdown) Snapshot() Phases {
	var out Phases
	if b != nil {
		for p := range b.phases {
			out[p] = time.Duration(b.phases[p].Load())
		}
	}
	return out
}

// Merge adds every phase and counter of other into b. Only non-zero
// entries are written, so folding one operation into a shared total
// touches just the few words that operation charged.
func (b *Breakdown) Merge(other *Breakdown) {
	if b == nil || other == nil {
		return
	}
	for p := range other.phases {
		if d := other.phases[p].Load(); d != 0 {
			b.phases[p].Add(d)
		}
	}
	for k := range other.counts {
		if n := other.counts[k].Load(); n != 0 {
			b.counts[k].Add(n)
		}
	}
}

// String formats the breakdown as "phase=dur(frac%)" pairs sorted by
// phase name, followed by non-zero counters, for log and table output.
// Phases that were never charged are left out.
func (b *Breakdown) String() string {
	snap := b.Snapshot()
	total := snap.Total()
	var fields []string
	for p, d := range snap {
		if d == 0 {
			continue
		}
		frac := 0.0
		if total > 0 {
			frac = float64(d) / float64(total) * 100
		}
		fields = append(fields, fmt.Sprintf("%s=%v(%.1f%%)", Phase(p), d.Round(time.Microsecond), frac))
	}
	sort.Strings(fields)
	var counters []string
	for k, n := range b.Counts() {
		if n > 0 {
			counters = append(counters, fmt.Sprintf("%s=%d", Counter(k), n))
		}
	}
	sort.Strings(counters)
	return strings.Join(append(fields, counters...), " ")
}
