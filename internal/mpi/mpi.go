// Package mpi implements a message-passing runtime modelled on MPICH,
// with the PEDAL co-design of the paper's §IV: point-to-point Send/Recv
// with Eager and Rendezvous protocols, binomial-tree Bcast, and on-the-fly
// compression hooks placed exactly as Fig. 6 describes — on the sender
// between the shim and transport layers, on the receiver inside the
// binding layer with a PEDAL-owned bounce buffer so the decompressed
// message lands in the user buffer without an extra copy.
//
// The protocol, not the payload, says what is compressed: eager payloads
// are always raw, and in a world configured with Compression every
// Rendezvous payload is a PEDAL message (a pipelined world streams it as
// chunk frames). A receiver therefore never inspects a payload's first
// bytes to decide whether to decompress it.
//
// PEDAL_init runs inside the world construction (the paper integrates it
// into MPI_Init), so no per-message path pays initialisation costs unless
// the world is configured as the baseline.
//
// Each rank carries a virtual clock (internal/simclock). Message
// timestamps merge sender completion time plus modelled wire latency into
// the receiver's clock, which is how the OSU-style benchmarks measure
// communication latency shapes without real BlueField silicon.
package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pedal/internal/core"
	"pedal/internal/dpu"
	"pedal/internal/faults"
	"pedal/internal/hwmodel"
	"pedal/internal/simclock"
	"pedal/internal/stats"
	"pedal/internal/transport"
)

// Errors returned by the runtime.
var (
	ErrClosed    = errors.New("mpi: communicator closed")
	ErrTruncate  = errors.New("mpi: message longer than receive buffer")
	ErrMismatch  = errors.New("mpi: protocol violation")
	ErrBadConfig = errors.New("mpi: invalid configuration")
)

// AnyTag matches any tag in Recv.
const AnyTag = -1

// AnySource matches any source rank in Recv.
const AnySource = -1

// DefaultRendezvousThreshold is the Eager/Rendezvous protocol switch
// point. PEDAL only engages on Rendezvous messages (paper §IV: "PEDAL
// operates on MPI's Rendezvous protocol for larger message sizes rather
// than the Eager protocol ... compression cannot benefit short
// messages").
const DefaultRendezvousThreshold = 64 << 10

// CompressionConfig enables PEDAL in the runtime: every Rendezvous
// message is compressed, and no eager message is.
type CompressionConfig struct {
	// Design selects the compression design for outgoing messages.
	Design core.Design
	// DataType describes outgoing payloads for the lossy design; Send
	// uses it when the caller does not override per message.
	DataType core.DataType
	// Pipelined streams Rendezvous messages as chunked frames: chunk
	// compression fans across the SoC workers and the C-Engine, each
	// compressed chunk departs the moment it completes, and the receiver
	// decompresses chunks while later ones are still in flight
	// (internal/pipeline). Only Send streams; Isend sends one
	// compressed DATA frame, which the receiver handles either way.
	Pipelined bool
}

// WorldOptions configures a world of ranks.
type WorldOptions struct {
	// Generation selects the simulated DPU generation all ranks run on;
	// zero means BlueField-2.
	Generation hwmodel.Generation
	// Compression enables the PEDAL co-design; nil disables compression.
	Compression *CompressionConfig
	// Baseline makes every rank pay DOCA init + buffer prep per message
	// (the paper's comparison point).
	Baseline bool
	// RendezvousThreshold overrides the Eager/RNDV switch; zero means
	// DefaultRendezvousThreshold.
	RendezvousThreshold int
	// TCP selects the TCP provider instead of in-process channels.
	TCP bool
	// ErrorBound is the SZ3 bound for lossy compression; zero = 1e-4.
	ErrorBound float64
	// NetFaults injects deterministic per-frame fabric faults (drop,
	// duplicate, reorder, corrupt, delay) beneath a reliability
	// sublayer that recovers them, so collectives and point-to-point
	// traffic survive a lossy fabric unmodified. Each rank draws from
	// an independent schedule derived from Seed. Nil models a perfect
	// fabric. Implies Reliable.
	NetFaults *faults.NetConfig
	// Reliable wraps every endpoint in the CRC + ack/retransmit
	// sublayer even without injected faults (useful to measure the
	// framing overhead on a clean fabric).
	Reliable bool
	// RelOptions overrides the reliability sublayer's timers; zero
	// values select the transport defaults. Stats/Clock/Tracer fields
	// are managed per rank and ignored here.
	RelOptions transport.ReliableOptions
	// Detector enables the heartbeat failure detector and the
	// ULFM-style recovery path: rank crashes surface as ErrRankFailed
	// instead of deadlocks, and survivors rebuild a dense communicator
	// with Shrink. Nil runs without process fault tolerance (waits block
	// exactly as before).
	Detector *DetectorConfig
	// OpDeadline bounds every blocking wait with a wall-clock deadline,
	// independent of the detector: a receiver waiting on a rank that
	// never sends observes ErrDeadline instead of blocking forever.
	// Zero disables the deadline.
	OpDeadline time.Duration
}

// Comm is one rank's communicator handle. A Comm is driven by a single
// goroutine (the rank's "process"), like a real MPI rank.
type Comm struct {
	rank int
	size int
	ep   transport.Endpoint
	opts WorldOptions

	pedal *core.Library
	dev   *dpu.Device

	clock *simclock.Clock
	bd    *stats.Breakdown
	// netBD accumulates fabric fault-injection and reliability counters
	// when the world runs over a lossy/reliable transport; nil on a
	// perfect fabric.
	netBD *stats.Breakdown

	// unexpected holds frames that arrived while waiting for something
	// else (MPI's unexpected-message queue).
	unexpected []envelope
	// pending tracks in-flight nonblocking rendezvous sends by sequence
	// number. Any blocking wait acts as a progress engine for them: when
	// a CTS for a pending send arrives, the DATA frame goes out
	// immediately, which is what makes patterns like Sendrecv rings
	// deadlock-free (real MPI behaves the same way).
	pending map[uint64]*Request

	// Process fault domain (nil det disables it). worldRank is the
	// transport-level identity, stable across shrinks; rank/size above
	// describe the current dense group. group maps group rank → world
	// rank, w2g the inverse (-1 for non-members), and epoch stamps
	// every outgoing envelope so post-shrink re-runs drop the
	// interrupted attempt's leftovers.
	det       *detector
	worldRank int
	group     []int
	w2g       []int
	epoch     uint32

	hbStop     chan struct{}
	hbOnce     sync.Once
	hbWG       sync.WaitGroup
	pauseUntil atomic.Int64
	killed     bool

	// Shrink-agreement state (see shrink.go).
	joins           map[int]bool
	pendingCommit   *shrinkCommit
	lastCommit      []byte
	lastCommitEpoch uint32

	seq    uint64
	closed bool
}

// NewWorld builds n connected ranks and runs PEDAL_init inside the
// construction (the MPI_Init integration of §IV). The returned comms are
// indexed by rank.
func NewWorld(n int, opts WorldOptions) ([]*Comm, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: world size %d", ErrBadConfig, n)
	}
	if opts.Generation == 0 {
		opts.Generation = hwmodel.BlueField2
	}
	if opts.RendezvousThreshold == 0 {
		opts.RendezvousThreshold = DefaultRendezvousThreshold
	}
	var eps []transport.Endpoint
	var err error
	if opts.TCP {
		eps, err = transport.NewTCPWorld(n)
	} else {
		eps, err = transport.NewInProcWorld(n)
	}
	if err != nil {
		return nil, err
	}
	var det *detector
	if opts.Detector != nil {
		det = newDetector(n, opts.Detector.withDefaults())
	}
	comms := make([]*Comm, n)
	for i := 0; i < n; i++ {
		clock := simclock.New()
		ep := eps[i]
		var netBD *stats.Breakdown
		if opts.NetFaults != nil || opts.Reliable {
			netBD = stats.NewBreakdown()
			if opts.NetFaults != nil {
				cfg := *opts.NetFaults
				cfg.Seed = faults.DeriveSeed(cfg.Seed, uint64(i))
				ep = transport.WrapFaulty(ep, faults.NewNetInjector(cfg), netBD)
			}
			rel := opts.RelOptions
			rel.Stats = netBD
			rel.Clock = clock
			rel.Tracer = nil
			ep = transport.WrapReliable(ep, rel)
		}
		c := &Comm{
			rank:      i,
			size:      n,
			ep:        ep,
			opts:      opts,
			clock:     clock,
			netBD:     netBD,
			bd:        stats.NewBreakdown(),
			pending:   make(map[uint64]*Request),
			worldRank: i,
			group:     make([]int, n),
			w2g:       make([]int, n),
		}
		for r := 0; r < n; r++ {
			c.group[r], c.w2g[r] = r, r
		}
		if opts.Compression != nil {
			lib, err := core.Init(core.Options{
				Generation: opts.Generation,
				Baseline:   opts.Baseline,
				ErrorBound: opts.ErrorBound,
			})
			if err != nil {
				for _, done := range comms[:i] {
					done.Close()
				}
				if det != nil {
					// Unwind the references of the never-built ranks so
					// the monitor goroutine stops.
					for j := i; j < n; j++ {
						det.release()
					}
				}
				return nil, err
			}
			c.pedal = lib
			c.dev = lib.Device()
		}
		if det != nil {
			c.det = det
			c.startHeartbeat()
		}
		comms[i] = c
	}
	if det != nil {
		// Only now does staleness start counting: per-rank construction
		// (PEDAL_init, worker pools) can exceed SuspectAfter, and the
		// scan must not fence ranks that were never late, just unborn.
		det.arm()
	}
	return comms, nil
}

// Rank returns this communicator's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.size }

// Clock exposes the rank's virtual clock (benchmarks read it).
func (c *Comm) Clock() *simclock.Clock { return c.clock }

// Breakdown exposes the rank's accumulated phase accounting.
func (c *Comm) Breakdown() *stats.Breakdown { return c.bd }

// NetStats exposes the rank's fabric reliability counters (retransmits,
// CRC rejects, duplicates dropped, reorders healed, injected faults).
// It returns nil on a perfect fabric; stats.Breakdown methods are
// nil-safe, so callers may use the result unconditionally.
func (c *Comm) NetStats() *stats.Breakdown { return c.netBD }

// Pedal returns the rank's PEDAL library, or nil when compression is
// disabled.
func (c *Comm) Pedal() *core.Library { return c.pedal }

// Close releases the rank's resources.
func (c *Comm) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.stopHeartbeat()
	if c.det != nil {
		c.det.release()
	}
	c.ep.Close()
	if c.pedal != nil {
		c.pedal.Finalize()
	}
}

// wire models the network between two DPUs for a payload of n bytes.
func (c *Comm) wire(n int) time.Duration {
	return hwmodel.WireLatency(c.opts.Generation, n)
}
