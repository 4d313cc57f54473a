package mpi

import (
	"encoding/binary"
	"fmt"
	"time"

	"pedal/internal/core"
	"pedal/internal/stats"
	"pedal/internal/transport"
)

// Wire protocol kinds. Eager messages carry their payload inline; larger
// messages use the three-step Rendezvous handshake (RTS → CTS → DATA),
// matching MPICH's protocol split.
const (
	kindEager = iota + 1
	kindRTS
	kindCTS
	kindData
	// kindChunk carries one compressed chunk of a pipelined rendezvous
	// stream (see pipelined.go). An RTS with a non-empty payload (the
	// pipeline descriptor) announces the stream; chunks are matched by
	// (src, seq) like DATA frames.
	kindChunk
	// kindShrinkJoin and kindShrinkCommit are the control frames of the
	// ULFM-style shrink agreement (shrink.go). They bypass the epoch
	// filter — agreement traffic must cross epochs by definition — and
	// address world ranks directly.
	kindShrinkJoin
	kindShrinkCommit
)

// envHeaderLen is the fixed envelope prefix:
// kind(1) + epoch(4) + tag(4) + seq(8) + origLen(8).
const envHeaderLen = 1 + 4 + 4 + 8 + 8

// envelope is a decoded frame.
type envelope struct {
	kind byte
	// epoch is the sender's communicator epoch. Frames from older
	// epochs are leftovers of an operation interrupted by a rank
	// failure and are dropped; frames from a newer epoch are parked
	// until this rank installs the matching shrink commit.
	epoch uint32
	// world is the sender's world (transport) rank; src is its dense
	// group rank, resolved at match time (it changes across shrinks).
	world   int
	src     int
	tag     int
	seq     uint64
	origLen int
	payload []byte
	// departure is the sender's virtual clock at transmission.
	departure int64
}

func encodeEnvelope(kind byte, epoch uint32, tag int, seq uint64, origLen int, payload []byte) []byte {
	buf := make([]byte, envHeaderLen+len(payload))
	buf[0] = kind
	binary.BigEndian.PutUint32(buf[1:5], epoch)
	binary.BigEndian.PutUint32(buf[5:9], uint32(int32(tag)))
	binary.BigEndian.PutUint64(buf[9:17], seq)
	binary.BigEndian.PutUint64(buf[17:25], uint64(origLen))
	copy(buf[envHeaderLen:], payload)
	return buf
}

func decodeEnvelope(src int, data []byte, departure int64) (envelope, error) {
	if len(data) < envHeaderLen {
		return envelope{}, fmt.Errorf("%w: short envelope (%d bytes)", ErrMismatch, len(data))
	}
	return envelope{
		kind:      data[0],
		epoch:     binary.BigEndian.Uint32(data[1:5]),
		world:     src,
		src:       -1,
		tag:       int(int32(binary.BigEndian.Uint32(data[5:9]))),
		seq:       binary.BigEndian.Uint64(data[9:17]),
		origLen:   int(binary.BigEndian.Uint64(data[17:25])),
		payload:   data[envHeaderLen:],
		departure: departure,
	}, nil
}

// nextSeq allocates a request id for a rendezvous exchange.
func (c *Comm) nextSeq() uint64 {
	c.seq++
	return c.seq
}

// groupOf translates a world rank to the current dense group rank, or -1
// for non-members (dead or fenced ranks).
func (c *Comm) groupOf(world int) int {
	if world < 0 || world >= len(c.w2g) {
		return -1
	}
	return c.w2g[world]
}

// sendFrame transmits an envelope to group rank dst under the current
// epoch, stamping the rank's current virtual time as the departure.
func (c *Comm) sendFrame(dst int, kind byte, tag int, seq uint64, origLen int, payload []byte) error {
	if dst < 0 || dst >= len(c.group) {
		return transport.ErrBadRank
	}
	buf := encodeEnvelope(kind, c.epoch, tag, seq, origLen, payload)
	return c.ep.Send(c.group[dst], buf, c.clock.Now())
}

// sendControl transmits a shrink-agreement frame to a world rank under
// an explicit epoch (the agreement crosses epochs by design).
func (c *Comm) sendControl(world int, kind byte, epoch uint32, payload []byte) error {
	buf := encodeEnvelope(kind, epoch, 0, 0, 0, payload)
	return c.ep.Send(world, buf, c.clock.Now())
}

// accepts reports whether env satisfies a (src, tag, kind, seq) wait
// under the current epoch and group. A negative src or tag is a
// wildcard; seq 0 is a wildcard.
func (c *Comm) accepts(env envelope, src, tag int, kind byte, seq uint64) bool {
	if env.kind != kind || env.epoch != c.epoch {
		return false
	}
	g := c.groupOf(env.world)
	if g < 0 {
		return false
	}
	if src != AnySource && g != src {
		return false
	}
	if kind == kindEager || kind == kindRTS {
		if tag != AnyTag && env.tag != tag {
			return false
		}
	}
	if seq != 0 && env.seq != seq {
		return false
	}
	return true
}

// progressCTS services a CTS belonging to a pending nonblocking send:
// the DATA frame goes out immediately and the request completes. It
// reports whether the envelope was consumed. This is the progress-engine
// behaviour that keeps mutual-exchange patterns deadlock-free.
func (c *Comm) progressCTS(env envelope) bool {
	if env.kind != kindCTS || env.epoch != c.epoch {
		return false
	}
	r, ok := c.pending[env.seq]
	if !ok || r.dst < 0 || r.dst >= len(c.group) || c.group[r.dst] != env.world {
		return false
	}
	delete(c.pending, env.seq)
	c.clock.AdvanceTo(durationOf(env.departure) + c.wire(envHeaderLen))
	r.err = c.sendFrame(r.dst, kindData, r.tag, r.seq, r.origLen, r.payload)
	r.done = true
	r.release()
	return true
}

// absorb processes control and non-matchable frames, reporting whether
// env was consumed: shrink frames feed the agreement, stale-epoch and
// fenced-sender frames are dropped (the idempotence filter), CTS grants
// service pending sends. Frames from a future epoch are NOT consumed —
// they park on the unexpected queue until this rank installs the commit.
func (c *Comm) absorb(env *envelope) bool {
	switch env.kind {
	case kindShrinkJoin:
		c.noteJoin(*env)
		return true
	case kindShrinkCommit:
		c.noteCommit(*env)
		return true
	}
	if env.epoch < c.epoch || (env.epoch == c.epoch && c.groupOf(env.world) < 0) {
		c.bd.Inc(stats.CounterStaleFrames)
		return true
	}
	if env.epoch == c.epoch && c.progressCTS(*env) {
		return true
	}
	return false
}

// step pulls one frame from the transport and runs it through absorb.
// It returns (env, true, nil) when a data-path envelope is ready for the
// caller to match, (zero, false, nil) when a frame was consumed
// internally (so callers can re-check completion state), and an error
// when the wait must abort: transport failure, rank failure/revocation,
// or the operation deadline. await is the awaited group rank (AnySource
// for wildcards) and start anchors the deadline.
//
// Without a detector or deadline the receive blocks exactly as before;
// with either, the transport is polled so the failure checks interleave
// with reception — this is what turns "receiver blocks forever on a
// rank that never sends" into a typed error.
func (c *Comm) step(await int, start time.Time) (envelope, bool, error) {
	polling := c.det != nil || c.opts.OpDeadline > 0
	for {
		var f transport.Frame
		if polling {
			if err := c.liveness(await, start); err != nil {
				return envelope{}, false, err
			}
			var ok bool
			var err error
			f, ok, err = c.ep.TryRecv()
			if err != nil {
				return envelope{}, false, err
			}
			if !ok {
				time.Sleep(c.pollInterval())
				continue
			}
		} else {
			var err error
			f, err = c.ep.Recv()
			if err != nil {
				return envelope{}, false, err
			}
		}
		env, err := decodeEnvelope(f.Src, f.Data, int64(f.Departure))
		if err != nil {
			return envelope{}, false, err
		}
		if c.absorb(&env) {
			return envelope{}, false, nil
		}
		return env, true, nil
	}
}

// waitMatch blocks until a frame satisfying accept arrives, queueing
// everything else on the unexpected list (MPI's unexpected-message
// queue). The returned envelope has src resolved to the current group.
func (c *Comm) waitMatch(await int, accept func(envelope) bool) (envelope, error) {
	for i, env := range c.unexpected {
		if accept(env) {
			c.unexpected = append(c.unexpected[:i], c.unexpected[i+1:]...)
			env.src = c.groupOf(env.world)
			return env, nil
		}
	}
	start := time.Now()
	for {
		env, ok, err := c.step(await, start)
		if err != nil {
			return envelope{}, err
		}
		if !ok {
			continue
		}
		if accept(env) {
			env.src = c.groupOf(env.world)
			return env, nil
		}
		c.unexpected = append(c.unexpected, env)
	}
}

// waitFor blocks until a frame matching the criteria arrives.
func (c *Comm) waitFor(src, tag int, kind byte, seq uint64) (envelope, error) {
	return c.waitMatch(src, func(env envelope) bool {
		return c.accepts(env, src, tag, kind, seq)
	})
}

// startsMessage reports whether env is the first frame of a message
// matching (src, tag): an eager payload or an RTS.
func (c *Comm) startsMessage(env envelope, src, tag int) bool {
	return c.accepts(env, src, tag, kindEager, 0) || c.accepts(env, src, tag, kindRTS, 0)
}

// waitForSendStart waits for the first frame of an incoming message.
func (c *Comm) waitForSendStart(src, tag int) (envelope, error) {
	return c.waitMatch(src, func(env envelope) bool {
		return c.startsMessage(env, src, tag)
	})
}

// usable rejects operations on closed or crashed communicators.
func (c *Comm) usable() error {
	if c.closed || c.killed {
		return ErrClosed
	}
	return nil
}

// opBegin is the entry check of every blocking operation: closed state
// first, then an immediate fault check so an operation on a revoked
// communicator fails fast instead of pushing frames at dead ranks.
func (c *Comm) opBegin() error {
	if err := c.usable(); err != nil {
		return err
	}
	return c.liveness(AnySource, time.Time{})
}

// dataType is the datatype Send, Isend, Recv and Irecv use: the world's
// configured one, or raw bytes.
func (c *Comm) dataType() core.DataType {
	if cc := c.opts.Compression; cc != nil && cc.DataType != 0 {
		return cc.DataType
	}
	return core.TypeBytes
}

// Send transmits data to dst with the given tag, compressing on the fly
// per the world's PEDAL configuration. Send blocks until the message is
// on the wire (standard-mode semantics).
func (c *Comm) Send(dst, tag int, data []byte) error {
	return c.SendTyped(dst, tag, c.dataType(), data)
}

// SendTyped is Send with an explicit datatype (the Listing-1 datatype
// parameter; float types enable the lossy design). It is IsendTyped
// plus Wait, except that a pipelined world streams its Rendezvous
// messages as chunk frames.
func (c *Comm) SendTyped(dst, tag int, dt core.DataType, data []byte) error {
	if cc := c.opts.Compression; cc != nil && cc.Pipelined && len(data) >= c.opts.RendezvousThreshold {
		if err := c.opBegin(); err != nil {
			return err
		}
		return c.sendPipelined(dst, tag, dt, data)
	}
	r, err := c.IsendTyped(dst, tag, dt, data)
	if err != nil {
		return err
	}
	_, err = r.Wait()
	return err
}

// Recv receives a message from src with the given tag into a new buffer
// of at most maxLen bytes. It implements the receiver half of the PEDAL
// co-design: the transport delivers into a PEDAL-owned buffer, and the
// decompressed message is produced for the user without an extra copy.
func (c *Comm) Recv(src, tag int, maxLen int) ([]byte, error) {
	return c.RecvTyped(src, tag, c.dataType(), maxLen)
}

// RecvTyped is Recv with an explicit datatype for the lossy design.
func (c *Comm) RecvTyped(src, tag int, dt core.DataType, maxLen int) ([]byte, error) {
	if err := c.opBegin(); err != nil {
		return nil, err
	}
	env, err := c.waitForSendStart(src, tag)
	if err != nil {
		return nil, err
	}
	c.clock.AdvanceTo(durationOf(env.departure) + c.wire(envHeaderLen+len(env.payload)))
	if env.kind == kindEager || len(env.payload) > 0 {
		// An eager frame carries the message, an RTS with a payload a
		// pipelined stream descriptor; both announce the uncompressed
		// length.
		if maxLen > 0 && env.origLen > maxLen {
			return nil, fmt.Errorf("%w: %d > %d", ErrTruncate, env.origLen, maxLen)
		}
		if env.kind == kindEager {
			// Eager messages are never compressed.
			return env.payload, nil
		}
		return c.recvPipelined(env, maxLen)
	}
	// Grant: MPICH posts the receive with a PEDAL-generated buffer sized
	// from the RTS (paper §IV).
	if err := c.sendFrame(env.src, kindCTS, env.tag, env.seq, 0, nil); err != nil {
		return nil, err
	}
	data, err := c.waitFor(env.src, AnyTag, kindData, env.seq)
	if err != nil {
		return nil, err
	}
	c.clock.AdvanceTo(durationOf(data.departure) + c.wire(envHeaderLen+len(data.payload)))
	if maxLen > 0 && data.origLen > maxLen {
		return nil, fmt.Errorf("%w: %d > %d", ErrTruncate, data.origLen, maxLen)
	}
	if c.pedal == nil {
		return data.payload, nil
	}
	// PEDAL hook, receiver side: a compressing world compresses every
	// Rendezvous message, so DATA is a PEDAL message; it decompresses
	// from the PEDAL buffer directly into the user's buffer.
	out, rep, err := c.pedal.Decompress(c.opts.Compression.Design.Engine, dt, data.payload, maxLen)
	if err != nil {
		return nil, fmt.Errorf("mpi: pedal decompress: %w", err)
	}
	c.clock.Advance(rep.Virtual)
	c.mergePhases(rep)
	return out, nil
}

// mergePhases folds a PEDAL operation report into the rank's breakdown.
func (c *Comm) mergePhases(rep core.Report) {
	for p, d := range rep.Phases {
		c.bd.Add(stats.Phase(p), d)
	}
}

// durationOf converts a stamped departure (nanoseconds of virtual time)
// back to a duration.
func durationOf(ns int64) time.Duration { return time.Duration(ns) }
