package mpi

import (
	"fmt"
	"time"

	"pedal/internal/core"
)

// Request tracks a nonblocking operation started by Isend or Irecv.
// Complete it with Wait (blocking) or poll it with Test. A Comm and its
// Requests must be driven by the rank's single goroutine, like a real
// MPI rank.
type Request struct {
	c    *Comm
	done bool
	err  error
	data []byte // completed receive payload

	// Send state.
	isSend  bool
	dst     int
	tag     int
	seq     uint64
	payload []byte
	// pooled marks payload as a PEDAL pool buffer that must be released
	// once the DATA frame is on the wire (or the request aborts).
	pooled  bool
	origLen int

	// Recv state.
	src    int
	dt     core.DataType
	maxLen int
}

// Isend starts a nonblocking standard send. Eager messages complete
// immediately; Rendezvous messages complete in Wait/Test once the
// receiver grants the transfer (CTS) and the data frame is on the wire.
func (c *Comm) Isend(dst, tag int, data []byte) (*Request, error) {
	return c.IsendTyped(dst, tag, c.dataType(), data)
}

// IsendTyped is Isend with an explicit datatype.
func (c *Comm) IsendTyped(dst, tag int, dt core.DataType, data []byte) (*Request, error) {
	if err := c.opBegin(); err != nil {
		return nil, err
	}
	r := &Request{c: c, isSend: true, dst: dst, tag: tag, origLen: len(data)}
	if len(data) < c.opts.RendezvousThreshold {
		// Eager: single frame, payload inline and never compressed.
		r.done = true
		r.err = c.sendFrame(dst, kindEager, tag, c.nextSeq(), len(data), data)
		return r, r.err
	}
	r.payload = data
	// PEDAL hook, sender side: between the shim and transport layers
	// (Fig. 6). A compressing world compresses every Rendezvous message.
	if c.pedal != nil {
		msg, rep, err := c.pedal.Compress(c.opts.Compression.Design, dt, data)
		if err != nil {
			return nil, fmt.Errorf("mpi: pedal compress: %w", err)
		}
		r.payload, r.pooled = msg, true
		c.clock.Advance(rep.Virtual)
		c.mergePhases(rep)
	}
	// Rendezvous: the RTS carries the payload size; the receiver posts a
	// buffer of that size and grants with CTS. Register before the RTS
	// leaves so any blocking wait can service the CTS the moment it
	// arrives (progress-engine semantics, progressCTS).
	r.seq = c.nextSeq()
	c.pending[r.seq] = r
	if err := c.sendFrame(dst, kindRTS, tag, r.seq, len(r.payload), nil); err != nil {
		r.abortSend(err)
		return r, err
	}
	return r, nil
}

// release returns a pooled compressed payload to the PEDAL pool. The
// envelope encoder copies onto the wire, so this is safe the moment the
// frame has been sent — and mandatory when the request aborts, or the
// fault soaks would count a leaked buffer.
func (r *Request) release() {
	if r.pooled && r.payload != nil {
		r.c.pedal.Release(r.payload)
	}
	r.pooled = false
	r.payload = nil
}

// abortSend completes a pending send with err, deregistering it from the
// progress engine and releasing its payload.
func (r *Request) abortSend(err error) {
	delete(r.c.pending, r.seq)
	r.release()
	r.done, r.err = true, err
}

// Irecv starts a nonblocking receive. The match and transfer happen in
// Wait or Test.
func (c *Comm) Irecv(src, tag int, maxLen int) (*Request, error) {
	return c.IrecvTyped(src, tag, c.dataType(), maxLen)
}

// IrecvTyped is Irecv with an explicit datatype.
func (c *Comm) IrecvTyped(src, tag int, dt core.DataType, maxLen int) (*Request, error) {
	if err := c.usable(); err != nil {
		return nil, err
	}
	return &Request{c: c, src: src, tag: tag, dt: dt, maxLen: maxLen}, nil
}

// Wait blocks until the request completes and returns the received
// payload (nil for sends). A rank failure or revocation completes the
// request with ErrRankFailed instead of blocking forever.
func (r *Request) Wait() ([]byte, error) {
	if r.done {
		return r.data, r.err
	}
	if r.isSend {
		// Drive the progress engine until our own CTS has been serviced
		// (possibly by a nested wait that ran while we were blocked
		// elsewhere).
		c := r.c
		start := time.Now()
		for !r.done {
			env, ok, err := c.step(r.dst, start)
			if err != nil {
				r.abortSend(err)
				return nil, err
			}
			if ok {
				c.unexpected = append(c.unexpected, env)
			}
		}
		return nil, r.err
	}
	r.data, r.err = r.c.RecvTyped(r.src, r.tag, r.dt, r.maxLen)
	r.done = true
	return r.data, r.err
}

// Test polls for completion without blocking on a quiet network. When it
// reports true the request is complete and the payload (for receives) is
// returned. Note: once a matching first frame has arrived, Test finishes
// the remaining protocol steps, which can involve bounded waiting for a
// rendezvous data frame (real MPI progress engines behave the same way).
func (r *Request) Test() ([]byte, bool, error) {
	if r.done {
		return r.data, true, r.err
	}
	c := r.c
	// Drain everything immediately available, absorbing control frames
	// and pending-send CTS grants (which may complete this very request)
	// and queueing the rest.
	if err := c.drain(); err != nil {
		if r.isSend {
			r.abortSend(err)
		} else {
			r.done, r.err = true, err
		}
		return nil, true, err
	}
	if r.isSend {
		// A failure detector revocation also completes the request: the
		// CTS this send waits for is never coming.
		if !r.done && c.det != nil {
			if err := c.liveness(r.dst, time.Time{}); err != nil {
				r.abortSend(err)
				return nil, true, err
			}
		}
		return nil, r.done, r.err
	}
	for _, env := range c.unexpected {
		if c.startsMessage(env, r.src, r.tag) {
			data, err := r.Wait()
			return data, true, err
		}
	}
	return nil, false, nil
}

// drain pulls every immediately-available frame off the transport,
// running each through absorb (control frames, stale drops, CTS
// progress) and parking the rest on the unexpected queue.
func (c *Comm) drain() error {
	for {
		f, ok, err := c.ep.TryRecv()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		env, err := decodeEnvelope(f.Src, f.Data, int64(f.Departure))
		if err != nil {
			return err
		}
		if c.absorb(&env) {
			continue
		}
		c.unexpected = append(c.unexpected, env)
	}
}

// Waitall completes every request in order and returns the first error.
func Waitall(reqs ...*Request) error {
	var firstErr error
	for _, r := range reqs {
		if r == nil {
			continue
		}
		if _, err := r.Wait(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Probe reports whether a message matching (src, tag) is available
// without receiving it, returning its source, tag and payload size when
// present (MPI_Iprobe semantics: nonblocking).
func (c *Comm) Probe(src, tag int) (fromRank, msgTag, size int, ok bool, err error) {
	if err := c.usable(); err != nil {
		return 0, 0, 0, false, err
	}
	if err := c.drain(); err != nil {
		return 0, 0, 0, false, err
	}
	for _, env := range c.unexpected {
		if c.startsMessage(env, src, tag) {
			// The RTS advertises the (possibly compressed) payload size.
			return c.groupOf(env.world), env.tag, env.origLen, true, nil
		}
	}
	return 0, 0, 0, false, nil
}

// Sendrecv performs a simultaneous send and receive, the standard idiom
// for shift exchanges that would deadlock with two blocking calls.
func (c *Comm) Sendrecv(dst, sendTag int, sendData []byte, src, recvTag int, maxLen int) ([]byte, error) {
	sreq, err := c.Isend(dst, sendTag, sendData)
	if err != nil {
		return nil, err
	}
	got, err := c.Recv(src, recvTag, maxLen)
	if err != nil {
		if !sreq.done {
			// The exchange is dead; don't leave the send registered (or
			// its pooled payload held) in the progress engine.
			sreq.abortSend(err)
		}
		return nil, err
	}
	if _, err := sreq.Wait(); err != nil {
		return nil, err
	}
	return got, nil
}
