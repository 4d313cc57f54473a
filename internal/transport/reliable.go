package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"pedal/internal/checksum"
	"pedal/internal/faults"
	"pedal/internal/simclock"
	"pedal/internal/stats"
	"pedal/internal/trace"
)

// This file implements the reliability sublayer: a wrapper that restores
// the Endpoint contract (per-(src,dst) FIFO delivery of uncorrupted
// frames, exactly once) on top of a fabric that drops, duplicates,
// reorders, corrupts and delays frames. It is the UCX/OFI "reliable
// connection" analogue the MPI co-design assumes: every payload is
// framed with a CRC-32 and a per-(src,dst) sequence number, receivers
// acknowledge cumulatively and NACK gaps or CRC failures, and senders
// retransmit unacknowledged frames with capped exponential backoff whose
// cost is charged as virtual time (simclock), so the MPI layer above
// runs unmodified over a lossy fabric.
//
// Wire format of a reliable frame (big-endian):
//
//	magic(2)='RL' kind(1) seq(8) crc(4) payload
//
// The CRC covers the header prefix (magic, kind, seq) and the payload,
// so a bit flip anywhere in the frame is detected.

// Reliable frame kinds.
const (
	relData = 1
	// relAck carries the receiver's next expected sequence number:
	// everything below it is acknowledged (cumulative ack).
	relAck = 2
	// relNack requests retransmission of one missing sequence number
	// (gap observed or frame rejected by CRC).
	relNack = 3
)

const (
	relMagic0, relMagic1 = 'R', 'L'
	relHeaderLen         = 2 + 1 + 8 + 4
)

// ErrUnreliable reports that a frame exhausted its retransmission budget
// — the peer is unreachable or the fabric is effectively dead.
var ErrUnreliable = errors.New("transport: reliability exhausted")

// ReliableOptions tunes the reliability sublayer.
type ReliableOptions struct {
	// RTO is the base retransmission timeout (real time between a send
	// and its first retransmission); zero means 2ms.
	RTO time.Duration
	// MaxRTO caps the exponential retransmission backoff; zero means
	// 40ms.
	MaxRTO time.Duration
	// MaxAttempts bounds retransmissions of a single frame before the
	// endpoint declares the link dead with ErrUnreliable; zero means 40,
	// negative means unlimited.
	MaxAttempts int
	// Stats accumulates reliability counters (retransmits, CRC rejects,
	// duplicates dropped, reorders healed) and retry virtual time; nil
	// allocates a private breakdown.
	Stats *stats.Breakdown
	// Clock, when set, is charged with the virtual cost of each
	// retransmission backoff, merging recovery latency into the rank's
	// simulated timeline.
	Clock *simclock.Clock
	// Tracer, when set, records retransmit and CRC-reject events on the
	// fabric timeline.
	Tracer *trace.Tracer
}

// NetStatser is implemented by endpoints that expose reliability
// counters (the reliable wrapper does).
type NetStatser interface {
	NetStats() *stats.Breakdown
}

// relOut is one unacknowledged outbound frame.
type relOut struct {
	frame     []byte
	departure time.Duration
	sentAt    time.Time
	attempts  int
}

type reliableEndpoint struct {
	inner Endpoint
	opts  ReliableOptions
	bd    *stats.Breakdown

	mu          sync.Mutex
	nextSeq     []uint64             // per dst: last assigned sequence
	outstanding []map[uint64]*relOut // per dst: unacked frames
	expected    []uint64             // per src: next expected sequence
	oooBuf      []map[uint64]Frame   // per src: out-of-order holding
	lastNack    []uint64             // per src: last NACKed expected seq
	failed      error

	delivery chan Frame
	done     chan struct{} // closed by Close
	recvDone chan struct{} // closed when the inner receive loop exits
	failedCh chan struct{} // closed on ErrUnreliable
	once     sync.Once
	failOnce sync.Once
	wg       sync.WaitGroup
}

// WrapReliable layers CRC framing, sequencing and ack/nack
// retransmission over ep. The wrapped endpoint must only talk to peers
// that are also wrapped (the protocol is symmetric).
func WrapReliable(ep Endpoint, opts ReliableOptions) Endpoint {
	if opts.RTO <= 0 {
		opts.RTO = 2 * time.Millisecond
	}
	if opts.MaxRTO <= 0 {
		opts.MaxRTO = 40 * time.Millisecond
	}
	if opts.MaxAttempts == 0 {
		opts.MaxAttempts = 40
	}
	if opts.Stats == nil {
		opts.Stats = stats.NewBreakdown()
	}
	n := ep.Size()
	r := &reliableEndpoint{
		inner:       ep,
		opts:        opts,
		bd:          opts.Stats,
		nextSeq:     make([]uint64, n),
		outstanding: make([]map[uint64]*relOut, n),
		expected:    make([]uint64, n),
		oooBuf:      make([]map[uint64]Frame, n),
		lastNack:    make([]uint64, n),
		delivery:    make(chan Frame, inboxDepth),
		done:        make(chan struct{}),
		recvDone:    make(chan struct{}),
		failedCh:    make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		r.outstanding[i] = make(map[uint64]*relOut)
		r.oooBuf[i] = make(map[uint64]Frame)
		r.expected[i] = 1
	}
	r.wg.Add(2)
	go r.recvLoop()
	go r.retransmitLoop()
	return r
}

func (r *reliableEndpoint) Rank() int { return r.inner.Rank() }
func (r *reliableEndpoint) Size() int { return r.inner.Size() }

// NetStats exposes the reliability counters and retry virtual time.
func (r *reliableEndpoint) NetStats() *stats.Breakdown { return r.bd }

func encodeRel(kind byte, seq uint64, payload []byte) []byte {
	buf := make([]byte, relHeaderLen+len(payload))
	buf[0], buf[1], buf[2] = relMagic0, relMagic1, kind
	binary.BigEndian.PutUint64(buf[3:11], seq)
	copy(buf[relHeaderLen:], payload)
	crc := checksum.CRC32Update(checksum.CRC32(buf[:11]), buf[relHeaderLen:])
	binary.BigEndian.PutUint32(buf[11:15], crc)
	return buf
}

// decodeRel validates the magic and CRC; ok=false means the frame is
// corrupt (or not a reliable frame at all) and must be dropped.
func decodeRel(data []byte) (kind byte, seq uint64, payload []byte, ok bool) {
	if len(data) < relHeaderLen || data[0] != relMagic0 || data[1] != relMagic1 {
		return 0, 0, nil, false
	}
	want := binary.BigEndian.Uint32(data[11:15])
	got := checksum.CRC32Update(checksum.CRC32(data[:11]), data[relHeaderLen:])
	if got != want {
		return 0, 0, nil, false
	}
	return data[2], binary.BigEndian.Uint64(data[3:11]), data[relHeaderLen:], true
}

func (r *reliableEndpoint) Send(dst int, data []byte, departure time.Duration) error {
	if dst < 0 || dst >= r.inner.Size() {
		return ErrBadRank
	}
	if len(data)+relHeaderLen > MaxFrameSize {
		return ErrTooLarge
	}
	r.mu.Lock()
	if r.failed != nil {
		err := r.failed
		r.mu.Unlock()
		return err
	}
	r.nextSeq[dst]++
	seq := r.nextSeq[dst]
	frame := encodeRel(relData, seq, data)
	r.outstanding[dst][seq] = &relOut{frame: frame, departure: departure, sentAt: time.Now()}
	r.mu.Unlock()
	return r.inner.Send(dst, frame, departure)
}

func (r *reliableEndpoint) Recv() (Frame, error) {
	// Prefer deliverable frames even when closing, matching the raw
	// providers' drain semantics.
	select {
	case f := <-r.delivery:
		return f, nil
	default:
	}
	select {
	case f := <-r.delivery:
		return f, nil
	case <-r.failedCh:
		return Frame{}, r.failErr()
	case <-r.done:
	case <-r.recvDone:
	}
	select {
	case f := <-r.delivery:
		return f, nil
	default:
		return Frame{}, ErrClosed
	}
}

func (r *reliableEndpoint) TryRecv() (Frame, bool, error) {
	select {
	case f := <-r.delivery:
		return f, true, nil
	default:
	}
	select {
	case <-r.failedCh:
		return Frame{}, false, r.failErr()
	case <-r.done:
		return Frame{}, false, ErrClosed
	case <-r.recvDone:
		return Frame{}, false, ErrClosed
	default:
		return Frame{}, false, nil
	}
}

func (r *reliableEndpoint) Close() error {
	r.once.Do(func() { close(r.done) })
	err := r.inner.Close()
	r.wg.Wait()
	return err
}

func (r *reliableEndpoint) failErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failed != nil {
		return r.failed
	}
	return ErrUnreliable
}

func (r *reliableEndpoint) fail(err error) {
	r.mu.Lock()
	if r.failed == nil {
		r.failed = err
	}
	r.mu.Unlock()
	r.failOnce.Do(func() { close(r.failedCh) })
}

// recvLoop drains the inner endpoint, reassembling the reliable streams
// and emitting in-order frames on the delivery channel.
func (r *reliableEndpoint) recvLoop() {
	defer r.wg.Done()
	defer close(r.recvDone)
	for {
		f, err := r.inner.Recv()
		if err != nil {
			return
		}
		if !r.process(f) {
			return
		}
	}
}

// process handles one raw frame; it reports false when delivery is shut
// down.
func (r *reliableEndpoint) process(f Frame) bool {
	kind, seq, payload, ok := decodeRel(f.Data)
	if !ok {
		// Corrupt frame. The transport metadata (source rank) is
		// link-level and survives payload corruption, so we can still
		// ask the sender for a retransmission of the earliest gap.
		r.bd.Inc(stats.CounterNetCorrupt)
		r.opts.Tracer.Record(trace.Event{
			Engine: "fabric", Op: "crc-reject", InBytes: len(f.Data), Err: "crc mismatch",
		})
		r.mu.Lock()
		exp := r.expected[f.Src]
		r.lastNack[f.Src] = exp
		r.mu.Unlock()
		r.sendCtl(f.Src, relNack, exp)
		return true
	}
	switch kind {
	case relAck:
		r.mu.Lock()
		progressed := false
		for s := range r.outstanding[f.Src] {
			if s < seq {
				delete(r.outstanding[f.Src], s)
				progressed = true
			}
		}
		if progressed {
			// The link is making progress: restart the retransmission
			// timers of the still-unacked tail (TCP-style), so a burst
			// that outruns the ack round trip is not retransmitted
			// wholesale.
			now := time.Now()
			for _, out := range r.outstanding[f.Src] {
				out.sentAt = now
			}
		}
		r.mu.Unlock()
		return true
	case relNack:
		r.mu.Lock()
		out, found := r.outstanding[f.Src][seq]
		var frame []byte
		var departure time.Duration
		if found {
			out.attempts++
			out.sentAt = time.Now()
			frame, departure = out.frame, out.departure
			r.bd.Inc(stats.CounterRetransmits)
		}
		r.mu.Unlock()
		if found {
			r.opts.Tracer.Record(trace.Event{Engine: "fabric", Op: "fast-retransmit", OutBytes: len(frame)})
			r.inner.Send(f.Src, frame, departure)
		}
		return true
	case relData:
		return r.processData(f.Src, seq, payload, f.Departure)
	default:
		// Unknown kind with a valid CRC: protocol bug; drop.
		r.bd.Inc(stats.CounterNetCorrupt)
		return true
	}
}

func (r *reliableEndpoint) processData(src int, seq uint64, payload []byte, departure time.Duration) bool {
	var deliverable []Frame
	var nackSeq uint64
	sendNack := false
	r.mu.Lock()
	exp := r.expected[src]
	switch {
	case seq == exp:
		deliverable = append(deliverable, Frame{Src: src, Data: payload, Departure: departure})
		exp++
		for {
			buf, okBuf := r.oooBuf[src][exp]
			if !okBuf {
				break
			}
			delete(r.oooBuf[src], exp)
			r.bd.Inc(stats.CounterNetReorders)
			deliverable = append(deliverable, buf)
			exp++
		}
		r.expected[src] = exp
		r.lastNack[src] = 0
	case seq > exp:
		if _, dup := r.oooBuf[src][seq]; dup {
			r.bd.Inc(stats.CounterNetDuplicates)
		} else {
			r.oooBuf[src][seq] = Frame{Src: src, Data: payload, Departure: departure}
			// Request the missing frame once per gap position; the RTO
			// retransmit covers a lost NACK.
			if r.lastNack[src] != exp {
				r.lastNack[src] = exp
				nackSeq = exp
				sendNack = true
			}
		}
	default: // seq < exp: already delivered
		r.bd.Inc(stats.CounterNetDuplicates)
	}
	r.mu.Unlock()
	if sendNack {
		r.bd.Inc(stats.CounterNetNacks)
		r.sendCtl(src, relNack, nackSeq)
	}
	for _, fr := range deliverable {
		select {
		case r.delivery <- fr:
		case <-r.done:
			return false
		}
	}
	// Cumulative ack after delivery so the ack never precedes the data
	// becoming visible.
	r.mu.Lock()
	ackSeq := r.expected[src]
	r.mu.Unlock()
	r.sendCtl(src, relAck, ackSeq)
	return true
}

// sendCtl emits an unsequenced control frame. Control frames are not
// themselves retransmitted: a lost ACK is repaired by the peer's RTO
// retransmission (which triggers a duplicate and a fresh ACK), a lost
// NACK by our own gap detection or the peer's RTO.
func (r *reliableEndpoint) sendCtl(dst int, kind byte, seq uint64) {
	r.inner.Send(dst, encodeRel(kind, seq, nil), 0)
}

// retransmitLoop re-sends unacknowledged frames whose retransmission
// timeout expired, with exponential backoff capped at MaxRTO. Each
// retransmission charges its backoff as virtual time: the frame's
// departure stamp moves forward (so modelled latency includes the
// recovery delay) and the configured clock/breakdown absorb the cost.
func (r *reliableEndpoint) retransmitLoop() {
	defer r.wg.Done()
	interval := r.opts.RTO / 2
	if interval < 200*time.Microsecond {
		interval = 200 * time.Microsecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-r.recvDone:
			return
		case <-ticker.C:
		}
		now := time.Now()
		type resend struct {
			dst       int
			frame     []byte
			departure time.Duration
		}
		var batch []resend
		r.mu.Lock()
		for dst := range r.outstanding {
			// Only the head-of-line frame per destination is probed by
			// the RTO: with cumulative acks, a lost head blocks all
			// progress on that stream, while later losses are repaired
			// by the receiver's gap NACKs. This keeps spurious
			// retransmission of a healthy-but-slow burst at O(1) per
			// RTO instead of O(window).
			var head uint64
			for seq := range r.outstanding[dst] {
				if head == 0 || seq < head {
					head = seq
				}
			}
			if head == 0 {
				continue
			}
			out := r.outstanding[dst][head]
			rto := faults.Backoff(out.attempts, r.opts.RTO, r.opts.MaxRTO, nil)
			if now.Sub(out.sentAt) < rto {
				continue
			}
			out.attempts++
			if r.opts.MaxAttempts > 0 && out.attempts > r.opts.MaxAttempts {
				err := fmt.Errorf("%w: frame seq %d to rank %d after %d attempts",
					ErrUnreliable, head, dst, out.attempts-1)
				r.mu.Unlock()
				r.fail(err)
				return
			}
			out.sentAt = now
			backoff := faults.Backoff(out.attempts, r.opts.RTO, r.opts.MaxRTO, nil)
			out.departure += backoff
			r.bd.Inc(stats.CounterRetransmits)
			r.bd.Add(stats.PhaseRetry, backoff)
			if r.opts.Clock != nil {
				r.opts.Clock.Advance(backoff)
			}
			batch = append(batch, resend{dst: dst, frame: out.frame, departure: out.departure})
		}
		r.mu.Unlock()
		for _, b := range batch {
			r.opts.Tracer.Record(trace.Event{Engine: "fabric", Op: "retransmit", OutBytes: len(b.frame)})
			if err := r.inner.Send(b.dst, b.frame, b.departure); err != nil {
				return
			}
		}
	}
}
