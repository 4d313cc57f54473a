// Package service exposes a PEDAL library over TCP: the deployment where
// the DPU runs a compression daemon and host applications use it as a
// service (§VI: "the standalone PEDAL library is readily accessible to
// these applications"). The wire protocol is a simple length-prefixed
// binary request/response.
//
// Request:
//
//	op(1) algo(1) engine(1) dtype(1) maxOut(8 LE) len(8 LE) [deadline(8 LE)] payload
//
// The high bits of the op byte are flags: flagDeadline marks an extra
// 8-byte little-endian deadline hint (remaining nanoseconds of the
// caller's budget) between the fixed header and the payload, and
// flagBestEffort marks the request sheddable first under brownout.
// Both are opt-in on the client, so a legacy peer never sees them.
//
// Response:
//
//	status(1) len(8 LE) payload-or-error-text
package service

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"pedal/internal/dpu"
)

// Protocol op codes.
const (
	opCompress   = 1
	opDecompress = 2
	// opHealth asks for the daemon's engine fault-domain status; the
	// response body is a text line of space-separated key=value pairs
	// (the /health endpoint of a DPU compression daemon).
	opHealth = 3
	// opPing is the keepalive probe. The server answers before admission
	// control, so a ping measures the daemon process being alive, not
	// whether it has spare engine capacity: an overloaded-but-live
	// service keeps its sessions, a dead one is detected even while its
	// last responses are queued.
	opPing = 4
	// opCompressChecked / opDecompressChecked are the hop-carried-checksum
	// variants: the request payload is crc(4 LE) || data and the statusOK
	// response body is crc(4 LE) || payload. The server verifies the
	// request digest before touching the compression path and the client
	// verifies the response digest, so corruption on either direction of
	// the service hop surfaces as a typed integrity error instead of
	// silently reaching the application.
	opCompressChecked   = 5
	opDecompressChecked = 6
)

// Op-byte flags (overload fault domain). Flag-free requests are exactly
// the legacy wire format; a client only sets a flag when it was
// explicitly configured to, so old servers never see one.
const (
	// flagDeadline marks an 8-byte little-endian deadline hint (the
	// remaining nanoseconds of the caller's end-to-end budget) carried
	// between the fixed header and the payload.
	flagDeadline = 0x80
	// flagBestEffort marks the request as low priority: the server's
	// brownout ladder sheds flagged requests first under overload.
	flagBestEffort = 0x40
	// opMask recovers the op code from a flagged op byte.
	opMask = 0x3f
)

// maxWireDeadline bounds a deadline hint accepted off the wire; larger
// values are treated as garbage and dropped (the request still runs,
// just without a caller deadline).
const maxWireDeadline = time.Hour

// checkedDigestLen is the fixed little-endian CRC32 prefix carried by
// checked requests and responses.
const checkedDigestLen = 4

// Response status codes.
const (
	statusOK  = 0
	statusErr = 1
	// statusBusy refuses a request under admission control: both the
	// concurrent-handler semaphore and the wait queue are full. The
	// request was read in full and the connection stays usable; the
	// client surfaces ErrBusy and may retry.
	statusBusy = 2
	// statusDeadline reports that the request's deadline budget expired
	// before the work completed; the partial work was abandoned at a
	// checkpoint and its buffers released. The client surfaces a typed
	// DeadlineError (errors.Is dpu.ErrDeadline).
	statusDeadline = 3
)

// maxPayload bounds a single request or response body.
const maxPayload = 1 << 30

// ErrRemote wraps an error string returned by the server.
var ErrRemote = errors.New("service: remote error")

// ErrBusy reports that the server shed the request under overload. The
// connection remains usable; callers may retry, ideally after a
// backoff.
var ErrBusy = errors.New("service: server busy")

// BusyError is a shed carrying the server's Retry-After hint. It
// matches errors.Is(err, ErrBusy), so existing callers that only test
// for ErrBusy keep working; hint-aware callers recover the duration via
// RetryAfter.
type BusyError struct {
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("service: server busy (retry after %v)", e.RetryAfter)
}

// Is makes errors.Is(err, ErrBusy) match.
func (e *BusyError) Is(target error) bool { return target == ErrBusy }

// RetryAfterDuration exposes the hint to the RetryAfter helper.
func (e *BusyError) RetryAfterDuration() time.Duration { return e.RetryAfter }

// RetryAfter extracts a Retry-After hint from any error in err's chain
// (BusyError here, the fleet router's shed errors, ...). Zero means no
// hint.
func RetryAfter(err error) time.Duration {
	for err != nil {
		if h, ok := err.(interface{ RetryAfterDuration() time.Duration }); ok {
			return h.RetryAfterDuration()
		}
		err = errors.Unwrap(err)
	}
	return 0
}

// maxRetryAfter bounds a hint accepted off the wire; anything larger is
// treated as garbage and dropped (the shed still surfaces as ErrBusy).
const maxRetryAfter = time.Minute

// DeadlineError reports that a call's end-to-end deadline budget ran
// out — on the server (statusDeadline: the work was abandoned at a
// checkpoint) or on the client (a retry backoff would have overrun the
// caller's budget). It matches errors.Is(err, dpu.ErrDeadline), so the
// overload fault domain surfaces one typed error at every layer, and it
// carries the last Retry-After hint seen so callers that re-enqueue the
// work know how long the congestion is expected to last.
type DeadlineError struct {
	// RetryAfter is the last busy hint observed before the budget ran
	// out; zero when none was seen.
	RetryAfter time.Duration
	// Msg describes where the budget was exhausted.
	Msg string
}

func (e *DeadlineError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("service: deadline exceeded: %s (retry after %v)", e.Msg, e.RetryAfter)
	}
	return "service: deadline exceeded: " + e.Msg
}

// Is makes errors.Is(err, dpu.ErrDeadline) match.
func (e *DeadlineError) Is(target error) bool { return target == dpu.ErrDeadline }

// RetryAfterDuration exposes the hint to the RetryAfter helper.
func (e *DeadlineError) RetryAfterDuration() time.Duration { return e.RetryAfter }

// retryAfterBody encodes a positive Retry-After hint as a statusBusy
// body: 8 bytes, little-endian nanoseconds. An empty body (the pre-hint
// wire format) still decodes as a plain ErrBusy, keeping old and new
// peers compatible in both directions.
func retryAfterBody(d time.Duration) []byte {
	if d <= 0 {
		return nil
	}
	body := make([]byte, 8)
	binary.LittleEndian.PutUint64(body, uint64(d))
	return body
}

// parseRetryAfter decodes a statusBusy body into the typed busy error.
func parseRetryAfter(body []byte) error {
	if len(body) == 8 {
		d := time.Duration(binary.LittleEndian.Uint64(body))
		if d > 0 && d <= maxRetryAfter {
			return &BusyError{RetryAfter: d}
		}
	}
	return ErrBusy
}

type request struct {
	op     byte
	algo   byte
	engine byte
	dtype  byte
	maxOut int64
	data   []byte
	// deadline is the caller's remaining budget hint (flagDeadline);
	// zero means none was carried.
	deadline time.Duration
	// bestEffort marks the request sheddable first (flagBestEffort).
	bestEffort bool
	// deadlineAt is the server-side absolute deadline, stamped when the
	// request is read so queue wait counts against the budget.
	deadlineAt time.Time
}

// coalesceLimit bounds the payload size up to which header and body are
// copied into one buffer and written with a single Write (one syscall,
// no partial-write interleaving window). Larger bodies use writev-style
// vectored output instead of paying a large copy.
const coalesceLimit = 64 << 10

// writeFrame emits hdr followed by body as a single logical write: one
// buffered Write for small bodies, a vectored net.Buffers write (one
// writev syscall on TCP) for large ones.
func writeFrame(w io.Writer, hdr, body []byte) error {
	if len(body) == 0 {
		_, err := w.Write(hdr)
		return err
	}
	if len(body) <= coalesceLimit {
		buf := make([]byte, 0, len(hdr)+len(body))
		buf = append(buf, hdr...)
		buf = append(buf, body...)
		_, err := w.Write(buf)
		return err
	}
	bufs := net.Buffers{hdr, body}
	_, err := bufs.WriteTo(w)
	return err
}

func writeRequest(w io.Writer, r request) error {
	op := r.op
	extra := 0
	if r.deadline > 0 {
		op |= flagDeadline
		extra = 8
	}
	if r.bestEffort {
		op |= flagBestEffort
	}
	hdr := make([]byte, 4+8+8+extra)
	hdr[0], hdr[1], hdr[2], hdr[3] = op, r.algo, r.engine, r.dtype
	binary.LittleEndian.PutUint64(hdr[4:], uint64(r.maxOut))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(len(r.data)))
	if extra > 0 {
		binary.LittleEndian.PutUint64(hdr[20:], uint64(r.deadline))
	}
	return writeFrame(w, hdr, r.data)
}

// readRequestHeader reads and parses the fixed header (plus the deadline
// extension when flagged) and returns the request metadata and the body
// length still on the wire.
func readRequestHeader(r io.Reader) (request, uint64, error) {
	hdr := make([]byte, 4+8+8)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return request{}, 0, err
	}
	req := request{op: hdr[0] & opMask, algo: hdr[1], engine: hdr[2], dtype: hdr[3]}
	req.bestEffort = hdr[0]&flagBestEffort != 0
	req.maxOut = int64(binary.LittleEndian.Uint64(hdr[4:]))
	n := binary.LittleEndian.Uint64(hdr[12:])
	if n > maxPayload {
		return request{}, 0, fmt.Errorf("service: request payload %d too large", n)
	}
	if hdr[0]&flagDeadline != 0 {
		var ext [8]byte
		if _, err := io.ReadFull(r, ext[:]); err != nil {
			return request{}, 0, err
		}
		d := time.Duration(binary.LittleEndian.Uint64(ext[:]))
		if d > 0 && d <= maxWireDeadline {
			req.deadline = d
			req.deadlineAt = time.Now().Add(d)
		}
	}
	return req, n, nil
}

// bodyChunk is the allocation step for reading length-prefixed bodies.
const bodyChunk = 1 << 20

// readBody reads an n-byte body in bounded chunks, growing the buffer
// as bytes actually arrive. A forged length prefix therefore cannot
// make the peer allocate maxPayload up front — the connection fails at
// the first missing byte having bought at most one chunk.
func readBody(r io.Reader, n uint64) ([]byte, error) {
	if n == 0 {
		return []byte{}, nil
	}
	if n <= bodyChunk {
		body := make([]byte, n)
		if _, err := io.ReadFull(r, body); err != nil {
			return nil, err
		}
		return body, nil
	}
	body := make([]byte, 0, bodyChunk)
	for uint64(len(body)) < n {
		step := n - uint64(len(body))
		if step > bodyChunk {
			step = bodyChunk
		}
		off := len(body)
		body = append(body, make([]byte, step)...)
		if _, err := io.ReadFull(r, body[off:]); err != nil {
			return nil, err
		}
	}
	return body, nil
}

func writeResponse(w io.Writer, status byte, body []byte) error {
	hdr := make([]byte, 1+8)
	hdr[0] = status
	binary.LittleEndian.PutUint64(hdr[1:], uint64(len(body)))
	return writeFrame(w, hdr, body)
}

func readResponse(r io.Reader) ([]byte, error) {
	hdr := make([]byte, 1+8)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint64(hdr[1:])
	if n > maxPayload {
		return nil, fmt.Errorf("service: response payload %d too large", n)
	}
	body, err := readBody(r, n)
	if err != nil {
		return nil, err
	}
	switch hdr[0] {
	case statusOK:
		return body, nil
	case statusBusy:
		return nil, parseRetryAfter(body)
	case statusDeadline:
		return nil, &DeadlineError{Msg: "server abandoned work: " + string(body)}
	default:
		return nil, fmt.Errorf("%w: %s", ErrRemote, body)
	}
}
