package service

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"

	"pedal/internal/core"
)

// fuzzCap bounds decoded payloads during fuzzing so the corpus cannot
// make a single iteration allocate gigabytes.
const fuzzCap = 1 << 20

// FuzzProtocol round-trips the wire framing: whatever the fuzzer feeds
// the decoders must either fail cleanly or decode into a frame that
// re-encodes and re-decodes to the same value. This is the framing the
// fleet router, the keepalive, and every client share — a desync here
// corrupts all of them at once.
func FuzzProtocol(f *testing.F) {
	// Seeds: a valid request, a valid OK response, a busy response with
	// a Retry-After hint, an error response, and a forged huge length.
	var req bytes.Buffer
	writeRequest(&req, request{op: opCompress, algo: 1, engine: 2, dtype: 1, maxOut: 64, data: []byte("payload")})
	f.Add(req.Bytes())
	var ok bytes.Buffer
	writeResponse(&ok, statusOK, []byte("result"))
	f.Add(ok.Bytes())
	var busy bytes.Buffer
	writeResponse(&busy, statusBusy, retryAfterBody(5*time.Millisecond))
	f.Add(busy.Bytes())
	var rerr bytes.Buffer
	writeResponse(&rerr, statusErr, []byte("bad engine"))
	f.Add(rerr.Bytes())
	huge := make([]byte, 20)
	binary.LittleEndian.PutUint64(huge[12:], 1<<62)
	f.Add(huge)

	// Requests go through the reader the connection handler runs, with the
	// memory budget off (heap bodies) and on (pool-drawn bodies).
	var servers []*Server
	for _, budget := range []int64{0, 4 * fuzzCap} {
		lib, err := core.Init(core.Options{MemBudget: budget})
		if err != nil {
			f.Fatal(err)
		}
		f.Cleanup(lib.Finalize)
		servers = append(servers, NewServer(lib))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, s := range servers {
			fuzzRequestRoundTrip(t, s, data)
		}
		fuzzResponseRoundTrip(t, data)
	})
}

func fuzzRequestRoundTrip(t *testing.T, s *Server, data []byte) {
	defer func() {
		if n := s.lib.PoolOutstanding(); n != 0 {
			t.Fatalf("%d request bodies still drawn from the pool", n)
		}
	}()
	req, putBody, _, err := s.readRequestGoverned(bytes.NewReader(data))
	if err != nil {
		return // malformed input must only error, never panic or hang
	}
	defer putBody()
	if len(req.data) > fuzzCap {
		return
	}
	var buf bytes.Buffer
	if err := writeRequest(&buf, req); err != nil {
		t.Fatalf("re-encode decoded request: %v", err)
	}
	again, putAgain, _, err := s.readRequestGoverned(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-decode encoded request: %v", err)
	}
	defer putAgain()
	if again.op != req.op || again.algo != req.algo || again.engine != req.engine ||
		again.dtype != req.dtype || again.maxOut != req.maxOut || !bytes.Equal(again.data, req.data) {
		t.Fatalf("request round trip changed the frame: %+v != %+v", again, req)
	}
}

func fuzzResponseRoundTrip(t *testing.T, data []byte) {
	body, err := readResponse(bytes.NewReader(data))
	switch {
	case err == nil:
		if len(body) > fuzzCap {
			return
		}
		var buf bytes.Buffer
		if werr := writeResponse(&buf, statusOK, body); werr != nil {
			t.Fatalf("re-encode OK response: %v", werr)
		}
		again, rerr := readResponse(bytes.NewReader(buf.Bytes()))
		if rerr != nil || !bytes.Equal(again, body) {
			t.Fatalf("OK response round trip: %v (%q != %q)", rerr, again, body)
		}
	case errors.Is(err, ErrBusy):
		// A busy decode must re-encode to an identical busy decode,
		// hint included.
		hint := RetryAfter(err)
		var buf bytes.Buffer
		if werr := writeResponse(&buf, statusBusy, retryAfterBody(hint)); werr != nil {
			t.Fatalf("re-encode busy response: %v", werr)
		}
		_, rerr := readResponse(bytes.NewReader(buf.Bytes()))
		if !errors.Is(rerr, ErrBusy) || RetryAfter(rerr) != hint {
			t.Fatalf("busy round trip lost the hint: %v (hint %v != %v)", rerr, RetryAfter(rerr), hint)
		}
	case errors.Is(err, ErrRemote):
		// Remote errors carry the server's text; nothing more to check
		// beyond the decode not panicking.
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
	default:
		// Length-bound rejections and similar: fine, as long as they
		// are errors and not hangs.
	}
}

// TestRetryAfterCodec pins the busy-hint wire format: 8 LE nanosecond
// bytes, empty body compatible in both directions, garbage tolerated.
func TestRetryAfterCodec(t *testing.T) {
	if body := retryAfterBody(0); body != nil {
		t.Fatalf("zero hint must encode as empty body, got %v", body)
	}
	if err := parseRetryAfter(nil); err != ErrBusy {
		t.Fatalf("empty busy body must decode as plain ErrBusy, got %v", err)
	}
	err := parseRetryAfter(retryAfterBody(7 * time.Millisecond))
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("hinted busy must still match ErrBusy, got %v", err)
	}
	if got := RetryAfter(err); got != 7*time.Millisecond {
		t.Fatalf("hint = %v, want 7ms", got)
	}
	// Garbage hints (wrong size, absurd values) degrade to plain busy.
	if err := parseRetryAfter([]byte{1, 2, 3}); err != ErrBusy {
		t.Fatalf("short body: %v", err)
	}
	if err := parseRetryAfter(retryAfterBody(time.Hour)); err != ErrBusy {
		t.Fatalf("oversized hint must be dropped, got %v", err)
	}
	if got := RetryAfter(errors.New("plain")); got != 0 {
		t.Fatalf("unhinted error yields %v, want 0", got)
	}
}
