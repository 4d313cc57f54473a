package pipeline

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"pedal/internal/checksum"
	"pedal/internal/dpu"
	"pedal/internal/flate"
	"pedal/internal/hwmodel"
	"pedal/internal/integrity"
	"pedal/internal/lz4"
	"pedal/internal/sz3"
	"pedal/internal/zlibfmt"
)

// DecompressSession reassembles a chunked payload while chunks are still
// in flight: each Submit schedules the chunk's decompression across the
// SoC workers and the C-Engine immediately, decoding straight into the
// chunk's slot of the preallocated output buffer. Submit is not safe for
// concurrent use (the MPI progress loop calls it from one goroutine);
// the decode work itself runs concurrently.
type DecompressSession struct {
	p         *Pipeline
	spec      Spec
	out       []byte
	chunkSize int
	count     int
	seen      []bool
	submitted int
	pl        *planner
	wg        sync.WaitGroup
	// wantCRC is the descriptor-carried CRC of the whole uncompressed
	// payload (zero when the source did not carry one); Wait checks the
	// reassembled output against it.
	wantCRC uint32

	// jobs holds each engine chunk's job outcome, reported to the engine
	// in index order once the session's decodes are done.
	jobs []jobOutcome

	mu       sync.Mutex
	firstErr error
	replays  int
	aborted  bool
	resolved bool
}

type jobOutcome struct {
	ran bool
	err error
}

// ErrAborted reports a decompression session cancelled by Abort before
// all chunks arrived (the sending rank died mid-stream, the MPI wait was
// revoked, ...).
var ErrAborted = errors.New("pipeline: session aborted")

// NewDecompress opens a reassembly session for count chunks of
// chunkSize bytes (the last possibly shorter) totalling origLen
// uncompressed bytes. The geometry is validated against origLen so a
// corrupt descriptor cannot cause over-allocation. srcCRC is the
// descriptor-carried CRC of the uncompressed payload (zero when not
// carried); Wait checks the reassembled output against it, so
// end-to-end corruption — even a corrupt chunk whose frame CRC was
// recomputed by a malicious or buggy hop — cannot reach the caller
// undetected.
func (p *Pipeline) NewDecompress(spec Spec, count, chunkSize, origLen int, srcCRC uint32) (*DecompressSession, error) {
	if !spec.Algo.valid() {
		return nil, fmt.Errorf("%w: algo %d", ErrBadSpec, spec.Algo)
	}
	if count < 0 || count > MaxChunks || origLen < 0 {
		return nil, fmt.Errorf("%w: count %d origLen %d", ErrBadSpec, count, origLen)
	}
	if count == 0 {
		if origLen != 0 {
			return nil, fmt.Errorf("%w: zero chunks but origLen %d", ErrBadSpec, origLen)
		}
		return &DecompressSession{p: p, spec: spec, wantCRC: srcCRC}, nil
	}
	if chunkSize <= 0 {
		return nil, fmt.Errorf("%w: chunk size %d", ErrBadSpec, chunkSize)
	}
	// origLen must land inside the last chunk: (count-1)*chunkSize <
	// origLen ≤ count*chunkSize, guarding against both truncated and
	// padded descriptors.
	if origLen > count*chunkSize || origLen <= (count-1)*chunkSize {
		return nil, fmt.Errorf("%w: %d chunks of %d cannot cover %d bytes", ErrBadSpec, count, chunkSize, origLen)
	}
	return &DecompressSession{
		p:         p,
		spec:      spec,
		out:       make([]byte, origLen),
		chunkSize: chunkSize,
		count:     count,
		seen:      make([]bool, count),
		jobs:      make([]jobOutcome, count),
		pl:        p.newPlanner(spec, hwmodel.Decompress),
		wantCRC:   srcCRC,
	}, nil
}

// Submit schedules chunk index, whose uncompressed size is origLen and
// compressed body is comp, arriving at the given virtual time (the
// receiver's clock when the chunk's frame landed). comp must stay valid
// and unmodified until Wait returns. Chunks may arrive in any order.
//
// crc is the frame-carried source CRC of comp (zero when not carried):
// this hop checks the received bytes against it and rejects a mismatch
// with a typed integrity.CorruptError identifying the chunk, before any
// decode work is scheduled.
func (s *DecompressSession) Submit(index, origLen int, crc uint32, comp []byte, arrival time.Duration) error {
	s.mu.Lock()
	aborted := s.aborted
	s.mu.Unlock()
	if aborted {
		return ErrAborted
	}
	if index < 0 || index >= s.count {
		return fmt.Errorf("%w: index %d of %d", ErrBadChunk, index, s.count)
	}
	if crc != 0 {
		if got := checksum.CRC32(comp); got != crc {
			return &integrity.CorruptError{Hop: "pipeline.submit", Segment: "chunk", Index: index, Want: crc, Got: got}
		}
	}
	if s.seen[index] {
		return fmt.Errorf("%w: duplicate index %d", ErrBadChunk, index)
	}
	off := index * s.chunkSize
	want := s.chunkSize
	if off+want > len(s.out) {
		want = len(s.out) - off
	}
	if origLen != want {
		return fmt.Errorf("%w: chunk %d declares %d bytes, geometry says %d", ErrBadChunk, index, origLen, want)
	}
	s.seen[index] = true
	s.submitted++
	_, engine := s.pl.place(arrival, origLen)
	// Full-capacity slice so the decoder cannot spill past the slot even
	// transiently.
	slot := s.out[off : off : off+origLen]

	if engine {
		h, err := s.pl.eng.TrySubmit(dpu.Job{
			Algo: s.pl.engAlgo, Op: hwmodel.Decompress, Input: comp, MaxOutput: origLen,
		})
		if err == nil {
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				res := h.Wait()
				jobErr := res.Err
				if jobErr == nil && !res.VerifyOutput() {
					jobErr = dpu.ErrCorrupt
				}
				s.jobs[index] = jobOutcome{ran: true, err: jobErr}
				if jobErr == nil && len(res.Output) == origLen {
					copy(slot[:origLen], res.Output)
					return
				}
				// Hardware failure: decode in software instead. An
				// ErrEngineLost result is a journal replay — the chunk's
				// slot geometry guarantees exactly-once delivery into the
				// output no matter which path wins.
				if errors.Is(res.Err, dpu.ErrEngineLost) {
					s.mu.Lock()
					s.replays++
					s.mu.Unlock()
				}
				s.fail(s.decode(comp, slot, origLen))
			}()
			return nil
		}
		// Queue saturated: fall through to the SoC pool.
	}
	s.wg.Add(1)
	s.p.jobs <- func(int) {
		defer s.wg.Done()
		s.fail(s.decode(comp, slot, origLen))
	}
	return nil
}

func (s *DecompressSession) fail(err error) {
	if err == nil {
		return
	}
	s.mu.Lock()
	if s.firstErr == nil {
		s.firstErr = err
	}
	s.mu.Unlock()
}

// decode decompresses comp into slot (a zero-length slice whose capacity
// is exactly origLen).
func (s *DecompressSession) decode(comp, slot []byte, origLen int) error {
	out, err := Decode(s.spec.Algo, slot, comp, origLen)
	if err != nil {
		return err
	}
	if len(out) != origLen {
		return fmt.Errorf("%w: %v chunk decoded %d of %d bytes", ErrBadChunk, s.spec.Algo, len(out), origLen)
	}
	return nil
}

// Decode is the codec table's decoder: it expands comp, appending to dst,
// and returns the extended slice; a nil dst returns freshly allocated
// output. limit caps the lossless codecs' output; an SZ3 stream's size is
// only known once decoded, so its callers check the returned length.
// Output that fits dst's capacity is written in place — a session's slot
// is exactly that — and output that does not is returned in a new
// allocation, never written past the slot.
func Decode(algo Algo, dst, comp []byte, limit int) ([]byte, error) {
	switch algo {
	case AlgoDeflate:
		return flate.AppendDecompress(dst, comp, limit)
	case AlgoZlib:
		out, err := zlibfmt.DecompressLimit(comp, limit)
		return into(dst, out), err
	case AlgoLZ4:
		out, err := lz4.DecompressLimit(comp, limit)
		return into(dst, out), err
	case AlgoSZ3F32:
		vals, _, err := sz3.DecompressFloat32(comp)
		if err != nil {
			return nil, err
		}
		out := append(dst, make([]byte, len(vals)*4)...)
		for i, v := range vals {
			binary.LittleEndian.PutUint32(out[len(dst)+i*4:], math.Float32bits(v))
		}
		return out, nil
	case AlgoSZ3F64:
		vals, _, err := sz3.DecompressFloat64(comp)
		if err != nil {
			return nil, err
		}
		out := append(dst, make([]byte, len(vals)*8)...)
		for i, v := range vals {
			binary.LittleEndian.PutUint64(out[len(dst)+i*8:], math.Float64bits(v))
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: algo %d", ErrBadSpec, algo)
	}
}

// into appends out to dst, or adopts out as is when the caller supplied
// no destination.
func into(dst, out []byte) []byte {
	if dst == nil {
		return out
	}
	return append(dst, out...)
}

// Abort cancels the session: it waits for already-submitted chunks to
// finish decoding — so no decode goroutine outlives the session and the
// caller may reuse submitted frame buffers immediately — then poisons
// the session so later Submits fail with ErrAborted and Wait reports the
// abort. Abort is idempotent and safe after a failed Submit; an MPI
// receive interrupted by a rank failure calls it so a half-arrived
// stream leaks neither goroutines nor buffers.
func (s *DecompressSession) Abort() {
	s.wg.Wait()
	s.resolve()
	s.mu.Lock()
	s.aborted = true
	if s.firstErr == nil {
		s.firstErr = ErrAborted
	}
	s.mu.Unlock()
	s.out = nil
}

// Wait blocks until every submitted chunk has decoded and returns the
// reassembled payload with the session's virtual-time summary. It fails
// with ErrIncomplete when chunks are missing.
func (s *DecompressSession) Wait() ([]byte, Summary, error) {
	s.mu.Lock()
	aborted := s.aborted
	s.mu.Unlock()
	if aborted {
		return nil, Summary{}, ErrAborted
	}
	s.wg.Wait()
	s.resolve()
	if s.submitted != s.count {
		return nil, Summary{}, fmt.Errorf("%w: %d of %d submitted", ErrIncomplete, s.submitted, s.count)
	}
	sum := Summary{Chunks: s.count, ChunkSize: s.chunkSize}
	if s.pl != nil {
		sum.Makespan = s.pl.makespan
		sum.Busy = s.pl.busy
		sum.EngineChunks = s.pl.engChunks
	}
	s.mu.Lock()
	err := s.firstErr
	sum.Replayed = s.replays
	s.mu.Unlock()
	if err != nil {
		return nil, sum, err
	}
	// End-to-end check: the reassembled payload must match the CRC the
	// source computed before any chunking, compression, or transit.
	if s.wantCRC != 0 {
		if got := checksum.CRC32(s.out); got != s.wantCRC {
			return nil, sum, &integrity.CorruptError{Hop: "pipeline.wait", Segment: "payload", Want: s.wantCRC, Got: got}
		}
	}
	return s.out, sum, nil
}

// resolve settles the session's engine admission once its decodes are
// done: every engine chunk's outcome is reported in index order, and an
// admission no chunk ran on is released. Later calls do nothing.
func (s *DecompressSession) resolve() {
	s.mu.Lock()
	settled := s.resolved
	s.resolved = true
	s.mu.Unlock()
	if settled || s.pl == nil {
		return
	}
	for _, j := range s.jobs {
		if j.ran {
			s.pl.report(j.err)
		}
	}
	s.pl.done()
}

// bytesToF32 reinterprets little-endian bytes as float32 values.
func bytesToF32(data []byte) ([]float32, error) {
	if len(data)%4 != 0 {
		return nil, fmt.Errorf("%w: %d bytes not float32-aligned", ErrBadChunk, len(data))
	}
	out := make([]float32, len(data)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[i*4:]))
	}
	return out, nil
}

// bytesToF64 reinterprets little-endian bytes as float64 values.
func bytesToF64(data []byte) ([]float64, error) {
	if len(data)%8 != 0 {
		return nil, fmt.Errorf("%w: %d bytes not float64-aligned", ErrBadChunk, len(data))
	}
	out := make([]float64, len(data)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return out, nil
}
