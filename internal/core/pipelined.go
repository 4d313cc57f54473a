package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"pedal/internal/dpu"
	"pedal/internal/flate"
	"pedal/internal/hwmodel"
	"pedal/internal/integrity"
	"pedal/internal/pipeline"
	"pedal/internal/stats"
)

// AlgoPipelined marks a chunked-pipeline payload: a stream descriptor
// followed by self-describing chunk frames in completion order (see
// internal/pipeline). The inner codec is named by the descriptor, so one
// AlgoID covers every design routed through the pipeline.
const AlgoPipelined AlgoID = 6

// PipelineSpec maps a PEDAL design and datatype onto the chunk pipeline's
// spec (the MPI runtime, which streams chunks over the wire itself, uses
// it too). Hybrid rides the deflate engine split; zlib and LZ4 compress
// on the SoC (LZ4 still decompresses on BlueField-3's engine); SZ3 runs
// its SoC core with the FastLZ backend per chunk.
func (l *Library) PipelineSpec(d Design, dt DataType) (pipeline.Spec, error) {
	spec, err := l.codecSpec(d, dt)
	if err != nil {
		return spec, err
	}
	spec.Engine = d.Engine == hwmodel.CEngine || d.Algo == AlgoHybrid
	spec.Sampler = l.sampler
	spec.SDC = l.sdc
	// Chunks are independent 1-D streams; the multi-dim shape cannot
	// survive chunking, so the per-chunk config drops Dims.
	spec.SZ3.Dims = nil
	return spec, nil
}

// Pipeline exposes the library's chunk pipeline.
func (l *Library) Pipeline() *pipeline.Pipeline { return l.pl }

// CompressPipelined compresses data through the chunked pipeline and
// returns a self-contained wire message:
//
//	PEDAL header (AlgoPipelined) | descriptor | chunk frames
//
// Frames appear in completion order, not index order. The report's
// Virtual time is the pipeline makespan — the longest resource critical
// path, not the sum of chunk costs — which is the whole point: with k
// chunks spread over the SoC cores and the C-Engine, makespan ≈
// serial/k on the SoC side, and engine fixed costs are paid once.
func (l *Library) CompressPipelined(d Design, dt DataType, data []byte) ([]byte, Report, error) {
	return l.CompressPipelinedContext(context.Background(), d, dt, data)
}

// CompressPipelinedContext is CompressPipelined bounded by a caller
// deadline: the pipeline's dispatch and delivery loops checkpoint ctx
// per chunk, expired operations abandon with a typed dpu.ErrDeadline,
// and the partially-assembled output buffer returns to the pool.
func (l *Library) CompressPipelinedContext(ctx context.Context, d Design, dt DataType, data []byte) ([]byte, Report, error) {
	if err := l.enter(); err != nil {
		return nil, Report{}, err
	}
	defer l.mu.RUnlock()
	o := new(op)
	l.beginOp(o, ctx, Report{Design: d, InBytes: len(data)})
	defer l.endOp(o)
	msg, err := l.compressPipelined(o, d, dt, data)
	if err != nil {
		return nil, o.rep, err
	}
	o.finish()
	return msg, o.rep, nil
}

// compressPipelined runs one operation through the chunk pipeline and
// assembles the wire message; Compress routes the hybrid design here.
func (l *Library) compressPipelined(o *op, d Design, dt DataType, data []byte) ([]byte, error) {
	o.rep.Engine = hwmodel.SoC
	if err := l.checkDeadline(o, "compress-pipelined"); err != nil {
		return nil, err
	}
	spec, err := l.PipelineSpec(d, dt)
	if err != nil {
		return nil, err
	}
	// Pin the chunk size so the descriptor and the execution agree.
	spec.ChunkSize = l.pl.ChunkSizeFor(len(data), spec)
	count := 0
	if len(data) > 0 {
		count = (len(data) + spec.ChunkSize - 1) / spec.ChunkSize
	}
	l.chargeSoCBufPrep(o, len(data))
	// The descriptor carries the source payload CRC only under
	// VerifyFull — and even then no serial digest pass runs here: the
	// pipeline workers each CRC their own chunk alongside the
	// compression and Summary.SrcCRC carries the combined stream value,
	// which is patched over the descriptor's placeholder below (the CRC
	// is the descriptor's trailing 4 bytes, and chunk frames only ever
	// append after it).
	drawn := l.newMsg([]byte{headerIndicator, byte(AlgoPipelined), headerIndicator}, 32+flate.CompressBound(len(data)))
	out := pipeline.AppendDescriptor(drawn, spec.Algo, count, spec.ChunkSize, len(data), 0)
	descEnd := len(out)
	sum, err := l.pl.CompressContext(o.ctx, data, spec, func(ch pipeline.Chunk) error {
		out = pipeline.AppendChunkFrame(out, ch.Index, ch.OrigLen, ch.CRC, ch.Data)
		return nil
	})
	if err != nil {
		// The partially assembled message is dead; recycling what was
		// drawn for it is what lets the overload soak assert zero leaked
		// buffers after a deadline storm.
		l.pool.Put(drawn)
		if errors.Is(err, dpu.ErrDeadline) {
			o.bd.Inc(stats.CounterDeadlineAbandoned)
		}
		return nil, err
	}
	binary.LittleEndian.PutUint32(out[descEnd-4:descEnd], sum.SrcCRC)
	o.bd.Add(stats.PhaseCompress, sum.Makespan)
	o.bd.CountAdd(stats.CounterJobsReplayed, uint64(sum.Replayed))
	o.bd.CountAdd(stats.CounterVerifyMismatches, uint64(sum.VerifyMismatches))
	o.bd.CountAdd(stats.CounterScalarFallbacks, uint64(sum.ScalarFallbacks))
	o.bd.CountAdd(stats.CounterCoresQuarantined, uint64(sum.Quarantines))
	if sum.EngineChunks > 0 {
		o.rep.Engine = hwmodel.CEngine
	} else if d.Engine == hwmodel.CEngine {
		o.rep.Fallback = true
	}
	o.rep.OutBytes = len(out) - headerLen
	// The size drawn is an estimate: chunk frames of incompressible or
	// SZ3 data can append past it.
	return l.rehome(drawn, out), nil
}

// DecompressPipelined decodes a CompressPipelined message. It is the
// explicit counterpart of routing the message through Decompress (the
// header dispatches to the same implementation).
func (l *Library) DecompressPipelined(engine hwmodel.Engine, msg []byte, maxOutput int) ([]byte, Report, error) {
	return l.Decompress(engine, TypeBytes, msg, maxOutput)
}

// decompressPipelined handles the AlgoPipelined case of Decompress: all
// chunk frames are already in memory, so every chunk "arrives" at
// virtual time zero and the session fans the decodes across the SoC
// workers and the C-Engine.
func (l *Library) decompressPipelined(o *op, body []byte, maxOutput int) ([]byte, error) {
	sess, err := l.newPipelinedSession(o.rep.Engine, body, maxOutput)
	if err != nil {
		return nil, err
	}
	out, sum, err := sess.run()
	if err != nil {
		if errors.Is(err, integrity.ErrCorrupt) {
			o.bd.Inc(stats.CounterHopsRejected)
		}
		return nil, err
	}
	l.chargeSoCBufPrep(o, len(out))
	o.bd.Add(stats.PhaseDecompress, sum.Makespan)
	o.bd.CountAdd(stats.CounterJobsReplayed, uint64(sum.Replayed))
	if sum.EngineChunks > 0 {
		o.rep.Engine = hwmodel.CEngine
	} else if o.rep.Engine == hwmodel.CEngine {
		o.rep.Engine = hwmodel.SoC
		o.rep.Fallback = true
	}
	return out, nil
}

// run submits every chunk frame following the descriptor at virtual time
// zero and waits for the reassembled payload.
func (r *PipelinedRecv) run() ([]byte, pipeline.Summary, error) {
	rest := r.rest
	for i := 0; i < r.Count; i++ {
		index, origLen, crc, chunkBody, next, err := pipeline.ParseChunkFrame(rest)
		if err == nil {
			err = r.s.Submit(index, origLen, crc, chunkBody, 0)
		}
		if err != nil {
			r.s.Abort() // chunks already placed finish and resolve the admission
			return nil, pipeline.Summary{}, err
		}
		rest = next
	}
	return r.s.Wait()
}

// PipelinedRecv is an open streamed-receive session: the MPI runtime
// submits chunk frames as they land and waits once all have arrived.
type PipelinedRecv struct {
	s    *pipeline.DecompressSession
	rest []byte
	// Count is the expected chunk count from the descriptor.
	Count int
	// OrigLen is the total uncompressed size from the descriptor.
	OrigLen int
}

// Submit feeds one chunk frame (as produced by AppendChunkFrame, without
// descriptor) arriving at the given virtual time. The frame bytes must
// stay valid until Wait.
func (r *PipelinedRecv) Submit(frame []byte, arrival time.Duration) error {
	index, origLen, crc, body, rest, err := pipeline.ParseChunkFrame(frame)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("core: trailing %d bytes after chunk frame", len(rest))
	}
	return r.s.Submit(index, origLen, crc, body, arrival)
}

// Wait blocks until every chunk decoded and returns the payload with the
// pipeline summary.
func (r *PipelinedRecv) Wait() ([]byte, pipeline.Summary, error) {
	return r.s.Wait()
}

// Abort cancels the streamed receive: in-flight chunk decodes drain
// first, so the session leaves no goroutine behind and the caller may
// reuse its frame buffers. The MPI runtime calls it when a rank failure
// interrupts a pipelined stream mid-flight.
func (r *PipelinedRecv) Abort() { r.s.Abort() }

// NewPipelinedRecv opens a streamed-receive session from a descriptor
// (the RTS payload in the MPI co-design). engine states the preferred
// decompression hardware.
func (l *Library) NewPipelinedRecv(engine hwmodel.Engine, desc []byte, maxOutput int) (*PipelinedRecv, error) {
	if err := l.enter(); err != nil {
		return nil, err
	}
	defer l.mu.RUnlock()
	sess, err := l.newPipelinedSession(engine, desc, maxOutput)
	if err != nil {
		return nil, err
	}
	if len(sess.rest) != 0 {
		return nil, fmt.Errorf("core: trailing %d bytes after pipeline descriptor", len(sess.rest))
	}
	return sess, nil
}

// newPipelinedSession parses a descriptor and opens the decompression
// session.
func (l *Library) newPipelinedSession(engine hwmodel.Engine, body []byte, maxOutput int) (*PipelinedRecv, error) {
	algo, count, chunkSize, origLen, srcCRC, rest, err := pipeline.ParseDescriptor(body)
	if err != nil {
		return nil, err
	}
	if maxOutput > 0 && origLen > maxOutput {
		return nil, fmt.Errorf("core: pipelined payload of %d bytes exceeds receive buffer %d", origLen, maxOutput)
	}
	spec := pipeline.Spec{Algo: algo, Engine: engine == hwmodel.CEngine}
	sess, err := l.pl.NewDecompress(spec, count, chunkSize, origLen, srcCRC)
	if err != nil {
		return nil, err
	}
	return &PipelinedRecv{s: sess, rest: rest, Count: count, OrigLen: origLen}, nil
}
