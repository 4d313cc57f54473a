package mpi

import (
	"errors"
	"fmt"
	"time"

	"pedal/internal/checksum"
	"pedal/internal/core"
	"pedal/internal/integrity"
	"pedal/internal/pipeline"
	"pedal/internal/stats"
)

// Streamed-frame rendezvous: instead of compressing the whole payload and
// shipping one DATA frame, the sender splits it into chunks, fans the
// chunk compressions across the SoC workers and the C-Engine, and puts
// each compressed chunk on the wire the moment it completes. Transmission
// of chunk i overlaps compression of chunk i+1, and on the far side
// decompression of chunk i overlaps reception of chunk i+1 — the
// compression/communication pipelining the paper's DPU offload targets.
//
// Wire layout: the RTS carries the pipeline descriptor as its payload (a
// plain RTS has an empty payload, so the descriptor doubles as the
// protocol signal), origLen holds the total uncompressed size, and the
// chunks follow as kindChunk frames whose payloads are self-describing
// pipeline chunk frames (index | origLen | body). Frames are matched by
// (src, seq) like DATA, so concurrent pipelined streams cannot mix.

// sendPipelined runs the sender half of the streamed-frame rendezvous.
// Chunk departures follow the virtual completion schedule, serialised by
// the link: a frame cannot depart while the previous one still occupies
// the wire.
func (c *Comm) sendPipelined(dst, tag int, dt core.DataType, data []byte) error {
	lib := c.pedal
	spec, err := lib.PipelineSpec(c.opts.Compression.Design, dt)
	if err != nil {
		return fmt.Errorf("mpi: pedal pipeline: %w", err)
	}
	// Pin the chunk size so descriptor and execution agree.
	spec.ChunkSize = lib.Pipeline().ChunkSizeFor(len(data), spec)
	count := (len(data) + spec.ChunkSize - 1) / spec.ChunkSize
	// Hop-carried end-to-end digest under VerifyFull: computed once
	// here, checked by the receiver's Wait against the reassembled
	// payload. The zero sentinel below Full keeps the fast path and the
	// Sampled screening tier unchanged (per-chunk frame CRCs still guard
	// every hop). Unlike the local CompressPipelined path — which lets
	// the workers digest their own chunks and patches the combined CRC
	// over the descriptor afterwards — the streamed protocol puts the
	// descriptor on the wire before any chunk compresses (it doubles as
	// the RTS signal), so the sender pays one up-front CRC-32 pass over
	// the payload.
	var srcCRC uint32
	if spec.Sampler.Mode() == integrity.VerifyFull {
		srcCRC = checksum.CRC32(data)
	}
	desc := pipeline.AppendDescriptor(nil, spec.Algo, count, spec.ChunkSize, len(data), srcCRC)

	seq := c.nextSeq()
	if err := c.sendFrame(dst, kindRTS, tag, seq, len(data), desc); err != nil {
		return err
	}
	cts, err := c.waitFor(dst, AnyTag, kindCTS, seq)
	if err != nil {
		return err
	}
	c.clock.AdvanceTo(durationOf(cts.departure) + c.wire(envHeaderLen))

	t0 := c.clock.Now()
	wireFixed := c.wire(0)
	var (
		prevDepart time.Duration
		occupancy  time.Duration
		first      = true
		frame      []byte
		sendErr    error
	)
	sum, err := lib.Pipeline().Compress(data, spec, func(ch pipeline.Chunk) error {
		frame = pipeline.AppendChunkFrame(frame[:0], ch.Index, ch.OrigLen, ch.CRC, ch.Data)
		// Departure: when the chunk's compression completes on the virtual
		// schedule, but no earlier than the link finishing the previous
		// frame (NIC serialisation: occupancy is the bandwidth term of the
		// wire model, the propagation base overlaps).
		depart := t0 + ch.Done
		if !first && depart < prevDepart+occupancy {
			depart = prevDepart + occupancy
		}
		c.clock.AdvanceTo(depart)
		if err := c.sendFrame(dst, kindChunk, tag, seq, ch.OrigLen, frame); err != nil {
			sendErr = err
			return err
		}
		prevDepart = depart
		occupancy = c.wire(envHeaderLen+len(frame)) - wireFixed
		first = false
		return nil
	})
	if err != nil {
		if sendErr != nil {
			return sendErr
		}
		return fmt.Errorf("mpi: pedal pipeline compress: %w", err)
	}
	// The send completes when the last stage of the pipeline drains.
	c.clock.AdvanceTo(t0 + sum.Makespan)
	c.bd.Add(stats.PhaseCompress, sum.Makespan)
	return nil
}

// recvPipelined runs the receiver half: grant the CTS, then feed each
// arriving chunk frame to the decompression session at its virtual
// arrival time. Decoding overlaps reception; the final clock position is
// the pipeline makespan, not the sum of chunk decode times.
func (c *Comm) recvPipelined(env envelope, maxLen int) ([]byte, error) {
	if c.pedal == nil {
		return nil, fmt.Errorf("%w: pipelined RTS without PEDAL configured", ErrMismatch)
	}
	// The descriptor names the codec, so the datatype is implied.
	recv, err := c.pedal.NewPipelinedRecv(c.opts.Compression.Design.Engine, env.payload, maxLen)
	if err != nil {
		return nil, fmt.Errorf("mpi: pedal pipelined recv: %w", err)
	}
	if err := c.sendFrame(env.src, kindCTS, env.tag, env.seq, 0, nil); err != nil {
		recv.Abort()
		return nil, err
	}
	t0 := c.clock.Now()
	for i := 0; i < recv.Count; i++ {
		f, err := c.waitFor(env.src, AnyTag, kindChunk, env.seq)
		if err != nil {
			// Sender died (or the wait was revoked) mid-stream: drain the
			// chunks already decoding and drop the half-built session so
			// the interrupted transfer leaks no goroutine or buffer.
			recv.Abort()
			return nil, err
		}
		c.clock.AdvanceTo(durationOf(f.departure) + c.wire(envHeaderLen+len(f.payload)))
		if err := recv.Submit(f.payload, c.clock.Now()-t0); err != nil {
			if errors.Is(err, integrity.ErrCorrupt) {
				c.bd.Inc(stats.CounterHopsRejected)
			}
			recv.Abort()
			return nil, fmt.Errorf("mpi: pedal pipelined recv: %w", err)
		}
	}
	out, sum, err := recv.Wait()
	if err != nil {
		if errors.Is(err, integrity.ErrCorrupt) {
			c.bd.Inc(stats.CounterHopsRejected)
		}
		return nil, fmt.Errorf("mpi: pedal pipelined recv: %w", err)
	}
	c.clock.AdvanceTo(t0 + sum.Makespan)
	c.bd.Add(stats.PhaseDecompress, sum.Busy)
	return out, nil
}
