package core

import (
	"context"
	"errors"
	"fmt"

	"pedal/internal/checksum"
	"pedal/internal/dpu"
	"pedal/internal/hwmodel"
	"pedal/internal/pipeline"
	"pedal/internal/stats"
	"pedal/internal/sz3"
	"pedal/internal/zlibfmt"
)

// ErrRetiredAlgo rejects a message whose header names an AlgoID this
// library no longer decodes (5, the former hybrid frame format).
var ErrRetiredAlgo = errors.New("core: retired AlgoID")

// Decompress is PEDAL_decompress: it parses the PEDAL header of a
// received message, selects the matching decompression design, and
// returns the original data. engine states the preferred hardware;
// unsupported paths fall back to the SoC with the fallback recorded in
// the report.
//
// maxOutput bounds the decompressed size (the receiver's user buffer
// capacity in the MPI co-design); pass 0 for a generous default.
//
// A message without a PEDAL header is an uncompressed payload by
// protocol; it is returned verbatim with a zero-cost report.
func (l *Library) Decompress(engine hwmodel.Engine, dt DataType, msg []byte, maxOutput int) ([]byte, Report, error) {
	return l.DecompressContext(context.Background(), engine, dt, msg, maxOutput)
}

// DecompressContext is Decompress bounded by a caller deadline: entry
// and engine submit/wait checkpoints abandon expired work with a typed
// dpu.ErrDeadline (counted and traced as deadline_abandoned).
func (l *Library) DecompressContext(ctx context.Context, engine hwmodel.Engine, dt DataType, msg []byte, maxOutput int) ([]byte, Report, error) {
	if err := l.enter(); err != nil {
		return nil, Report{}, err
	}
	defer l.mu.RUnlock()
	algo, body, err := ParseHeader(msg)
	if err != nil {
		// Uncompressed passthrough (paper Fig. 5: the indicators tell the
		// receiver whether the data is compressed at all).
		return msg, Report{Engine: engine, InBytes: len(msg), OutBytes: len(msg)}, nil
	}
	if maxOutput <= 0 {
		maxOutput = 1 << 30
	}
	o := new(op)
	l.beginOp(o, ctx, Report{Design: Design{Algo: algo, Engine: engine}, Engine: engine, InBytes: len(body)})
	defer l.endOp(o)

	if err := l.checkDeadline(o, "decompress"); err != nil {
		return nil, o.rep, err
	}
	var out []byte
	switch algo {
	case AlgoDeflate, AlgoZlib, AlgoLZ4:
		out, err = l.decompressLossless(o, algo, body, maxOutput)
	case AlgoSZ3:
		out, err = l.decompressSZ3(o, dt, body, maxOutput)
	case AlgoPipelined:
		out, err = l.decompressPipelined(o, body, maxOutput)
	default:
		err = fmt.Errorf("%w %d", ErrRetiredAlgo, algo)
	}
	if err != nil {
		return nil, o.rep, err
	}
	o.rep.OutBytes = len(out)
	// Expanded-output CRC for hop carrying (mirrors Compress.MsgCRC).
	o.rep.MsgCRC = checksum.CRC32(out)
	o.finish()
	return out, o.rep, nil
}

// decompressLossless expands a DEFLATE, zlib or LZ4 body on the
// preferred engine with SoC fallback. DEFLATE and LZ4 frames go to the
// C-Engine as they are (where the generation has the path, Table II);
// zlib is PEDAL's split: the SoC strips the RFC 1950 framing, the engine
// inflates the body, the SoC verifies the Adler-32 trailer.
func (l *Library) decompressLossless(o *op, algo AlgoID, body []byte, maxOutput int) ([]byte, error) {
	if algo == AlgoZlib && o.rep.Engine == hwmodel.CEngine {
		deflateBody, err := zlibfmt.Body(body)
		if err != nil {
			return nil, err
		}
		out, err := l.decompressLossless(o, AlgoDeflate, deflateBody, maxOutput)
		if err != nil {
			return nil, err
		}
		o.bd.Add(stats.PhaseDecompress, hwmodel.ZlibTrailerCost(l.dev.Generation(), len(out)))
		if err := zlibfmt.VerifyTrailer(body, out); err != nil {
			return nil, err
		}
		return out, nil
	}
	hw := algo.hwAlgo()
	supported := o.rep.Engine == hwmodel.CEngine && l.dev.SupportsCEngine(hw, hwmodel.Decompress)
	var engineErr error
	if supported && l.engineAllowed(o, hwmodel.Decompress) {
		l.chargeEngineBufPrep(o, len(body))
		res, err := l.ctx.Submit(o.ctx, &o.bd, hw, hwmodel.Decompress, body, maxOutput)
		l.noteEngineResult(o, err)
		if err == nil {
			return res.Output, nil
		}
		if cerr := l.checkDeadline(o, "engine-decompress"); cerr != nil {
			return nil, cerr
		}
		engineErr = err
	}
	if o.rep.Engine == hwmodel.CEngine {
		o.rep.Engine = hwmodel.SoC
		o.rep.Fallback = true
		o.rep.Degraded = supported
	}
	if errors.Is(engineErr, dpu.ErrEngineLost) {
		// Journal replay: the lost engine job re-executes below on the
		// SoC from the same input.
		o.bd.Inc(stats.CounterJobsReplayed)
	}
	spec, err := l.codecSpec(Design{Algo: algo}, TypeBytes)
	if err != nil {
		return nil, err
	}
	l.chargeSoCBufPrep(o, maxOutput)
	out, err := pipeline.Decode(spec.Algo, nil, body, maxOutput)
	if err != nil {
		return nil, err
	}
	// Software decompression time also scales with the expanded output.
	if _, err := l.ctx.SoCRun(&o.bd, hw, hwmodel.Decompress, len(out)); err != nil {
		return nil, err
	}
	return out, nil
}

func (l *Library) decompressSZ3(o *op, dt DataType, body []byte, maxOutput int) ([]byte, error) {
	spec, err := l.codecSpec(Design{Algo: AlgoSZ3}, dt)
	if err != nil {
		return nil, err
	}
	backend, inner, err := sz3.SplitContainer(body)
	if err != nil {
		return nil, err
	}
	stream := body
	chargeSoCBackend := false
	if o.rep.Engine == hwmodel.CEngine && backend == sz3.BackendDeflate {
		// Run the backend stage on the C-Engine, then hand the unwrapped
		// core stream to the SZ3 decoder.
		raw, err := l.decompressLossless(o, AlgoDeflate, inner, maxOutput*8)
		if err != nil {
			return nil, err
		}
		stream = sz3.BuildContainer(sz3.BackendNone, raw)
	} else {
		if o.rep.Engine == hwmodel.CEngine {
			o.rep.Engine = hwmodel.SoC
			o.rep.Fallback = true
		}
		// The software backend stage is charged after decode, when the
		// expanded core-stream size is known.
		chargeSoCBackend = backend != sz3.BackendNone
	}
	// The predict/quantize inverse always runs on the SoC.
	out, err := pipeline.Decode(spec.Algo, nil, stream, maxOutput)
	if err != nil {
		return nil, err
	}
	if len(out) > maxOutput {
		return nil, fmt.Errorf("core: decompressed %d bytes exceed receive buffer %d", len(out), maxOutput)
	}
	if chargeSoCBackend {
		if _, err := l.ctx.SoCRun(&o.bd, backendAlgo(backend), hwmodel.Decompress, estimateCorePayload(len(out))); err != nil {
			return nil, err
		}
	}
	if _, err := l.ctx.SoCRun(&o.bd, hwmodel.SZ3Core, hwmodel.Decompress, len(out)); err != nil {
		return nil, err
	}
	return out, nil
}

// backendAlgo maps an SZ3 backend to its cost-model algorithm.
func backendAlgo(b sz3.BackendKind) hwmodel.Algo {
	switch b {
	case sz3.BackendDeflate:
		return hwmodel.Deflate
	case sz3.BackendLZ4:
		return hwmodel.LZ4
	default:
		return hwmodel.FastLZ
	}
}
