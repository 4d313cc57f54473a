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

// Compress is PEDAL_compress: it compresses data with the selected design
// and returns a wire message consisting of the 3-byte PEDAL header
// followed by the compressed payload. The datatype parameter matters for
// the lossy design (SZ3 requires float data, paper Listing 1); lossless
// designs accept any bytes.
//
// When the preferred engine lacks the operation on this generation,
// Compress transparently falls back to the SoC — the paper's §III-D
// "intelligently fall back to SoC-based compression designs ... avoiding
// software failures" — and reports the fallback.
func (l *Library) Compress(d Design, dt DataType, data []byte) ([]byte, Report, error) {
	return l.CompressContext(context.Background(), d, dt, data)
}

// CompressContext is Compress bounded by a caller deadline: the
// operation checkpoints ctx on entry, inside the engine submit/wait
// path, and before message assembly. Expired work is abandoned with a
// typed dpu.ErrDeadline, pooled staging buffers are released, and the
// abandonment is counted and traced.
func (l *Library) CompressContext(ctx context.Context, d Design, dt DataType, data []byte) ([]byte, Report, error) {
	if err := l.enter(); err != nil {
		return nil, Report{}, err
	}
	defer l.mu.RUnlock()
	rep := Report{Design: d, Engine: d.Engine, InBytes: len(data)}
	st := l.beginOp(ctx, &rep)
	o := &st
	defer l.endOp(o)

	var msg []byte
	var err error
	if d.Algo == AlgoHybrid {
		// The hybrid design is the chunk pipeline with the engine on; it
		// verifies per chunk and ships an AlgoPipelined message.
		msg, err = l.compressPipelined(o, d, dt, data)
	} else {
		msg, err = l.compressSerial(o, d, dt, data)
	}
	if err != nil {
		return nil, rep, err
	}
	// Source-side CRC: computed once here so every downstream hop —
	// pipeline descriptor, transport frame, fleet response, checkpoint
	// shard — can carry and check it instead of recomputing or trusting.
	rep.MsgCRC = checksum.CRC32(msg)
	o.finish()
	return msg, rep, nil
}

// compressSerial compresses the whole message as one unit with d's
// design, verifies it when the sampler elects it, and assembles the wire
// message: PEDAL header | payload.
func (l *Library) compressSerial(o *op, d Design, dt DataType, data []byte) ([]byte, error) {
	if err := l.checkDeadline(o, "compress"); err != nil {
		return nil, err
	}
	spec, err := l.codecSpec(d, dt)
	if err != nil {
		return nil, err
	}
	payload, err := l.compressPayload(o, d, spec, data)
	if err != nil {
		return nil, err
	}
	// Deadline checkpoint between compression and verification/assembly:
	// a caller that gave up mid-compression gets its typed abandonment
	// now, with the payload staging buffer released rather than leaked.
	if err := l.checkDeadline(o, "compress"); err != nil {
		l.pool.Put(payload)
		return nil, err
	}
	// Compute fault domain: software-produced payloads get their SDC
	// injection here (the engine injects internally, pre-checksum); then
	// the sampler decides whether this operation decode-verifies. A
	// quarantined engine's output is always verified — those are the
	// half-open probes that earn readmission.
	if o.rep.Engine != hwmodel.CEngine {
		l.injectSDC(payload)
	}
	if l.sampler.Hit() || (o.rep.Engine == hwmodel.CEngine && l.dev.CEngine().Quarantined()) {
		payload, err = l.verifyCompressed(o, d, spec, data, payload)
		if err != nil {
			return nil, err
		}
	}
	msg := l.pool.Get(headerLen + len(payload))
	putHeader(msg, d.Algo)
	copy(msg[headerLen:], payload)
	o.rep.OutBytes = len(payload)
	// The payload staging buffer is dead after the copy; recycling it
	// keeps the steady-state compress path allocation-free.
	l.pool.Put(payload)
	return msg, nil
}

// codecSpec maps a design and datatype onto the codec table
// (internal/pipeline) with the library's lossless level and lossy
// configuration. Hybrid rides the deflate codec; SZ3 carries its fast
// built-in backend (fastlz standing in for zstd).
func (l *Library) codecSpec(d Design, dt DataType) (pipeline.Spec, error) {
	spec := pipeline.Spec{Level: l.opts.Level}
	switch d.Algo {
	case AlgoDeflate, AlgoHybrid:
		spec.Algo = pipeline.AlgoDeflate
	case AlgoZlib:
		spec.Algo = pipeline.AlgoZlib
	case AlgoLZ4:
		spec.Algo = pipeline.AlgoLZ4
	case AlgoSZ3:
		switch dt {
		case TypeFloat32:
			spec.Algo = pipeline.AlgoSZ3F32
		case TypeFloat64:
			spec.Algo = pipeline.AlgoSZ3F64
		default:
			return spec, fmt.Errorf("core: SZ3 requires float32 or float64 data, got %v", dt)
		}
		spec.SZ3 = sz3.Config{
			ErrorBound: l.opts.ErrorBound,
			Mode:       l.opts.SZ3Mode,
			Predictor:  l.opts.SZ3Predictor,
			Dims:       l.opts.SZ3Dims,
			Backend:    sz3.BackendFastLZ,
		}
	default:
		return spec, fmt.Errorf("core: unknown algorithm %v", d.Algo)
	}
	return spec, nil
}

// compressPayload produces d's compressed payload. What is core's own
// lives here — which engine runs what, and the zlib and SZ3 splits that
// put only their DEFLATE stage on the C-Engine; the codecs themselves
// are the table's.
func (l *Library) compressPayload(o *op, d Design, spec pipeline.Spec, data []byte) ([]byte, error) {
	if d.Engine != hwmodel.CEngine {
		return l.socCompress(o, d.Algo, spec, data)
	}
	switch d.Algo {
	case AlgoDeflate:
		return l.engineCompressDeflate(o, data)
	case AlgoZlib:
		// PEDAL's hybrid zlib (§III-C.1, Fig. 3): the DEFLATE body runs
		// on the C-Engine while the SoC computes the RFC 1950 header and
		// Adler-32 trailer.
		body, err := l.engineCompressDeflate(o, data)
		if err != nil {
			return nil, err
		}
		o.bd.Add(stats.PhaseCompress, hwmodel.ZlibTrailerCost(l.dev.Generation(), len(data)))
		return zlibfmt.Assemble(l.opts.Level, body, data), nil
	case AlgoSZ3:
		// PEDAL-optimised SZ3 (§III-C.2, Fig. 4): the predict+quantize+
		// encode core always runs on the SoC and produces the unwrapped
		// core stream; only the DEFLATE backend stage is offloaded (SoC
		// fallback on BF3). The receiver rebuilds an equivalent container
		// around the core stream.
		spec.SZ3.Backend = sz3.BackendNone
		raw, err := l.socCompress(o, AlgoSZ3, spec, data)
		if err != nil {
			return nil, err
		}
		_, corePayload, err := sz3.SplitContainer(raw)
		if err != nil {
			return nil, err
		}
		body, err := l.engineCompressDeflate(o, corePayload)
		if err != nil {
			return nil, err
		}
		return sz3.BuildContainer(sz3.BackendDeflate, body), nil
	default:
		// No BlueField generation compresses LZ4 in hardware (Table II);
		// a C-Engine preference always relegates to the SoC (§V-D:
		// "BlueField-2, with its lack of support for LZ4 on its C-Engine,
		// consequently relegates LZ4 compression to the SoC core").
		o.rep.Engine = hwmodel.SoC
		o.rep.Fallback = true
		return l.socCompress(o, d.Algo, spec, data)
	}
}

// socCompress runs algo's codec over data on the SoC and charges its
// modelled time. SZ3's software backend stage is priced separately from
// its core, over the ≈25% of the input the entropy-coded core stream
// comes to on the paper's datasets (the real size is used for the data;
// the estimate only prices the virtual backend stage).
func (l *Library) socCompress(o *op, algo AlgoID, spec pipeline.Spec, data []byte) ([]byte, error) {
	out, _, err := l.pl.Encode(spec, data)
	if err != nil {
		return nil, err
	}
	l.chargeSoCBufPrep(o, len(data))
	if _, err := l.ctx.SoCRun(o.bd, algo.hwAlgo(), hwmodel.Compress, len(data)); err != nil {
		return nil, err
	}
	if algo == AlgoSZ3 && spec.SZ3.Backend != sz3.BackendNone {
		if _, err := l.ctx.SoCRun(o.bd, hwmodel.FastLZ, hwmodel.Compress, estimateCorePayload(len(data))); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// estimateCorePayload approximates the size of SZ3's entropy-coded core
// stream for backend cost accounting.
func estimateCorePayload(n int) int { return n / 4 }

// engineCompressDeflate runs DEFLATE compression on the C-Engine,
// handling staging, mapping and fallback; it is shared by the DEFLATE,
// zlib and SZ3 engine designs.
func (l *Library) engineCompressDeflate(o *op, data []byte) ([]byte, error) {
	supported := l.dev.SupportsCEngine(hwmodel.Deflate, hwmodel.Compress)
	var engineErr error
	if supported && l.engineAllowed(o) {
		staging, release := l.stage(o, data)
		defer release()
		res, err := l.ctx.Submit(o.ctx, o.bd, hwmodel.Deflate, hwmodel.Compress, staging, 0)
		l.noteEngineResult(o, err)
		if err == nil {
			o.rep.Engine = hwmodel.CEngine
			return res.Output, nil
		}
		if cerr := l.checkDeadline(o, "engine-compress"); cerr != nil {
			// The engine attempt died with the caller's deadline: abandon
			// instead of burning the SoC fallback on unwanted work.
			return nil, cerr
		}
		// Hardware failed at runtime: degrade to the SoC below.
		engineErr = err
	}
	// SoC fallback: static for a missing capability (BlueField-3's
	// C-Engine cannot compress, §V-C), dynamic for a failing or
	// breaker-opened engine.
	o.rep.Engine = hwmodel.SoC
	o.rep.Fallback = true
	o.rep.Degraded = supported
	if errors.Is(engineErr, dpu.ErrEngineLost) {
		// The journaled job was lost to a stall/wedge; this SoC pass is
		// its deterministic replay (same input, algo, op).
		o.bd.Inc(stats.CounterJobsReplayed)
	}
	return l.socCompress(o, AlgoDeflate, pipeline.Spec{Algo: pipeline.AlgoDeflate, Level: l.opts.Level}, data)
}

// stage copies data into a pre-mapped pool buffer for C-Engine
// submission. In PEDAL mode the mapping was paid at Init and only a
// memcpy is charged; in baseline mode the full allocation+mapping cost
// recurs per message.
func (l *Library) stage(o *op, data []byte) ([]byte, func()) {
	staging := l.pool.Get(len(data))
	copy(staging, data)
	if l.opts.Baseline {
		o.bd.Add(stats.PhaseBufPrep, hwmodel.BufPrepCost(l.dev.Generation(), hwmodel.CEngine, len(data)))
	} else {
		o.bd.Add(stats.PhaseBufPrep, hwmodel.MemcpyCost(l.dev.Generation(), len(data)))
	}
	_ = l.ctx.RegisterPrewarmed(staging)
	return staging, func() {
		l.ctx.Unmap(staging)
		l.pool.Put(staging)
	}
}

// chargeSoCBufPrep charges SoC-side buffer acquisition: free at steady
// state under PEDAL (pooled), a real allocation in baseline mode.
func (l *Library) chargeSoCBufPrep(o *op, n int) {
	if l.opts.Baseline {
		o.bd.Add(stats.PhaseBufPrep, hwmodel.BufPrepCost(l.dev.Generation(), hwmodel.SoC, n))
	}
}
