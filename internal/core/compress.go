package core

import (
	"context"
	"errors"
	"fmt"

	"pedal/internal/checksum"
	"pedal/internal/dpu"
	"pedal/internal/flate"
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
// typed dpu.ErrDeadline, pooled buffers are released, and the
// abandonment is counted and traced.
func (l *Library) CompressContext(ctx context.Context, d Design, dt DataType, data []byte) ([]byte, Report, error) {
	if err := l.enter(); err != nil {
		return nil, Report{}, err
	}
	defer l.mu.RUnlock()
	o := new(op)
	l.beginOp(o, ctx, Report{Design: d, Engine: d.Engine, InBytes: len(data)})
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
		return nil, o.rep, err
	}
	// Source-side CRC: computed once here so every downstream hop —
	// pipeline descriptor, transport frame, fleet response, checkpoint
	// shard — can carry and check it instead of recomputing or trusting.
	o.rep.MsgCRC = checksum.CRC32(msg)
	o.finish()
	return msg, o.rep, nil
}

// compressSerial compresses the whole message as one unit with d's
// design, verifies it when the sampler elects it, and returns the wire
// message: PEDAL header | payload.
func (l *Library) compressSerial(o *op, d Design, dt DataType, data []byte) ([]byte, error) {
	if err := l.checkDeadline(o, "compress"); err != nil {
		return nil, err
	}
	spec, err := l.codecSpec(d, dt)
	if err != nil {
		return nil, err
	}
	drawn, err := l.compressMsg(o, d, spec, data)
	if err != nil {
		return nil, err
	}
	// Deadline checkpoint between compression and verification: a caller
	// that gave up mid-compression gets its typed abandonment now, with
	// the message buffer released rather than leaked.
	if err := l.checkDeadline(o, "compress"); err != nil {
		if o.rep.Engine == hwmodel.CEngine {
			l.dev.CEngine().Release() // a quarantine probe it held goes unverified
		}
		l.pool.Put(drawn)
		return nil, err
	}
	// Compute fault domain: software-produced payloads get their SDC
	// injection here (the engine injects internally, pre-checksum, which
	// is what makes the corruption silent to the engine fault domain);
	// then the sampler decides whether this operation decode-verifies. A
	// quarantined engine's output is always verified — those are the
	// half-open probes that earn readmission.
	msg := drawn
	if o.rep.Engine != hwmodel.CEngine {
		l.sdc.Corrupt(socCore, msg[headerLen:])
	}
	if l.sampler.Hit() || (o.rep.Engine == hwmodel.CEngine && l.dev.CEngine().Quarantined()) {
		if msg, err = l.verifyCompressed(o, d, spec, data, msg); err != nil {
			l.pool.Put(drawn)
			return nil, err
		}
	}
	o.rep.OutBytes = len(msg) - headerLen
	return l.rehome(drawn, msg), nil
}

// newMsg draws a message buffer from the pool with room for n bytes
// behind head (the PEDAL header and any codec framing) and copies head in.
// Every message a Library returns starts here, which is what makes
// Release legal on it.
func (l *Library) newMsg(head []byte, n int) []byte {
	return append(l.pool.GetCap(len(head)+n), head...)
}

// rehome returns msg — drawn, grown by appends — in a buffer the pool
// issued. Appends that stayed inside drawn's capacity left it there.
// Ones that outgrew it (a healed payload larger than the one it
// replaces, chunk frames past the estimate) moved the bytes to the heap,
// which the pool must never be handed: they are copied into a fresh draw
// and drawn itself goes back.
func (l *Library) rehome(drawn, msg []byte) []byte {
	if &msg[0] == &drawn[0] {
		return msg
	}
	out := l.pool.Get(len(msg))
	copy(out, msg)
	l.pool.Put(drawn)
	return out
}

// codecSpec maps a design and datatype onto the codec table
// (internal/pipeline) with the library's lossy configuration. Hybrid
// rides the deflate codec; SZ3 carries its fast built-in backend (fastlz
// standing in for zstd).
func (l *Library) codecSpec(d Design, dt DataType) (pipeline.Spec, error) {
	var spec pipeline.Spec
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

// compressMsg produces d's message in a buffer drawn from the pool,
// which the caller owns from then on. What is core's own lives here —
// which engine runs what, and the zlib and SZ3 splits that put only their
// DEFLATE stage on the C-Engine; the codecs themselves are the table's.
func (l *Library) compressMsg(o *op, d Design, spec pipeline.Spec, data []byte) ([]byte, error) {
	var scratch [16]byte // header plus the split designs' framing, kept off the heap
	head := append(scratch[:0], headerIndicator, byte(d.Algo), headerIndicator)
	if d.Engine == hwmodel.CEngine {
		switch d.Algo {
		case AlgoDeflate:
			return l.engineDeflateMsg(o, head, 0, data)
		case AlgoZlib:
			// PEDAL's hybrid zlib (§III-C.1, Fig. 3): the DEFLATE body runs
			// on the C-Engine while the SoC computes the RFC 1950 header and
			// Adler-32 trailer.
			h, t := zlibfmt.Header(flate.DefaultLevel), zlibfmt.Trailer(data)
			msg, err := l.engineDeflateMsg(o, append(head, h[:]...), len(t), data)
			if err != nil {
				return nil, err
			}
			o.bd.Add(stats.PhaseCompress, hwmodel.ZlibTrailerCost(l.dev.Generation(), len(data)))
			return append(msg, t[:]...), nil
		case AlgoSZ3:
			// PEDAL-optimised SZ3 (§III-C.2, Fig. 4): the predict+quantize+
			// encode core always runs on the SoC and produces the unwrapped
			// core stream; only the DEFLATE backend stage is offloaded (SoC
			// fallback on BF3). The receiver rebuilds an equivalent container
			// around the core stream.
			spec.SZ3.Backend = sz3.BackendNone
			raw, err := l.socEncode(o, AlgoSZ3, spec, nil, data)
			if err != nil {
				return nil, err
			}
			_, corePayload, err := sz3.SplitContainer(raw)
			if err != nil {
				return nil, err
			}
			return l.engineDeflateMsg(o, sz3.AppendContainer(head, sz3.BackendDeflate, nil), 0, corePayload)
		}
		// No BlueField generation compresses LZ4 in hardware (Table II);
		// a C-Engine preference always relegates to the SoC (§V-D:
		// "BlueField-2, with its lack of support for LZ4 on its C-Engine,
		// consequently relegates LZ4 compression to the SoC core").
		o.rep.Engine = hwmodel.SoC
		o.rep.Fallback = true
	}
	return l.socMsg(o, d.Algo, spec, head, 0, data)
}

// socMsg draws the message head | spec's encoding of data, with room for
// tail more bytes, encoding on the SoC. A codec with a tight output bound
// encodes straight behind head in a message drawn to that bound. SZ3 has
// none (exact-value fallbacks can exceed the input, and a 2× class would
// over-charge every message), so its output is the codec's own
// allocation, copied once into a message drawn to fit.
func (l *Library) socMsg(o *op, algo AlgoID, spec pipeline.Spec, head []byte, tail int, data []byte) ([]byte, error) {
	n := spec.Bound(len(data))
	if n == 0 {
		payload, err := l.socEncode(o, algo, spec, nil, data)
		if err != nil {
			return nil, err
		}
		return append(l.newMsg(head, len(payload)+tail), payload...), nil
	}
	msg := l.newMsg(head, n+tail)
	out, err := l.socEncode(o, algo, spec, msg, data)
	if err != nil {
		l.pool.Put(msg)
	}
	return out, err
}

// socEncode appends algo's encoding of data to dst on the SoC and charges
// its modelled time. SZ3's software backend stage is priced separately
// from its core, over the ≈25% of the input the entropy-coded core stream
// comes to on the paper's datasets (the real size is used for the data;
// the estimate only prices the virtual backend stage).
func (l *Library) socEncode(o *op, algo AlgoID, spec pipeline.Spec, dst, data []byte) ([]byte, error) {
	out, err := pipeline.Encode(spec, dst, data)
	if err != nil {
		return nil, err
	}
	l.chargeSoCBufPrep(o, len(data))
	if _, err := l.ctx.SoCRun(&o.bd, algo.hwAlgo(), hwmodel.Compress, len(data)); err != nil {
		return nil, err
	}
	if algo == AlgoSZ3 && spec.SZ3.Backend != sz3.BackendNone {
		if _, err := l.ctx.SoCRun(&o.bd, hwmodel.FastLZ, hwmodel.Compress, estimateCorePayload(len(data))); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// estimateCorePayload approximates the size of SZ3's entropy-coded core
// stream for backend cost accounting.
func estimateCorePayload(n int) int { return n / 4 }

// engineDeflateMsg draws the message head | DEFLATE(data), with room for
// tail more bytes, running the DEFLATE on the C-Engine with SoC fallback;
// it is shared by the DEFLATE, zlib and SZ3 engine designs. Engine output
// stays the engine's — a job the watchdog failed may still complete late
// and must never scribble on memory the SoC replay is writing — so it is
// copied once into a message drawn to fit.
func (l *Library) engineDeflateMsg(o *op, head []byte, tail int, data []byte) ([]byte, error) {
	supported := l.dev.SupportsCEngine(hwmodel.Deflate, hwmodel.Compress)
	var engineErr error
	if supported && l.engineAllowed(o, hwmodel.Compress) {
		l.chargeEngineBufPrep(o, len(data))
		res, err := l.ctx.Submit(o.ctx, &o.bd, hwmodel.Deflate, hwmodel.Compress, data, 0)
		l.noteEngineResult(o, err)
		if err == nil {
			o.rep.Engine = hwmodel.CEngine
			return append(l.newMsg(head, len(res.Output)+tail), res.Output...), nil
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
	return l.socMsg(o, AlgoDeflate, pipeline.Spec{Algo: pipeline.AlgoDeflate}, head, tail, data)
}

// chargeEngineBufPrep charges making an n-byte input DOCA-operable for a
// C-Engine job (the engine makes the copy itself, at submit). In PEDAL
// mode the mapping was paid at Init and only a memcpy is charged; in
// baseline mode the full allocation+mapping cost recurs per message.
func (l *Library) chargeEngineBufPrep(o *op, n int) {
	if l.opts.Baseline {
		l.ctx.MMap(&o.bd, n)
	} else {
		o.bd.Add(stats.PhaseBufPrep, hwmodel.MemcpyCost(l.dev.Generation(), n))
	}
}

// chargeSoCBufPrep charges SoC-side buffer acquisition: free at steady
// state under PEDAL (pooled), a real allocation in baseline mode.
func (l *Library) chargeSoCBufPrep(o *op, n int) {
	if l.opts.Baseline {
		o.bd.Add(stats.PhaseBufPrep, hwmodel.BufPrepCost(l.dev.Generation(), hwmodel.SoC, n))
	}
}
