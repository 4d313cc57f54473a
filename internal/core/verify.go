package core

// verify.go is the verified-compression layer of the compute fault
// domain: compressed output is not trusted just because the kernel that
// produced it returned success. Silent data corruption — a flipped bit
// in a C-Engine result, a miscompiled vector kernel, a stale mempool
// buffer — passes every post-hoc checksum, because the checksum is
// taken over the already-corrupt bytes. The only defence is to close
// the loop: decode the output (lossless) or recompress through the
// scalar reference path (lossy) and compare against the source before
// the bytes leave the library. A mismatch re-executes the operation on
// the trusted scalar path and feeds the integrity ledger that
// quarantines a repeatedly-corrupting engine.

import (
	"bytes"

	"pedal/internal/faults"
	"pedal/internal/flate"
	"pedal/internal/hwmodel"
	"pedal/internal/integrity"
	"pedal/internal/pipeline"
	"pedal/internal/stats"
	"pedal/internal/sz3"
)

// socCore is the injector stream the serial SoC producers draw from; it
// coincides with the engine's unit so one seeded schedule drives a
// single-library run deterministically.
const socCore = 0

// injectSDC gives the SDC injector a shot at a software-produced
// compressed payload. The C-Engine path never calls this: its injection
// happens inside the engine, *before* the job checksum is taken, which
// is what makes the corruption silent to the engine fault domain.
func (l *Library) injectSDC(out []byte) {
	if l.sdc == nil {
		return
	}
	if d := l.sdc.Next(socCore); d.Class != faults.None {
		l.sdc.Apply(d, out)
	}
}

// verifyCompressed decode-verifies (or differentially referees) a
// compressed payload against its source. On a mismatch it counts the
// event, attributes it to the engine when the engine produced the
// bytes, re-executes on the scalar reference path, and re-verifies the
// replacement; a second failure is unrecoverable and surfaces as a
// typed integrity.CorruptError.
func (l *Library) verifyCompressed(o *op, d Design, spec pipeline.Spec, src, payload []byte) ([]byte, error) {
	eng := l.dev.CEngine()
	if l.checkPayload(d, spec, src, payload) {
		if o.rep.Engine == hwmodel.CEngine {
			// A verified-clean engine result is evidence for readmission
			// when the engine is quarantined (half-open probe).
			eng.ReportVerified()
		}
		return payload, nil
	}
	o.bd.Inc(stats.CounterVerifyMismatches)
	if o.rep.Engine == hwmodel.CEngine && eng.ReportCorrupt() {
		o.bd.Inc(stats.CounterCoresQuarantined)
	}
	redo, err := l.scalarReexec(o, d, spec, src)
	if err != nil {
		return nil, err
	}
	if !l.checkPayload(d, spec, src, redo) {
		return nil, &integrity.CorruptError{
			Hop:     "core.verify",
			Segment: d.Algo.String(),
			Want:    uint32(len(src)),
		}
	}
	// The operation now ran on the trusted scalar path: report it as the
	// dynamic degradation it is.
	o.rep.Engine = hwmodel.SoC
	o.rep.Degraded = true
	return redo, nil
}

// sz3EngineSplit reports whether d ships SZ3's DEFLATE-backed container,
// the one payload the codec table cannot judge or rebuild on its own:
// its backend stage ran (or would have run) on the C-Engine.
func sz3EngineSplit(d Design) bool { return d.Algo == AlgoSZ3 && d.Engine == hwmodel.CEngine }

// sz3ScalarCore is the trusted scalar reference walk's unwrapped core
// stream for src.
func (l *Library) sz3ScalarCore(spec pipeline.Spec, src []byte) ([]byte, error) {
	spec.SZ3.Backend = sz3.BackendNone
	ref, _, err := l.pl.EncodeScalar(spec, src)
	if err != nil {
		return nil, err
	}
	_, core, err := sz3.SplitContainer(ref)
	return core, err
}

// checkPayload answers "does this compressed payload faithfully encode
// src?" through the codec table's verifier. The engine-split SZ3
// container is refereed here instead: its core stream is recovered by
// software inflate and compared with the scalar reference core, which
// catches both a corrupt slab-produced core (the engine compressed bad
// bytes) and a corrupt engine result (the inflate diverges or fails).
func (l *Library) checkPayload(d Design, spec pipeline.Spec, src, payload []byte) bool {
	if !sz3EngineSplit(d) {
		return l.pl.Verify(spec, src, payload)
	}
	backend, inner, err := sz3.SplitContainer(payload)
	if err != nil || backend != sz3.BackendDeflate {
		return false
	}
	refCore, err := l.sz3ScalarCore(spec, src)
	if err != nil {
		return false
	}
	got, err := flate.DecompressLimit(inner, len(refCore)+64)
	return err == nil && bytes.Equal(got, refCore)
}

// scalarReexec re-runs a compression on the trusted scalar path after a
// verification mismatch (the codec table's EncodeScalar; the engine-split
// SZ3 container is rebuilt entirely in software from the reference core
// stream). The cost model charges the re-execution as a fresh SoC pass.
func (l *Library) scalarReexec(o *op, d Design, spec pipeline.Spec, src []byte) ([]byte, error) {
	o.bd.Inc(stats.CounterScalarFallbacks)
	if _, err := l.ctx.SoCRun(o.bd, d.Algo.hwAlgo(), hwmodel.Compress, len(src)); err != nil {
		return nil, err
	}
	if !sz3EngineSplit(d) {
		out, _, err := l.pl.EncodeScalar(spec, src)
		return out, err
	}
	core, err := l.sz3ScalarCore(spec, src)
	if err != nil {
		return nil, err
	}
	body, _ := flate.AppendCompressVerified(nil, core, l.opts.Level)
	return sz3.BuildContainer(sz3.BackendDeflate, body), nil
}
