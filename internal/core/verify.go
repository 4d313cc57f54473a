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
// the trusted scalar path and feeds the engine's quarantine, which
// benches a repeatedly-corrupting engine.

import (
	"pedal/internal/hwmodel"
	"pedal/internal/pipeline"
	"pedal/internal/stats"
	"pedal/internal/sz3"
)

// socCore is the injector stream the serial SoC producers draw from; it
// coincides with the engine's unit so one seeded schedule drives a
// single-library run deterministically.
const socCore = 0

// verifyCompressed runs msg's payload through the verified-compression
// ladder (pipeline.Heal) against its source and does core's half of a
// mismatch: count the event, attribute a quarantine, charge the scalar
// re-execution as a fresh SoC pass, and report the operation as the
// dynamic degradation it became. The replacement payload is encoded into
// msg's own buffer, behind its header; the returned message may have
// outgrown it.
func (l *Library) verifyCompressed(o *op, d Design, spec pipeline.Spec, src, msg []byte) ([]byte, error) {
	if d.Algo == AlgoSZ3 && d.Engine == hwmodel.CEngine {
		// The engine split ships SZ3's DEFLATE-backed container, whatever
		// ran its backend stage.
		spec.SZ3.Backend = sz3.BackendDeflate
	}
	healed, mismatch, quarantined, err := l.pl.Heal(spec, msg[:headerLen], src, msg[headerLen:], o.rep.Engine == hwmodel.CEngine, "core.verify")
	if !mismatch {
		return msg, nil
	}
	o.bd.Inc(stats.CounterVerifyMismatches)
	if quarantined {
		o.bd.Inc(stats.CounterCoresQuarantined)
	}
	o.bd.Inc(stats.CounterScalarFallbacks)
	if _, cerr := l.ctx.SoCRun(&o.bd, d.Algo.hwAlgo(), hwmodel.Compress, len(src)); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	o.rep.Engine = hwmodel.SoC
	o.rep.Degraded = true
	return healed, nil
}
