// Package core is the PEDAL library itself — the paper's primary
// contribution (§III). It unifies lossy (SZ3) and lossless (DEFLATE,
// zlib, LZ4) compression behind one API, maximises use of the BlueField
// SoC and C-Engine, prearranges buffers and DOCA state at initialisation
// time, and tags every message with the tiny 3-byte PEDAL header so the
// receiver can pick the matching decompression design.
package core

import (
	"fmt"

	"pedal/internal/hwmodel"
)

// AlgoID is the wire identifier carried in the PEDAL header's second
// byte (paper Fig. 5): it tells the receiver which compression design
// decodes the payload.
type AlgoID uint8

// Wire algorithm identifiers. Zero is reserved so a stray 0x00 never
// parses as a valid design.
const (
	AlgoDeflate AlgoID = iota + 1
	AlgoZlib
	AlgoLZ4
	AlgoSZ3
)

// AlgoHybrid selects the hybrid design, the extension the paper sketches
// in §V-C.2 and recommends in §VI: SoC cores and C-Engine working on one
// message in parallel. It is a design selector only — the hybrid runs as
// pipelined DEFLATE with the engine on and ships an AlgoPipelined message.
// On the wire the value stays reserved: it named a frame format this
// library no longer produces, and Decompress rejects it with
// ErrRetiredAlgo rather than mistaking the message for uncompressed data.
const AlgoHybrid AlgoID = 5

// DesignHybrid returns the hybrid design descriptor.
func DesignHybrid() Design { return Design{Algo: AlgoHybrid, Engine: hwmodel.CEngine} }

func (a AlgoID) String() string {
	switch a {
	case AlgoDeflate:
		return "DEFLATE"
	case AlgoZlib:
		return "zlib"
	case AlgoLZ4:
		return "LZ4"
	case AlgoSZ3:
		return "SZ3"
	case AlgoHybrid:
		return "Hybrid-DEFLATE"
	case AlgoPipelined:
		return "Pipelined"
	default:
		return fmt.Sprintf("AlgoID(%d)", uint8(a))
	}
}

// Lossy reports whether the algorithm is lossy.
func (a AlgoID) Lossy() bool { return a == AlgoSZ3 }

// hwAlgo maps a wire algorithm to its cost-model identity.
func (a AlgoID) hwAlgo() hwmodel.Algo {
	switch a {
	case AlgoDeflate:
		return hwmodel.Deflate
	case AlgoZlib:
		return hwmodel.Zlib
	case AlgoLZ4:
		return hwmodel.LZ4
	case AlgoSZ3:
		return hwmodel.SZ3Core
	default:
		return 0
	}
}

// Design is one of PEDAL's compression designs: an algorithm bound to a
// preferred execution engine. Table III enumerates which designs each
// BlueField generation supports; Library.Compress falls back to the SoC
// when the preferred engine lacks the operation.
type Design struct {
	Algo   AlgoID
	Engine hwmodel.Engine
}

func (d Design) String() string {
	return fmt.Sprintf("%s_%s", d.Engine, d.Algo)
}

// Designs enumerates the eight designs of Table III in a stable order:
// the four algorithms on the SoC, then the four with C-Engine preference.
func Designs() []Design {
	algos := []AlgoID{AlgoDeflate, AlgoZlib, AlgoLZ4, AlgoSZ3}
	out := make([]Design, 0, 8)
	for _, a := range algos {
		out = append(out, Design{Algo: a, Engine: hwmodel.SoC})
	}
	for _, a := range algos {
		out = append(out, Design{Algo: a, Engine: hwmodel.CEngine})
	}
	return out
}

// LosslessDesigns returns the six lossless designs (Fig. 10's labels A-F:
// SoC_DEFLATE, C-Engine_DEFLATE, SoC_LZ4, C-Engine_LZ4, SoC_zlib,
// C-Engine_zlib).
func LosslessDesigns() []Design {
	return []Design{
		{AlgoDeflate, hwmodel.SoC},
		{AlgoDeflate, hwmodel.CEngine},
		{AlgoLZ4, hwmodel.SoC},
		{AlgoLZ4, hwmodel.CEngine},
		{AlgoZlib, hwmodel.SoC},
		{AlgoZlib, hwmodel.CEngine},
	}
}

// SupportsCompress reports whether gen can execute design's *compression*
// without falling back to the SoC. This is Table III's compression
// column: on BlueField-2 the C-Engine compresses DEFLATE natively and
// zlib/SZ3 through PEDAL's hybrid extension; BlueField-3's C-Engine
// compresses nothing.
func SupportsCompress(gen hwmodel.Generation, d Design) bool {
	if d.Engine == hwmodel.SoC {
		return true
	}
	if gen != hwmodel.BlueField2 {
		return false
	}
	switch d.Algo {
	case AlgoDeflate, AlgoZlib, AlgoSZ3:
		// SZ3 and zlib: PEDAL extensions riding the DEFLATE engine.
		return true
	default:
		return false // LZ4 has no C-Engine path on BF2
	}
}

// SupportsDecompress is Table III's decompression column: the DEFLATE
// engine decompresses on both generations (zlib and SZ3 ride it), and
// BlueField-3 adds native LZ4 decompression.
func SupportsDecompress(gen hwmodel.Generation, d Design) bool {
	if d.Engine == hwmodel.SoC {
		return true
	}
	switch d.Algo {
	case AlgoDeflate, AlgoZlib, AlgoSZ3:
		return gen == hwmodel.BlueField2 || gen == hwmodel.BlueField3
	case AlgoLZ4:
		return gen == hwmodel.BlueField3
	default:
		return false
	}
}
