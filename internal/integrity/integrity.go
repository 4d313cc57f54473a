// Package integrity is the compute fault domain: end-to-end defences
// against silent data corruption (SDC) in the compression offload path.
//
// The other five fault domains (engine, network, process, fleet,
// storage) all assume that when a kernel finishes without an error its
// output is correct. A miscompiling SWAR loop, a flipped bit in
// C-Engine SRAM or a stale mempool buffer breaks exactly that
// assumption: the bytes are wrong and every downstream hop — transport
// frame, fleet response, checkpoint shard — faithfully preserves the
// wrong bytes. This package holds the primitives the defence is
// built from:
//
//   - VerifyMode and Sampler: the verified-compression policy (Off /
//     Sampled / Full) that decode-verifies compressed output against a
//     source digest before it is released to the caller, and the one
//     per-library sampler that elects the operations and chunks it
//     verifies.
//   - CorruptError: the typed error every hop raises when a carried
//     checksum no longer matches the bytes, identifying the segment
//     and the hop that caught it.
//
// The verdicts feed the C-Engine's quarantine (dpu.CEngine): three
// verified mismatches bench the engine, and one half-open probe at a
// time re-earns its admission.
package integrity

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// VerifyMode selects how often compressed output is decode-verified
// against its source digest before release.
type VerifyMode uint8

const (
	// VerifyOff trusts kernel output (the pre-PR-9 behaviour).
	VerifyOff VerifyMode = iota
	// VerifySampled verifies one in every SampleN operations — cheap
	// steady-state screening that still bounds the time an SDC-prone
	// unit can emit garbage undetected.
	VerifySampled
	// VerifyFull verifies every operation before release.
	VerifyFull
)

func (m VerifyMode) String() string {
	switch m {
	case VerifyOff:
		return "off"
	case VerifySampled:
		return "sampled"
	case VerifyFull:
		return "full"
	default:
		return fmt.Sprintf("verify(%d)", uint8(m))
	}
}

// DefaultSampleN is the Sampled-mode period when the caller does not
// choose one: verify one operation in every 8.
const DefaultSampleN = 8

// Sampler decides which operations a VerifyMode verifies. It is
// allocation-free and safe for concurrent use (the pipelined path calls
// Hit from every worker).
type Sampler struct {
	mode VerifyMode
	n    uint32
	ctr  atomic.Uint32
}

// NewSampler returns a sampler for mode; n is the Sampled period
// (values < 1 fall back to DefaultSampleN).
func NewSampler(mode VerifyMode, n int) *Sampler {
	if n < 1 {
		n = DefaultSampleN
	}
	return &Sampler{mode: mode, n: uint32(n)}
}

// Mode reports the sampler's verify mode.
func (s *Sampler) Mode() VerifyMode {
	if s == nil {
		return VerifyOff
	}
	return s.mode
}

// Hit reports whether the next operation must be verified. A nil
// sampler never verifies.
func (s *Sampler) Hit() bool {
	if s == nil {
		return false
	}
	switch s.mode {
	case VerifyFull:
		return true
	case VerifySampled:
		return s.ctr.Add(1)%s.n == 0
	default:
		return false
	}
}

// ErrCorrupt is the sentinel every detected-corruption error wraps:
// errors.Is(err, integrity.ErrCorrupt) identifies an SDC caught before
// it escaped, at whatever hop caught it.
var ErrCorrupt = errors.New("integrity: data corruption detected")

// CorruptError identifies a corrupted segment and the hop that caught
// it. Want/Got carry the CRC-32 pair when the detection was a checksum
// comparison (both zero for differential-referee detections).
type CorruptError struct {
	// Hop names the layer that observed the mismatch: "verify",
	// "pipeline", "fleet", "ckpt", "engine".
	Hop string
	// Segment identifies the corrupted unit within the hop (an
	// algorithm name, a shard ID, a checkpoint key...).
	Segment string
	// Index is the chunk index for chunked streams, -1 otherwise.
	Index int
	// Want is the carried (source) CRC-32; Got the CRC-32 of the bytes
	// observed at the hop.
	Want, Got uint32
}

func (e *CorruptError) Error() string {
	if e.Want == 0 && e.Got == 0 {
		return fmt.Sprintf("integrity: corruption at hop %s (segment %s, index %d): referee mismatch",
			e.Hop, e.Segment, e.Index)
	}
	return fmt.Sprintf("integrity: corruption at hop %s (segment %s, index %d): crc %08x, carried %08x",
		e.Hop, e.Segment, e.Index, e.Got, e.Want)
}

// Is makes errors.Is(err, ErrCorrupt) true for every CorruptError.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }
