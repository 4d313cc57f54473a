// Package zlibfmt implements the zlib compressed data format (RFC 1950):
// a 2-byte header and a 4-byte Adler-32 trailer around a DEFLATE stream.
//
// Besides the ordinary one-shot Compress/Decompress, the package exposes
// the split Header/Body/Trailer operations that PEDAL's hybrid design uses
// on the BlueField DPU: the SoC computes the zlib header and trailer while
// the actual DEFLATE body is produced by the C-Engine (paper §III-C.1,
// Fig. 3).
package zlibfmt

import (
	"encoding/binary"
	"errors"
	"fmt"

	"pedal/internal/checksum"
	"pedal/internal/flate"
)

// Format errors.
var (
	ErrHeader   = errors.New("zlibfmt: invalid header")
	ErrChecksum = errors.New("zlibfmt: Adler-32 mismatch")
	ErrDict     = errors.New("zlibfmt: preset dictionaries unsupported")
	ErrShort    = errors.New("zlibfmt: stream too short")
)

const (
	cmfDeflate = 8 // CM=8: DEFLATE with up to 32K window
	cinfo32K   = 7 // CINFO=7: 32K window
)

// Header returns the 2-byte zlib header for a DEFLATE body compressed at
// the given level, per RFC 1950 §2.2. This is the SoC-side half of PEDAL's
// hybrid zlib design.
func Header(level int) [2]byte {
	cmf := byte(cinfo32K<<4 | cmfDeflate)
	var flevel byte
	switch {
	case level <= 1:
		flevel = 0 // fastest
	case level <= 5:
		flevel = 1 // fast
	case level == 6:
		flevel = 2 // default
	default:
		flevel = 3 // maximum
	}
	flg := flevel << 6
	// FCHECK: make (CMF*256 + FLG) a multiple of 31.
	rem := (uint16(cmf)*256 + uint16(flg)) % 31
	if rem != 0 {
		flg += byte(31 - rem)
	}
	return [2]byte{cmf, flg}
}

// Trailer returns the 4-byte big-endian Adler-32 trailer over the
// *uncompressed* data, per RFC 1950 §2.3.
func Trailer(uncompressed []byte) [4]byte {
	s := checksum.Adler32Sum(uncompressed)
	return [4]byte{byte(s >> 24), byte(s >> 16), byte(s >> 8), byte(s)}
}

// Assemble concatenates header + DEFLATE body + trailer into a complete
// zlib stream. The body must be a valid RFC 1951 stream for the
// uncompressed data; Assemble does not verify this.
func Assemble(level int, deflateBody, uncompressed []byte) []byte {
	h := Header(level)
	t := Trailer(uncompressed)
	out := make([]byte, 0, 2+len(deflateBody)+4)
	out = append(out, h[:]...)
	out = append(out, deflateBody...)
	out = append(out, t[:]...)
	return out
}

// Compress produces a complete zlib stream for src at the given level.
func Compress(src []byte, level int) []byte {
	return Assemble(level, flate.Compress(src, level), src)
}

// ParseHeader validates the 2-byte zlib header and reports whether a
// preset dictionary follows (unsupported).
func ParseHeader(src []byte) error {
	if len(src) < 2 {
		return ErrShort
	}
	cmf, flg := src[0], src[1]
	if cmf&0x0F != cmfDeflate {
		return fmt.Errorf("%w: compression method %d", ErrHeader, cmf&0x0F)
	}
	if cmf>>4 > 7 {
		return fmt.Errorf("%w: window size code %d", ErrHeader, cmf>>4)
	}
	if (uint16(cmf)*256+uint16(flg))%31 != 0 {
		return fmt.Errorf("%w: FCHECK failed", ErrHeader)
	}
	if flg&0x20 != 0 {
		return ErrDict
	}
	return nil
}

// Decompress inflates a complete zlib stream and verifies the Adler-32
// trailer.
func Decompress(src []byte) ([]byte, error) {
	return DecompressLimit(src, flate.DefaultMaxOutput)
}

// DecompressLimit is Decompress with an output size cap.
func DecompressLimit(src []byte, limit int) ([]byte, error) {
	body, err := Body(src)
	if err != nil {
		return nil, err
	}
	out, err := flate.DecompressLimit(body, limit)
	if err != nil {
		return nil, err
	}
	if err := VerifyTrailer(src, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Body extracts the raw DEFLATE body from a zlib stream without inflating
// it. Used by PEDAL's hybrid receive path, where the C-Engine inflates the
// body and the SoC only verifies the trailer.
func Body(src []byte) ([]byte, error) {
	if err := ParseHeader(src); err != nil {
		return nil, err
	}
	if len(src) < 2+4 {
		return nil, ErrShort
	}
	return src[2 : len(src)-4], nil
}

// VerifyTrailer checks the stream's Adler-32 trailer against decompressed
// data produced elsewhere (e.g. by the C-Engine).
func VerifyTrailer(src, uncompressed []byte) error {
	if len(src) < 6 {
		return ErrShort
	}
	want := binary.BigEndian.Uint32(src[len(src)-4:])
	if got := checksum.Adler32Sum(uncompressed); got != want {
		return fmt.Errorf("%w: got %#x want %#x", ErrChecksum, got, want)
	}
	return nil
}
