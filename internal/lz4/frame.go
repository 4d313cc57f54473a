package lz4

import (
	"encoding/binary"
	"errors"
	"fmt"

	"pedal/internal/checksum"
)

// Frame format errors.
var (
	ErrFrameMagic    = errors.New("lz4: bad frame magic")
	ErrFrameHeader   = errors.New("lz4: bad frame header")
	ErrFrameChecksum = errors.New("lz4: frame content checksum mismatch")
)

const (
	frameMagic = 0x184D2204

	// flgVersion is FLG version bits 01 in bits 7-6.
	flgVersion         = 1 << 6
	flgContentChecksum = 1 << 2
	flgContentSize     = 1 << 3

	// bdBlockMax4MB selects the 4 MB max block size (BD bits 6-4 = 7).
	bdBlockMax4MB = 7 << 4
	blockMax      = 4 << 20

	// uncompressedBit marks a stored block in the block size word.
	uncompressedBit = 1 << 31

	// maxExpansion bounds output bytes per input byte: a sequence's
	// length bytes add at most 255 output bytes each.
	maxExpansion = 255
)

// Compress produces a complete LZ4 frame: magic, frame descriptor with
// content size and content checksum, 4 MB blocks, end mark, checksum.
func Compress(src []byte) []byte {
	return AppendCompress(make([]byte, 0, CompressBlockBound(len(src))+32), src)
}

// CompressBound returns a dst capacity that guarantees AppendCompress
// will not reallocate: frame header (15) + per-block size words and
// worst-case block expansion + end mark and content checksum. The
// compressed attempt for a block that ends up stored transiently needs
// the full CompressBlockBound, so that is what is budgeted.
func CompressBound(n int) int {
	blocks := n/blockMax + 1
	return n + n/255 + 20*blocks + 32
}

// AppendCompress is Compress appending to dst. With
// cap(dst)-len(dst) ≥ CompressBound(len(src)) the call performs no heap
// allocation: each block is compressed directly into dst after a size
// placeholder, and rewound to a stored block if compression expanded it.
func AppendCompress(dst, src []byte) []byte {
	out := dst
	out = binary.LittleEndian.AppendUint32(out, frameMagic)

	flg := byte(flgVersion | flgContentChecksum | flgContentSize)
	bd := byte(bdBlockMax4MB)
	out = append(out, flg, bd)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(src))) // content size
	// HC: second byte of xxh32 of the descriptor (FLG..content size).
	hc := byte(checksum.XXH32(out[len(dst)+4:], 0) >> 8)
	out = append(out, hc)

	for off := 0; off < len(src) || (off == 0 && len(src) == 0); off += blockMax {
		end := off + blockMax
		if end > len(src) {
			end = len(src)
		}
		chunk := src[off:end]
		if len(chunk) == 0 {
			break
		}
		// Compress in place after a 4-byte size placeholder; rewind to a
		// stored block if the result did not shrink.
		sizePos := len(out)
		out = binary.LittleEndian.AppendUint32(out, 0)
		out = AppendCompressBlock(out, chunk)
		compLen := len(out) - sizePos - 4
		if compLen >= len(chunk) {
			out = out[:sizePos]
			out = binary.LittleEndian.AppendUint32(out, uint32(len(chunk))|uncompressedBit)
			out = append(out, chunk...)
		} else {
			binary.LittleEndian.PutUint32(out[sizePos:], uint32(compLen))
		}
	}
	out = binary.LittleEndian.AppendUint32(out, 0) // EndMark
	out = binary.LittleEndian.AppendUint32(out, checksum.XXH32(src, 0))
	return out
}

// Decompress parses a complete LZ4 frame and returns the content,
// verifying the content checksum when present.
func Decompress(src []byte) ([]byte, error) {
	return DecompressLimit(src, 1<<31-1)
}

// DecompressLimit is Decompress with an output cap.
func DecompressLimit(src []byte, limit int) ([]byte, error) {
	if len(src) < 7 {
		return nil, ErrFrameMagic
	}
	if binary.LittleEndian.Uint32(src) != frameMagic {
		return nil, ErrFrameMagic
	}
	i := 4
	flg := src[i]
	bd := src[i+1]
	i += 2
	if flg>>6 != 1 {
		return nil, fmt.Errorf("%w: version %d", ErrFrameHeader, flg>>6)
	}
	if bd&0x8F != 0 {
		return nil, fmt.Errorf("%w: reserved BD bits", ErrFrameHeader)
	}
	var contentSize uint64
	hasContentSize := flg&flgContentSize != 0
	if hasContentSize {
		if i+8 > len(src) {
			return nil, fmt.Errorf("%w: truncated content size", ErrFrameHeader)
		}
		contentSize = binary.LittleEndian.Uint64(src[i:])
		i += 8
	}
	if flg&(1<<0) != 0 { // DictID present
		i += 4
	}
	if i >= len(src) {
		return nil, fmt.Errorf("%w: truncated descriptor", ErrFrameHeader)
	}
	// Verify HC over the descriptor bytes.
	hc := src[i]
	if byte(checksum.XXH32(src[4:i], 0)>>8) != hc {
		return nil, fmt.Errorf("%w: descriptor checksum", ErrFrameHeader)
	}
	i++

	// Decode straight into one buffer sized from the declared content
	// size, trusted only as far as the input could legally expand
	// (maxExpansion) and limit allow: a forged size cannot make the
	// decoder reserve more than a truthful frame of this length would.
	var out []byte
	if hasContentSize && contentSize > 0 && limit > 0 {
		size := uint64(limit)
		if bound := uint64(len(src)) * maxExpansion; bound < size {
			size = bound
		}
		if contentSize < size {
			size = contentSize
		}
		out = make([]byte, 0, size)
	}
	for {
		if i+4 > len(src) {
			return nil, fmt.Errorf("%w: truncated block size", ErrCorrupt)
		}
		word := binary.LittleEndian.Uint32(src[i:])
		i += 4
		if word == 0 {
			break // EndMark
		}
		stored := word&uncompressedBit != 0
		size := int(word &^ uncompressedBit)
		if size > blockMax+16 {
			return nil, fmt.Errorf("%w: block size %d", ErrCorrupt, size)
		}
		if i+size > len(src) {
			return nil, fmt.Errorf("%w: block overruns input", ErrCorrupt)
		}
		blk := src[i : i+size]
		i += size
		if flg&(1<<4) != 0 { // block checksum
			if i+4 > len(src) {
				return nil, fmt.Errorf("%w: truncated block checksum", ErrCorrupt)
			}
			if binary.LittleEndian.Uint32(src[i:]) != checksum.XXH32(blk, 0) {
				return nil, fmt.Errorf("%w: block checksum mismatch", ErrCorrupt)
			}
			i += 4
		}
		if stored {
			if len(out)+size > limit {
				return nil, ErrTooLarge
			}
			out = append(out, blk...)
			continue
		}
		var err error
		if out, err = appendBlock(out, blk, limit); err != nil {
			return nil, err
		}
	}
	if flg&flgContentChecksum != 0 {
		if i+4 > len(src) {
			return nil, fmt.Errorf("%w: truncated content checksum", ErrCorrupt)
		}
		if binary.LittleEndian.Uint32(src[i:]) != checksum.XXH32(out, 0) {
			return nil, ErrFrameChecksum
		}
	}
	if hasContentSize && uint64(len(out)) != contentSize {
		return nil, fmt.Errorf("%w: content size %d != declared %d", ErrCorrupt, len(out), contentSize)
	}
	return out, nil
}
