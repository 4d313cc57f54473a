// Package lz4 implements the LZ4 block and frame formats from scratch,
// following the official specifications (lz4_Block_format.md and
// lz4_Frame_format.md). The compressor uses the reference algorithm's
// greedy single-probe hash strategy, tuned for speed over ratio — the
// same trade-off the real LZ4 makes, which is why the paper's Table V(a)
// shows LZ4 ratios consistently below DEFLATE's.
package lz4

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// Block format errors.
var (
	ErrCorrupt  = errors.New("lz4: corrupt block")
	ErrTooLarge = errors.New("lz4: output exceeds limit")
	ErrShortDst = errors.New("lz4: destination too small")
)

const (
	minMatch = 4
	// mfLimit: the last match must start at least this many bytes before
	// the block end (spec: last 5 bytes are always literals; matches must
	// not start within the last 12 bytes).
	mfLimit = 12
	// maxDistance is the LZ4 offset limit (64 KiB window).
	maxDistance = 65535

	hashLog  = 16
	hashSize = 1 << hashLog
)

// CompressBlockBound returns the maximum compressed size of a block of n
// input bytes (spec formula).
func CompressBlockBound(n int) int {
	return n + n/255 + 16
}

func blockHash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - hashLog)
}

func load32(p []byte, i int) uint32 {
	return uint32(p[i]) | uint32(p[i+1])<<8 | uint32(p[i+2])<<16 | uint32(p[i+3])<<24
}

// CompressBlock compresses src into the LZ4 block format and returns the
// compressed bytes. Incompressible input grows by at most
// CompressBlockBound(len(src)) - len(src) bytes.
func CompressBlock(src []byte) []byte {
	return AppendCompressBlock(make([]byte, 0, CompressBlockBound(len(src))), src)
}

// AppendCompressBlock compresses src into the LZ4 block format,
// appending to dst. With cap(dst)-len(dst) ≥ CompressBlockBound(len(src))
// the call performs no heap allocation: the hash table comes from a pool
// and is not cleared per call (see hashTable), so the setup a call pays
// is proportional to its input, not to the table.
func AppendCompressBlock(dst, src []byte) []byte {
	if len(src) < mfLimit+1 {
		if len(src) == 0 {
			return dst
		}
		return appendSequence(dst, src, 0, 0)
	}
	t := tablePool.Get().(*hashTable)
	dst = t.compress(dst, src)
	tablePool.Put(t)
	return dst
}

// hashTable is the compressor's position table. Its entries are tagged
// with a running offset: a call stores base+pos and then advances base
// by len(src), so an entry below base was written by an earlier call and
// reads as empty. The table is cleared only when base would pass
// math.MaxInt32, and base starts at 1 so the zero table reads as empty.
// Output bytes are those of a table cleared before every call.
type hashTable struct {
	base  uint32
	table [hashSize]uint32
}

var tablePool = sync.Pool{New: func() any { return new(hashTable) }}

// compress is AppendCompressBlock for inputs of at least mfLimit+1 bytes.
func (t *hashTable) compress(dst, src []byte) []byte {
	n := len(src)
	if t.base == 0 || int(t.base) > math.MaxInt32-n {
		t.table = [hashSize]uint32{}
		t.base = 1
	}
	base := t.base
	table := &t.table
	anchor := 0
	i := 0
	limit := n - mfLimit
	for i < limit {
		h := blockHash(load32(src, i))
		// An entry from an earlier call reads as a position at least
		// 2^31 past i, so the distance back to it, taken in 64 bits
		// whatever the width of int, wraps past maxDistance and is
		// rejected along with far matches.
		dist := uint64(i) - uint64(table[h]-base)
		table[h] = base + uint32(i)
		if dist > maxDistance || load32(src, i-int(dist)) != load32(src, i) {
			i++
			continue
		}
		cand := i - int(dist)
		// Extend the match forward.
		matchLen := minMatch
		maxLen := n - 5 - i // last 5 bytes must remain literals
		for matchLen < maxLen && src[cand+matchLen] == src[i+matchLen] {
			matchLen++
		}
		// Extend backward over pending literals.
		for i > anchor && cand > 0 && src[i-1] == src[cand-1] {
			i--
			cand--
			matchLen++
		}
		dst = appendSequence(dst, src[anchor:i], matchLen, i-cand)
		i += matchLen
		anchor = i
		// Prime the table inside the match span for better future matches.
		if i < limit {
			table[blockHash(load32(src, i-2))] = base + uint32(i-2)
		}
	}
	t.base += uint32(n)
	return appendSequence(dst, src[anchor:], 0, 0)
}

// appendSequence emits one LZ4 sequence: token, literal length extension,
// literals, offset, match length extension. matchLen == 0 means a final
// literals-only sequence.
func appendSequence(dst, literals []byte, matchLen, offset int) []byte {
	litLen := len(literals)
	var token byte
	if litLen >= 15 {
		token = 0xF0
	} else {
		token = byte(litLen) << 4
	}
	if matchLen > 0 {
		ml := matchLen - minMatch
		if ml >= 15 {
			token |= 0x0F
		} else {
			token |= byte(ml)
		}
		dst = append(dst, token)
		dst = appendLenExt(dst, litLen-15)
		dst = append(dst, literals...)
		dst = append(dst, byte(offset), byte(offset>>8))
		dst = appendLenExt(dst, ml-15)
		return dst
	}
	dst = append(dst, token)
	dst = appendLenExt(dst, litLen-15)
	return append(dst, literals...)
}

// appendLenExt emits the 255-run length extension when rem >= 0.
func appendLenExt(dst []byte, rem int) []byte {
	if rem < 0 {
		return dst
	}
	for rem >= 255 {
		dst = append(dst, 255)
		rem -= 255
	}
	return append(dst, byte(rem))
}

// DecompressBlock decompresses an LZ4 block into a buffer of at most limit
// bytes.
func DecompressBlock(src []byte, limit int) ([]byte, error) {
	return appendBlock(nil, src, limit)
}

// appendBlock decodes the LZ4 block src onto the end of out, failing
// with ErrTooLarge once out would pass limit bytes. Matches may reach
// back only into this block's own output: the bytes already in out
// belong to earlier, independent blocks.
func appendBlock(out, src []byte, limit int) ([]byte, error) {
	start := len(out)
	i := 0
	n := len(src)
	for i < n {
		token := src[i]
		i++
		// Literals.
		litLen := int(token >> 4)
		if litLen == 15 {
			for {
				if i >= n {
					return nil, fmt.Errorf("%w: truncated literal length", ErrCorrupt)
				}
				b := src[i]
				i++
				litLen += int(b)
				if b != 255 {
					break
				}
			}
		}
		if i+litLen > n {
			return nil, fmt.Errorf("%w: literals overrun input", ErrCorrupt)
		}
		if len(out)+litLen > limit {
			return nil, ErrTooLarge
		}
		out = append(out, src[i:i+litLen]...)
		i += litLen
		if i == n {
			break // final literals-only sequence
		}
		// Match.
		if i+2 > n {
			return nil, fmt.Errorf("%w: truncated offset", ErrCorrupt)
		}
		offset := int(src[i]) | int(src[i+1])<<8
		i += 2
		if offset == 0 {
			return nil, fmt.Errorf("%w: zero offset", ErrCorrupt)
		}
		if offset > len(out)-start {
			return nil, fmt.Errorf("%w: offset %d beyond output %d", ErrCorrupt, offset, len(out)-start)
		}
		matchLen := int(token & 0x0F)
		if matchLen == 15 {
			for {
				if i >= n {
					return nil, fmt.Errorf("%w: truncated match length", ErrCorrupt)
				}
				b := src[i]
				i++
				matchLen += int(b)
				if b != 255 {
					break
				}
			}
		}
		matchLen += minMatch
		if len(out)+matchLen > limit {
			return nil, ErrTooLarge
		}
		from := len(out) - offset
		if offset >= matchLen {
			out = append(out, out[from:from+matchLen]...)
			continue
		}
		for k := 0; k < matchLen; k++ {
			out = append(out, out[from+k])
		}
	}
	return out, nil
}
