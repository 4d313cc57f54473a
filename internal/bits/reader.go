package bits

import (
	"encoding/binary"
	"errors"
	"io"
)

// ErrUnexpectedEOF is returned when the bit stream ends mid-read.
var ErrUnexpectedEOF = errors.New("bits: unexpected end of stream")

// Reader consumes bits LSB-first from a byte slice.
//
// The reservoir is 64 bits wide and refilled with a single unaligned
// 8-byte load whenever at least 8 source bytes remain, so a run of
// table-driven Huffman decodes pays one bounds check per ~7 consumed
// bytes instead of one per byte. The scalar byte-at-a-time path only
// runs inside the final 8 bytes of the stream.
type Reader struct {
	buf  []byte
	pos  int    // next byte index
	bits uint64 // buffered bits, LSB-first
	n    uint   // number of valid buffered bits (≤ 64)
}

// NewReader returns a Reader over p. The Reader does not copy p.
func NewReader(p []byte) *Reader {
	return &Reader{buf: p}
}

// fill buffers at least want bits if available. want must be ≤ 32.
//
// The reservoir invariant is speculative: bits 0..n-1 are the next n
// stream bits, and bits n..63 are either zero or the *correct
// continuation* (the stream bits of the not-yet-credited bytes at pos).
// The word-wide refill exploits that: it ORs a full 8-byte load at
// position n, credits only the whole bytes that fit (n becomes 56..63),
// and leaves the partially-loaded byte's bits sitting above n, where the
// next refill ORs the identical values back in.
func (r *Reader) fill(want uint) {
	if r.n >= want {
		return
	}
	if r.pos+8 <= len(r.buf) {
		r.bits |= binary.LittleEndian.Uint64(r.buf[r.pos:]) << (r.n & 63)
		r.pos += int((63 - r.n) >> 3)
		r.n |= 56
		return
	}
	for r.n < want && r.pos < len(r.buf) {
		r.bits |= uint64(r.buf[r.pos]) << r.n
		r.pos++
		r.n += 8
	}
}

// ReadBits reads n bits (n ≤ 32), LSB-first.
func (r *Reader) ReadBits(n uint) (uint32, error) {
	if n > 32 {
		panic("bits: ReadBits count > 32")
	}
	r.fill(n)
	if r.n < n {
		return 0, ErrUnexpectedEOF
	}
	v := uint32(r.bits) & masks[n]
	r.bits >>= n
	r.n -= n
	return v, nil
}

// ReadBool reads a single bit.
func (r *Reader) ReadBool() (bool, error) {
	v, err := r.ReadBits(1)
	return v == 1, err
}

// PeekBits returns up to n bits without consuming them, along with how many
// bits were actually available. Used by table-driven Huffman decoders.
func (r *Reader) PeekBits(n uint) (v uint32, avail uint) {
	r.fill(n)
	avail = r.n
	if avail > n {
		avail = n
	}
	return uint32(r.bits) & masks[n], avail
}

// SkipBits consumes n bits that were previously peeked. n must not exceed
// the currently buffered bit count.
func (r *Reader) SkipBits(n uint) {
	if n > r.n {
		panic("bits: SkipBits beyond buffered bits")
	}
	r.bits >>= n
	r.n -= n
}

// AlignByte discards buffered bits up to the next byte boundary.
func (r *Reader) AlignByte() {
	drop := r.n % 8
	r.bits >>= drop
	r.n -= drop
}

// ReadBytes byte-aligns the stream and copies len(p) bytes into p.
func (r *Reader) ReadBytes(p []byte) error {
	r.AlignByte()
	for i := range p {
		if r.n >= 8 {
			p[i] = byte(r.bits)
			r.bits >>= 8
			r.n -= 8
			continue
		}
		// Reservoir drained (n == 0 after the byte-aligned loop). Any
		// speculative continuation bits above n refer to the bytes at
		// pos, which are consumed directly below — drop them.
		r.bits = 0
		if r.pos >= len(r.buf) {
			return io.ErrUnexpectedEOF
		}
		p[i] = r.buf[r.pos]
		r.pos++
	}
	return nil
}

// Reset re-points the Reader at p and clears all buffered state, so a
// pooled Reader is reused without allocation.
func (r *Reader) Reset(p []byte) { *r = Reader{buf: p} }
