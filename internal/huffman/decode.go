package huffman

import (
	"errors"

	"pedal/internal/bits"
)

// ErrInvalidCode is returned when the bit stream contains a code that is
// not part of the table.
var ErrInvalidCode = errors.New("huffman: invalid code in stream")

// primaryBits is the width of the first-level decode table. Codes no longer
// than primaryBits decode with a single lookup; longer codes fall through
// to a per-prefix secondary table. 11 bits covers the overwhelming
// majority of DEFLATE lit/len codes directly AND leaves room for two
// typical (4–6 bit) codes to land in one window, which is what makes the
// pair entries fire often enough to pay for themselves. The 16 KiB table
// still rebuilds in ~1 µs per dynamic block, amortised over tens of
// thousands of decoded symbols.
const primaryBits = 11

// Decode-table entries are packed into a single uint64 so the hot loop
// does one load, one mask, and a couple of shifts per symbol:
//
//	bits  0..1   kind; bit 0 = directly decodable (single or pair),
//	             bit 1 on a decodable entry = two fused symbols
//	bits  2..7   first-code length (single and pair), or the
//	             secondary-table width subBits (secondary)
//	bits  8..15  combined length of all fused codes (= first-code
//	             length for singles)
//	bits 16..47  symbol (single), sym1|sym2<<16 (pair),
//	             or secondary-table index (secondary)
//
// The kind values are chosen so the fast path is ONE predictable branch
// (e&1 != 0) covering both singles and pairs; single-vs-pair then only
// selects a payload mask, which compiles to a conditional move rather
// than a data-dependent jump.
const (
	kindInvalid   = 0
	kindSingle    = 1
	kindSecondary = 2
	kindPair      = 3
)

func packSingle(sym uint32, l uint8) uint64 {
	return kindSingle | uint64(l)<<2 | uint64(l)<<8 | uint64(sym)<<16
}

// payloadMask returns the s1 extraction mask for a decodable entry:
// pairs keep sym1 in the low 16 payload bits, singles use all 32.
func payloadMask(e uint64) uint32 {
	mask := uint32(0xFFFFFFFF)
	if e&2 != 0 {
		mask = 0xFFFF
	}
	return mask
}

// revCode is a (bit-reversed code, length) pair kept for the error slow
// path, which must distinguish a truncated stream from an invalid code.
type revCode struct {
	rev uint32
	len uint8
}

// Decoder is a table-driven canonical Huffman decoder operating on an
// LSB-first bit stream (codes stored bit-reversed, as in DEFLATE).
//
// When built with ResetPaired, primary slots whose first code is short
// enough that a complete second code also fits in the same primaryBits
// window carry both pre-decoded symbols; DecodePair then retires two
// symbols with a single table lookup. On skewed (realistic) streams most
// lookups hit this path.
type Decoder struct {
	primary   []uint64
	secondary [][]uint64
	codes     []revCode
	// code is the scratch canonical-code storage reused across Resets.
	code    Code
	maxBits uint8
	// minBits is the shortest code length, used for the slow path bound.
	minBits uint8
	// pairLimit bounds which symbols may be fused into pair entries:
	// only symbols < pairLimit qualify (callers exclude symbols whose
	// decode consumes extra bits, e.g. DEFLATE length codes).
	pairLimit int
}

// NewDecoder builds a decoder for the canonical code defined by lengths.
func NewDecoder(lengths []uint8) (*Decoder, error) {
	d := &Decoder{}
	if err := d.Reset(lengths); err != nil {
		return nil, err
	}
	return d, nil
}

// NewPairedDecoder builds a decoder whose DecodePair fast path may fuse
// two consecutive symbols, both below pairLimit, into one lookup.
func NewPairedDecoder(lengths []uint8, pairLimit int) (*Decoder, error) {
	d := &Decoder{}
	if err := d.ResetPaired(lengths, pairLimit); err != nil {
		return nil, err
	}
	return d, nil
}

// Reset rebuilds the decoder for a new canonical code, reusing the
// primary/secondary tables and slow-path storage from earlier builds so
// that per-block dynamic-table decoding allocates nothing at steady
// state (the chunked decompression hot path pools Decoders). The decoder
// has no pair entries; use ResetPaired to enable them.
func (d *Decoder) Reset(lengths []uint8) error {
	return d.ResetPaired(lengths, 0)
}

// ResetPaired is Reset with two-symbol fusion enabled for symbols below
// pairLimit (0 disables fusion).
func (d *Decoder) ResetPaired(lengths []uint8, pairLimit int) error {
	if err := CanonicalInto(lengths, &d.code); err != nil {
		return err
	}
	d.pairLimit = pairLimit
	d.maxBits = maxLen(lengths)
	d.minBits = 255
	for _, l := range lengths {
		if l > 0 && l < d.minBits {
			d.minBits = l
		}
	}
	if cap(d.primary) >= 1<<primaryBits {
		d.primary = d.primary[:1<<primaryBits]
	} else {
		d.primary = make([]uint64, 1<<primaryBits)
	}
	for i := range d.primary {
		d.primary[i] = kindInvalid
	}
	d.codes = d.codes[:0]
	d.secondary = d.secondary[:0]

	for s, l := range lengths {
		if l == 0 {
			continue
		}
		// DEFLATE streams store the code MSB-first; we read LSB-first, so
		// the lookup index is the bit-reversed code.
		rev := bits.Reverse(d.code.Bits[s], uint(l))
		d.codes = append(d.codes, revCode{rev: rev, len: l})
		if l <= primaryBits {
			// Fill every primary slot whose low l bits equal rev.
			e := packSingle(uint32(s), l)
			step := uint32(1) << uint(l)
			for idx := rev; idx < 1<<primaryBits; idx += step {
				d.primary[idx] = e
			}
			continue
		}
		// Secondary table keyed by the primary prefix (low primaryBits).
		prefix := rev & (1<<primaryBits - 1)
		pe := d.primary[prefix]
		need := d.maxBits - primaryBits
		if pe&3 != kindSecondary {
			pe = kindSecondary | uint64(need)<<2 | uint64(d.grabSecondary(need))<<16
			d.primary[prefix] = pe
		}
		sub := d.secondary[uint32(pe>>16)]
		hi := rev >> primaryBits
		step := uint32(1) << uint(l-primaryBits)
		e := packSingle(uint32(s), l)
		for idx := hi; idx < uint32(len(sub)); idx += step {
			sub[idx] = e
		}
	}
	if pairLimit > 0 {
		d.buildPairs()
	}
	return nil
}

// buildPairs upgrades primary slots to two-symbol entries where the
// window determines a complete second code after the first. Indices are
// walked descending so primary[idx>>l1] — always a smaller index — is
// still a single entry when read.
func (d *Decoder) buildPairs() {
	lim := d.pairLimit
	if lim > 1<<16 {
		lim = 1 << 16
	}
	for idx := len(d.primary) - 1; idx >= 0; idx-- {
		e := d.primary[idx]
		if e&3 != kindSingle {
			continue
		}
		l1 := uint(e>>2) & 63
		s1 := uint32(e >> 16)
		if l1 == 0 || int(s1) >= lim {
			continue
		}
		e2 := d.primary[uint(idx)>>l1]
		if e2&3 != kindSingle {
			continue
		}
		l2 := uint(e2>>2) & 63
		s2 := uint32(e2 >> 16)
		if l2 == 0 || l1+l2 > primaryBits || int(s2) >= lim {
			continue
		}
		d.primary[idx] = kindPair | uint64(l1)<<2 | uint64(l1+l2)<<8 |
			uint64(s1)<<16 | uint64(s2)<<32
	}
}

// grabSecondary returns the index of a cleared secondary table of
// 1<<need entries, reusing storage retained from previous Resets.
func (d *Decoder) grabSecondary(need uint8) int32 {
	idx := len(d.secondary)
	var sub []uint64
	if cap(d.secondary) > idx {
		d.secondary = d.secondary[:idx+1]
		sub = d.secondary[idx]
	}
	if cap(sub) >= 1<<need {
		sub = sub[:1<<need]
	} else {
		sub = make([]uint64, 1<<need)
	}
	if idx == len(d.secondary) {
		d.secondary = append(d.secondary, sub)
	} else {
		d.secondary[idx] = sub
	}
	for i := range sub {
		sub[i] = kindInvalid
	}
	return int32(idx)
}

// Decode reads one symbol from r.
func (d *Decoder) Decode(r *bits.Reader) (int, error) {
	v, avail := r.PeekBits(primaryBits)
	e := d.primary[v]
	if e&1 != 0 {
		l := uint(e>>2) & 63
		if l > avail {
			return 0, bits.ErrUnexpectedEOF
		}
		r.SkipBits(l)
		return int(uint32(e>>16) & payloadMask(e)), nil
	}
	return d.decodeSlow(r, v, avail, e)
}

// DecodePair reads one symbol, and — when the table window pre-decoded a
// complete second code — a second one in the same lookup. ok2 reports
// whether s2 is valid. Both fused symbols are always below the
// pairLimit the decoder was built with.
func (d *Decoder) DecodePair(r *bits.Reader) (s1, s2 int, ok2 bool, err error) {
	v, avail := r.PeekBits(primaryBits)
	e := d.primary[v]
	if e&1 != 0 {
		if total := uint(e>>8) & 0xFF; total <= avail {
			r.SkipBits(total)
			return int(uint32(e>>16) & payloadMask(e)), int(uint32(e>>32) & 0xFFFF),
				e&2 != 0, nil
		}
		// Stream tail: not enough bits for the fused total; consume just
		// the first code if it still fits.
		l := uint(e>>2) & 63
		if l > avail {
			return 0, 0, false, bits.ErrUnexpectedEOF
		}
		r.SkipBits(l)
		return int(uint32(e>>16) & payloadMask(e)), 0, false, nil
	}
	s1, err = d.decodeSlow(r, v, avail, e)
	return s1, 0, false, err
}

// decodeSlow handles the non-single primary entries: unmapped slots and
// long codes that continue into a secondary table.
func (d *Decoder) decodeSlow(r *bits.Reader, v uint32, avail uint, e uint64) (int, error) {
	if e&3 == kindInvalid {
		// No entry: invalid code unless the stream is too short to tell.
		if avail < primaryBits {
			return 0, d.shortStreamError(v, avail)
		}
		return 0, ErrInvalidCode
	}
	// Long code: peek the full maxBits and index the secondary table.
	total := primaryBits + uint(e>>2)&63
	full, availFull := r.PeekBits(total)
	sub := d.secondary[uint32(e>>16)]
	se := sub[full>>primaryBits]
	if se&3 != kindSingle {
		if availFull < total {
			return 0, d.shortStreamError(full, availFull)
		}
		return 0, ErrInvalidCode
	}
	l := uint(se>>2) & 63
	if l > availFull {
		return 0, bits.ErrUnexpectedEOF
	}
	r.SkipBits(l)
	return int(uint32(se >> 16)), nil
}

// shortStreamError decides, for a truncated peek of avail bits with value v,
// whether a longer stream could still have decoded (→ ErrUnexpectedEOF) or
// whether no code matches the bits we do have (→ ErrInvalidCode).
func (d *Decoder) shortStreamError(v uint32, avail uint) error {
	mask := uint32(1)<<avail - 1
	for _, c := range d.codes {
		if uint(c.len) > avail && c.rev&mask == v&mask {
			return bits.ErrUnexpectedEOF
		}
	}
	return ErrInvalidCode
}
