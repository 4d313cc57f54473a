// Package checksum holds the checksums PEDAL's containers and hops
// carry: CRC-32 (IEEE 802.3 polynomial, gzip-compatible) on every hop,
// Adler-32 in zlib trailers (RFC 1950), and the 32-bit xxHash of LZ4
// frames. CRC-32 and Adler-32 are thin wrappers over hash/crc32 and
// hash/adler32, so every hop's choice of polynomial lives in this one
// package. Two things the standard library lacks are implemented here:
// XXH32, which the LZ4 frame format requires, and the CRC-32 combine
// operator (CRC32Combine, MakeCRC32Zeros), which lets the pipeline
// digest chunks on separate workers and stitch the stream CRC after.
package checksum

import (
	"encoding/binary"
	"hash/adler32"
	"hash/crc32"
)

// CRC32Update continues a CRC-32 (IEEE) over p from a previous value.
// Start with crc = 0.
func CRC32Update(crc uint32, p []byte) uint32 { return crc32.Update(crc, crc32.IEEETable, p) }

// CRC32 is a one-shot CRC-32 (IEEE) over p.
func CRC32(p []byte) uint32 { return crc32.ChecksumIEEE(p) }

// Adler32Sum is a one-shot Adler-32 (RFC 1950) over p.
func Adler32Sum(p []byte) uint32 { return adler32.Checksum(p) }

// gf2MatrixSquare sets square = mat², composing the linear operator
// with itself.
func gf2MatrixSquare(square, mat *[32]uint32) {
	for n := 0; n < 32; n++ {
		square[n] = gf2MatrixTimes(mat, mat[n])
	}
}

// CRC32Zeros is the precomputed GF(2) operator that advances a CRC-32
// register past a fixed number of zero bytes. Building one costs
// O(log n) 32×32 matrix squarings; applying it (Combine) is a single
// matrix–vector product, so a caller stitching many equal-sized
// segments — the pipeline combining per-chunk digests — builds the
// operator once and pays ~32 XORs per chunk thereafter.
type CRC32Zeros [32]uint32

// gf2MatrixTimes multiplies the GF(2) 32×32 matrix mat by the bit
// vector vec (each matrix column is one uint32 row of mat).
func gf2MatrixTimes(mat *[32]uint32, vec uint32) uint32 {
	var sum uint32
	for i := 0; vec != 0; vec >>= 1 {
		if vec&1 != 0 {
			sum ^= mat[i]
		}
		i++
	}
	return sum
}

// MakeCRC32Zeros builds the advance-past-n-zero-bytes operator by
// repeated squaring of the one-zero-bit shift (zlib's crc32_combine
// construction, with the powers composed into a standalone matrix).
func MakeCRC32Zeros(n int) *CRC32Zeros {
	res := &CRC32Zeros{}
	for i := range res {
		res[i] = 1 << i // identity: n <= 0 combines to crc1 ^ crc2
	}
	if n <= 0 {
		return res
	}
	var even, odd [32]uint32
	// odd = the one-bit-shift operator with the polynomial fed back.
	odd[0] = crc32.IEEE
	row := uint32(1)
	for i := 1; i < 32; i++ {
		odd[i] = row
		row <<= 1
	}
	// Square twice: even = shift-by-2-bits, odd = shift-by-4-bits; the
	// next squaring inside the loop lands on 8 bits = one zero byte.
	gf2MatrixSquare(&even, &odd)
	gf2MatrixSquare(&odd, &even)
	mat, other := &odd, &even
	var tmp CRC32Zeros
	for nn := uint64(n); nn != 0; nn >>= 1 {
		gf2MatrixSquare(other, mat) // mat for 2^i zero bytes
		mat, other = other, mat
		if nn&1 != 0 {
			// Powers of one operator commute, so the fold order is free.
			for i := range tmp {
				tmp[i] = gf2MatrixTimes(mat, res[i])
			}
			*res = tmp
		}
	}
	return res
}

// Combine returns the CRC-32 of A‖B given crc1 = CRC32(A) and
// crc2 = CRC32(B), where len(B) is the operator's byte count.
func (z *CRC32Zeros) Combine(crc1, crc2 uint32) uint32 {
	return gf2MatrixTimes((*[32]uint32)(z), crc1) ^ crc2
}

// CRC32Combine returns the CRC-32 of the concatenation A‖B given only
// crc1 = CRC32(A), crc2 = CRC32(B) and len2 = len(B). The CRC register
// update is linear over GF(2), so appending len2 bytes to A is the
// matrix operator "advance one zero byte" raised to the len2-th power
// applied to crc1, XORed with crc2 — O(log len2) regardless of payload
// size, which is what lets the pipeline digest each chunk on its own
// worker and stitch the stream CRC afterwards instead of paying a
// serial pass over the input.
func CRC32Combine(crc1, crc2 uint32, len2 int) uint32 {
	if len2 <= 0 {
		return crc1
	}
	return MakeCRC32Zeros(len2).Combine(crc1, crc2)
}

// xxHash32 prime constants (xxHash specification).
const (
	xxPrime1 = 2654435761
	xxPrime2 = 2246822519
	xxPrime3 = 3266489917
	xxPrime4 = 668265263
	xxPrime5 = 374761393
)

func rol32(x uint32, r uint) uint32 { return x<<r | x>>(32-r) }

func xxRound(acc, input uint32) uint32 {
	acc += input * xxPrime2
	acc = rol32(acc, 13)
	return acc * xxPrime1
}

// XXH32 computes the 32-bit xxHash of p with the given seed, per the
// canonical xxHash specification. The LZ4 frame format uses seed 0.
func XXH32(p []byte, seed uint32) uint32 {
	n := len(p)
	var h uint32
	if n >= 16 {
		v1 := seed + xxPrime1 + xxPrime2
		v2 := seed + xxPrime2
		v3 := seed
		v4 := seed - xxPrime1
		for len(p) >= 16 {
			v1 = xxRound(v1, binary.LittleEndian.Uint32(p))
			v2 = xxRound(v2, binary.LittleEndian.Uint32(p[4:]))
			v3 = xxRound(v3, binary.LittleEndian.Uint32(p[8:]))
			v4 = xxRound(v4, binary.LittleEndian.Uint32(p[12:]))
			p = p[16:]
		}
		h = rol32(v1, 1) + rol32(v2, 7) + rol32(v3, 12) + rol32(v4, 18)
	} else {
		h = seed + xxPrime5
	}
	h += uint32(n)
	for len(p) >= 4 {
		h += binary.LittleEndian.Uint32(p) * xxPrime3
		h = rol32(h, 17) * xxPrime4
		p = p[4:]
	}
	for _, b := range p {
		h += uint32(b) * xxPrime5
		h = rol32(h, 11) * xxPrime1
	}
	h ^= h >> 15
	h *= xxPrime2
	h ^= h >> 13
	h *= xxPrime3
	h ^= h >> 16
	return h
}
