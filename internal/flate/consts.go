// Package flate implements the DEFLATE compressed data format (RFC 1951)
// from scratch: an LZ77 + canonical-Huffman compressor emitting stored,
// fixed-Huffman and dynamic-Huffman blocks, and a table-driven
// decompressor. Output interoperates with any RFC 1951 implementation
// (verified against Go's compress/flate in the tests).
package flate

const (
	endOfBlock = 256

	// numLitLenSyms is the literal/length alphabet size (RFC 1951 §3.2.5).
	numLitLenSyms = 286
	// numDistSyms is the distance alphabet size.
	numDistSyms = 30
	// numCLCSyms is the code-length-code alphabet size (§3.2.7).
	numCLCSyms = 19

	maxCodeBits = 15
	maxCLCBits  = 7

	// maxStoredBlock is the largest stored-block payload (16-bit LEN).
	maxStoredBlock = 65535
)

// lengthCodes maps match length (3..258) to (code, extraBits, base).
// RFC 1951 §3.2.5, codes 257..285.
var lengthBase = [29]int{
	3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31,
	35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258,
}

var lengthExtra = [29]uint{
	0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2,
	3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
}

// distBase and distExtra describe distance codes 0..29 (§3.2.5).
var distBase = [30]int{
	1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193,
	257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193,
	12289, 16385, 24577,
}

var distExtra = [30]uint{
	0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6,
	7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13,
}

// clcOrder is the permuted order in which code-length-code lengths are
// stored in a dynamic block header (§3.2.7).
var clcOrder = [numCLCSyms]int{
	16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
}

// lengthCode returns the length symbol (0-based, add 257) for a match
// length in [3, 258].
var lengthCodeOf = func() [259]uint8 {
	var t [259]uint8
	code := 0
	for l := 3; l <= 258; l++ {
		for code < 28 && l >= lengthBase[code+1] {
			code++
		}
		t[l] = uint8(code)
	}
	t[258] = 28
	return t
}()

// distCodeOf returns the distance symbol for a distance in [1, 32768]
// with one lookup in zlib's 512-entry dist_code layout: distances up to
// 256 index it directly, longer ones by (d-1)>>7 in the upper half. Codes
// 16 and up each cover whole 128-distance buckets, so the coarse half is
// exact.
func distCodeOf(d int) int {
	d--
	if d >= 256 {
		d = 256 + d>>7
	}
	return int(distCodes[d])
}

var distCodes = func() [512]uint8 {
	var t [512]uint8
	for i := range t {
		d := i + 1
		if i >= 256 {
			d = (i-256)<<7 + 1 // the first distance of the 128-wide bucket
		}
		code := 0
		for code < 29 && d >= distBase[code+1] {
			code++
		}
		t[i] = uint8(code)
	}
	return t
}()

// fixedLitLenLengths are the fixed-Huffman literal/length code lengths
// (§3.2.6).
var fixedLitLenLengths = func() []uint8 {
	l := make([]uint8, 288)
	for i := 0; i <= 143; i++ {
		l[i] = 8
	}
	for i := 144; i <= 255; i++ {
		l[i] = 9
	}
	for i := 256; i <= 279; i++ {
		l[i] = 7
	}
	for i := 280; i <= 287; i++ {
		l[i] = 8
	}
	return l
}()

// fixedDistLengths are the fixed-Huffman distance code lengths (all 5).
var fixedDistLengths = func() []uint8 {
	l := make([]uint8, 30)
	for i := range l {
		l[i] = 5
	}
	return l
}()
