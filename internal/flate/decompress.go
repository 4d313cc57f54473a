package flate

import (
	"errors"
	"fmt"
	"sync"

	"pedal/internal/bits"
	"pedal/internal/huffman"
)

// Decompression errors.
var (
	ErrCorrupt  = errors.New("flate: corrupt stream")
	ErrTooLarge = errors.New("flate: output exceeds limit")
	// errBadHeader is the reserved block type 3: corrupt input like any
	// other, so it carries ErrCorrupt for callers that classify errors.
	errBadHeader = fmt.Errorf("%w: invalid block header", ErrCorrupt)
)

// DefaultMaxOutput caps decompressed output to defend against decompression
// bombs; callers that know the expected size should pass it explicitly.
const DefaultMaxOutput = 1<<31 - 1

// Decompress inflates a complete RFC 1951 stream.
func Decompress(src []byte) ([]byte, error) {
	return DecompressLimit(src, DefaultMaxOutput)
}

// DecompressLimit inflates src, failing with ErrTooLarge if the output
// would exceed limit bytes.
func DecompressLimit(src []byte, limit int) ([]byte, error) {
	return AppendDecompress(nil, src, limit)
}

// AppendDecompress inflates src, appending the output to dst and
// returning the extended slice. limit caps the total length of the
// returned slice (existing dst content included). When dst is a
// zero-length slice with capacity for the expected output the call
// avoids growth reallocations entirely, which is how the chunked
// pipeline decodes each chunk straight into its slot of the
// preallocated reassembly buffer. Existing dst bytes are visible to
// back-references, i.e. they act as a preset dictionary.
func AppendDecompress(dst, src []byte, limit int) ([]byte, error) {
	s := infPool.Get().(*infScratch)
	defer infPool.Put(s)
	s.r.Reset(src)
	r := &s.r
	out := dst
	pairs := len(src) >= pairMinStream
	for {
		final, err := r.ReadBool()
		if err != nil {
			return nil, fmt.Errorf("%w: missing block header", ErrCorrupt)
		}
		btype, err := r.ReadBits(2)
		if err != nil {
			return nil, fmt.Errorf("%w: missing block type", ErrCorrupt)
		}
		switch btype {
		case 0:
			out, err = inflateStored(r, out, limit)
		case 1:
			out, err = inflateHuffman(r, out, fixedLitDecoder(), fixedDistDecoder(), limit)
		case 2:
			var lit, dist *huffman.Decoder
			lit, dist, err = s.readDynamicHeader(r, pairs)
			if err == nil {
				out, err = inflateHuffman(r, out, lit, dist, limit)
			}
		default:
			return nil, errBadHeader
		}
		if err != nil {
			return nil, err
		}
		if final {
			return out, nil
		}
	}
}

// infScratch bundles the per-call decompression state — bit reader,
// dynamic-table decoders and their length arrays — so the steady-state
// inflate path allocates nothing. Pooled because chunks decode
// concurrently on the pipeline workers.
type infScratch struct {
	r          bits.Reader
	lit        huffman.Decoder
	dist       huffman.Decoder
	clc        huffman.Decoder
	lengths    [numLitLenSyms + numDistSyms]uint8
	clcLengths [numCLCSyms]uint8
}

var infPool = sync.Pool{New: func() any { return new(infScratch) }}

// pairMinStream is the shortest compressed stream whose dynamic blocks
// get two-symbol pair entries in their literal decoder. Building them
// walks all 2048 primary slots per block, which a short stream does not
// decode enough symbols to repay. Measured on level-6 streams of the
// five lossless stand-ins (x86-64, Go 1.24), decoding without pairs
// takes 0.5–0.7 of the time with them at 0.2–0.5 KiB compressed and
// 0.7–0.9 at 1–3 KiB; the two break even between 6 and 12 KiB, and from
// 20 KiB up pairs save 5–30%. The rule keys on the whole stream, so a
// 256 KiB pipeline chunk keeps its pairs in every block.
const pairMinStream = 12 << 10

// The fixed decoders are shared across goroutines (the pipeline decodes
// chunks concurrently), so they are built under a sync.Once rather than
// the racy lazy-nil pattern.
var (
	fixedDecOnce sync.Once
	fixedLit     *huffman.Decoder
	fixedDist    *huffman.Decoder
)

func buildFixedDecoders() {
	var err error
	// Literal decoders are paired: symbols below 256 (plain literals, no
	// extra bits) may fuse two-per-lookup. Length and distance symbols
	// trail extra bits, so they never fuse.
	if fixedLit, err = huffman.NewPairedDecoder(fixedLitLenLengths, endOfBlock); err != nil {
		panic(err)
	}
	if fixedDist, err = huffman.NewDecoder(fixedDistLengths); err != nil {
		panic(err)
	}
}

func fixedLitDecoder() *huffman.Decoder {
	fixedDecOnce.Do(buildFixedDecoders)
	return fixedLit
}

func fixedDistDecoder() *huffman.Decoder {
	fixedDecOnce.Do(buildFixedDecoders)
	return fixedDist
}

func inflateStored(r *bits.Reader, out []byte, limit int) ([]byte, error) {
	r.AlignByte()
	var hdr [4]byte
	if err := r.ReadBytes(hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated stored header", ErrCorrupt)
	}
	n := int(hdr[0]) | int(hdr[1])<<8
	nlen := int(hdr[2]) | int(hdr[3])<<8
	if n != ^nlen&0xFFFF {
		return nil, fmt.Errorf("%w: stored LEN/NLEN mismatch", ErrCorrupt)
	}
	if len(out)+n > limit {
		return nil, ErrTooLarge
	}
	start := len(out)
	if cap(out)-start >= n {
		out = out[:start+n]
	} else {
		out = append(out, make([]byte, n)...)
	}
	if err := r.ReadBytes(out[start:]); err != nil {
		return nil, fmt.Errorf("%w: truncated stored data", ErrCorrupt)
	}
	return out, nil
}

func (s *infScratch) readDynamicHeader(r *bits.Reader, pairs bool) (lit, dist *huffman.Decoder, err error) {
	hlit, err := r.ReadBits(5)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: HLIT", ErrCorrupt)
	}
	hdist, err := r.ReadBits(5)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: HDIST", ErrCorrupt)
	}
	hclen, err := r.ReadBits(4)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: HCLEN", ErrCorrupt)
	}
	nlit, ndist, nclc := int(hlit)+257, int(hdist)+1, int(hclen)+4
	if nlit > numLitLenSyms || ndist > numDistSyms {
		return nil, nil, fmt.Errorf("%w: alphabet sizes %d/%d", ErrCorrupt, nlit, ndist)
	}
	clcLengths := s.clcLengths[:]
	for i := range clcLengths {
		clcLengths[i] = 0
	}
	for i := 0; i < nclc; i++ {
		v, err := r.ReadBits(3)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: CLC lengths", ErrCorrupt)
		}
		clcLengths[clcOrder[i]] = uint8(v)
	}
	if err := s.clc.Reset(clcLengths); err != nil {
		return nil, nil, fmt.Errorf("%w: CLC code: %v", ErrCorrupt, err)
	}
	clcDec := &s.clc

	lengths := s.lengths[:nlit+ndist]
	for i := range lengths {
		lengths[i] = 0
	}
	for i := 0; i < len(lengths); {
		sym, err := clcDec.Decode(r)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: CLC symbol: %v", ErrCorrupt, err)
		}
		switch {
		case sym <= 15:
			lengths[i] = uint8(sym)
			i++
		case sym == 16:
			if i == 0 {
				return nil, nil, fmt.Errorf("%w: repeat with no previous length", ErrCorrupt)
			}
			n, err := r.ReadBits(2)
			if err != nil {
				return nil, nil, fmt.Errorf("%w: repeat bits", ErrCorrupt)
			}
			rep := int(n) + 3
			if i+rep > len(lengths) {
				return nil, nil, fmt.Errorf("%w: repeat overruns alphabet", ErrCorrupt)
			}
			v := lengths[i-1]
			for k := 0; k < rep; k++ {
				lengths[i] = v
				i++
			}
		case sym == 17 || sym == 18:
			var bitsN uint = 3
			base := 3
			if sym == 18 {
				bitsN, base = 7, 11
			}
			n, err := r.ReadBits(bitsN)
			if err != nil {
				return nil, nil, fmt.Errorf("%w: zero-run bits", ErrCorrupt)
			}
			rep := int(n) + base
			if i+rep > len(lengths) {
				return nil, nil, fmt.Errorf("%w: zero run overruns alphabet", ErrCorrupt)
			}
			i += rep
		default:
			return nil, nil, fmt.Errorf("%w: CLC symbol %d", ErrCorrupt, sym)
		}
	}
	if lengths[endOfBlock] == 0 {
		return nil, nil, fmt.Errorf("%w: end-of-block symbol has no code", ErrCorrupt)
	}
	pairLimit := 0
	if pairs {
		pairLimit = endOfBlock
	}
	if err := s.lit.ResetPaired(lengths[:nlit], pairLimit); err != nil {
		return nil, nil, fmt.Errorf("%w: literal code: %v", ErrCorrupt, err)
	}
	distLens := lengths[nlit:]
	allZero := true
	for _, l := range distLens {
		if l != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		// Block has no distance codes (literal-only). Any distance decode
		// attempt must fail; use a nil decoder.
		return &s.lit, nil, nil
	}
	if err := s.dist.Reset(distLens); err != nil {
		return nil, nil, fmt.Errorf("%w: distance code: %v", ErrCorrupt, err)
	}
	return &s.lit, &s.dist, nil
}

func inflateHuffman(r *bits.Reader, out []byte, lit, dist *huffman.Decoder, limit int) ([]byte, error) {
	for {
		sym, sym2, ok2, err := lit.DecodePair(r)
		if err != nil {
			return nil, fmt.Errorf("%w: literal decode: %v", ErrCorrupt, err)
		}
		if ok2 {
			// Fused path: the decoder only pairs symbols below endOfBlock,
			// so both are plain literals.
			if len(out)+2 > limit {
				return nil, ErrTooLarge
			}
			out = append(out, byte(sym), byte(sym2))
			continue
		}
		switch {
		case sym < endOfBlock:
			if len(out)+1 > limit {
				return nil, ErrTooLarge
			}
			out = append(out, byte(sym))
		case sym == endOfBlock:
			return out, nil
		default:
			lc := sym - 257
			if lc >= len(lengthBase) {
				return nil, fmt.Errorf("%w: length symbol %d", ErrCorrupt, sym)
			}
			length := lengthBase[lc]
			if lengthExtra[lc] > 0 {
				e, err := r.ReadBits(lengthExtra[lc])
				if err != nil {
					return nil, fmt.Errorf("%w: length extra bits", ErrCorrupt)
				}
				length += int(e)
			}
			if dist == nil {
				return nil, fmt.Errorf("%w: match in block with no distance codes", ErrCorrupt)
			}
			dc, err := dist.Decode(r)
			if err != nil {
				return nil, fmt.Errorf("%w: distance decode: %v", ErrCorrupt, err)
			}
			if dc >= len(distBase) {
				return nil, fmt.Errorf("%w: distance symbol %d", ErrCorrupt, dc)
			}
			d := distBase[dc]
			if distExtra[dc] > 0 {
				e, err := r.ReadBits(distExtra[dc])
				if err != nil {
					return nil, fmt.Errorf("%w: distance extra bits", ErrCorrupt)
				}
				d += int(e)
			}
			if d > len(out) {
				return nil, fmt.Errorf("%w: distance %d beyond output (%d bytes)", ErrCorrupt, d, len(out))
			}
			if len(out)+length > limit {
				return nil, ErrTooLarge
			}
			// Word-wide match copy. Non-overlapping spans go through one
			// memmove; overlapping spans (d < length) repeat the available
			// prefix with doubling copies — each pass uses only bytes
			// written by earlier passes, so distance-1 runs still expand
			// correctly while long RLE matches run at memmove speed.
			n0 := len(out)
			start := n0 - d
			out = append(out, make([]byte, length)...)
			if d >= length {
				copy(out[n0:], out[start:start+length])
			} else {
				for pos := n0; pos < len(out); {
					pos += copy(out[pos:], out[start:pos])
				}
			}
		}
	}
}
