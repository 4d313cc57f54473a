package flate

import (
	"fmt"
	"sync"

	"pedal/internal/bits"
	"pedal/internal/huffman"
	"pedal/internal/lz77"
)

// DefaultLevel mirrors zlib's default compression level.
const DefaultLevel = 6

// Compress deflates src at the given level (1–9; 0 or out-of-range values
// clamp). The result is a complete RFC 1951 stream in a slice of exactly
// its length: the stream is written into a pooled buffer of
// CompressBound(len(src)) bytes and copied out, so incompressible input
// never regrows a buffer and a caller that keeps the stream (the engine's
// compress job returns it as the message) holds no spare capacity.
func Compress(src []byte, level int) []byte {
	s := getScratch()
	if n := CompressBound(len(src)); cap(s.out) < n {
		s.out = make([]byte, 0, n)
	}
	s.out = s.deflate(s.out[:0], src, level)
	out := make([]byte, len(s.out))
	copy(out, s.out)
	putScratch(s)
	return out
}

// AppendCompress deflates src at the given level and appends the RFC
// 1951 stream to dst, returning the extended slice. All working state
// (match-finder tables, token buffers, Huffman scratch) comes from a
// sync.Pool, so when dst has capacity CompressBound(len(src)) the call
// is allocation-free at steady state — the property the chunked
// pipeline's per-chunk hot path relies on.
func AppendCompress(dst, src []byte, level int) []byte {
	s := getScratch()
	out := s.deflate(dst, src, level)
	putScratch(s)
	return out
}

// deflate appends src's RFC 1951 stream to dst using s's working state
// and returns the extended slice. s keeps no reference to dst.
func (s *scratch) deflate(dst, src []byte, level int) []byte {
	s.w.ResetBuf(dst)
	c := &compressor{w: &s.w, level: level, s: s}
	c.compress(src)
	out := s.w.Bytes()
	s.w.ResetBuf(nil) // do not retain the caller's buffer in the pool
	return out
}

// CompressBound returns a dst capacity that guarantees AppendCompress
// will not grow it: the stored-block worst case (5 bytes of header per
// 65535-byte block) plus block headers and flush slack.
func CompressBound(n int) int {
	return n + n>>12 + 64
}

// AppendCompressVerified deflates src like AppendCompress, but runs the
// SWAR tokenizer's output through the scalar lz77 referee before
// encoding. A token stream that fails to reproduce src byte-for-byte is
// discarded and src is emitted as stored blocks instead — the scalar
// reference encoding, trivially correct and decodable by any inflater.
// The returned bool reports whether the referee had to intervene.
// Allocation-free under the same conditions as AppendCompress.
func AppendCompressVerified(dst, src []byte, level int) ([]byte, bool) {
	s := getScratch()
	s.w.ResetBuf(dst)
	c := &compressor{w: &s.w, level: level, s: s}
	refereed := c.compressVerified(src)
	out := s.w.Bytes()
	s.w.ResetBuf(nil) // do not retain the caller's buffer in the pool
	putScratch(s)
	return out, refereed
}

// compressVerified is compress with the scalar token referee between
// tokenization and encoding.
func (c *compressor) compressVerified(src []byte) bool {
	if len(src) == 0 {
		c.writeFixedBlock(nil, true)
		return false
	}
	s := c.s
	s.tokens = s.matcher.Tokens(src, lz77.LevelParams(c.level), s.tokens[:0])
	if !lz77.VerifyTokens(s.tokens, src) {
		// The match finder misbehaved: fall back to the stored-block
		// reference path, which touches none of the SWAR machinery.
		c.writeStored(src, true)
		return true
	}
	c.emitTokenBlocks(s.tokens, src)
	return false
}

// blockTokens is the number of LZ77 tokens gathered per DEFLATE block.
// zlib flushes blocks on similar granularity; one Huffman table per ~64K
// tokens balances table overhead against adaptivity.
const blockTokens = 1 << 16

// scratch is the reusable per-compression state. Every slice and table
// that the per-block path needs lives here so that steady-state
// compression performs zero heap allocations.
type scratch struct {
	// out is Compress's output buffer, kept at the largest
	// CompressBound seen.
	out     []byte
	w       bits.Writer
	matcher lz77.Matcher
	tokens  []lz77.Token

	litFreq  [numLitLenSyms]uint64
	distFreq [numDistSyms]uint64
	clcFreq  [numCLCSyms]uint64
	seq      [numLitLenSyms + numDistSyms]uint8
	clSyms   []clSym

	hscratch huffman.Scratch
	plan     dynamicPlan
	litLens  [numLitLenSyms]uint8
	distLens [numDistSyms]uint8
	clcLens  [numCLCSyms]uint8
	litCode  huffman.Code
	distCode huffman.Code
	clcCode  huffman.Code
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{clSyms: make([]clSym, 0, numLitLenSyms+numDistSyms)}
}}

func getScratch() *scratch  { return scratchPool.Get().(*scratch) }
func putScratch(s *scratch) { scratchPool.Put(s) }

type compressor struct {
	w     *bits.Writer
	level int
	s     *scratch
}

// newCompressor builds a compressor writing to w, with pooled scratch.
// The release function returns the scratch to the pool.
func newCompressor(w *bits.Writer, level int) (*compressor, func()) {
	s := getScratch()
	c := &compressor{w: w, level: level, s: s}
	return c, func() { putScratch(s) }
}

func (c *compressor) compress(src []byte) {
	if len(src) == 0 {
		// A single empty final block (fixed Huffman, just end-of-block).
		c.writeFixedBlock(nil, true)
		return
	}
	s := c.s
	s.tokens = s.matcher.Tokens(src, lz77.LevelParams(c.level), s.tokens[:0])
	c.emitTokenBlocks(s.tokens, src)
}

// emitTokenBlocks writes the token stream as DEFLATE blocks of
// blockTokens tokens each, tracking the source span each covers for the
// stored-block fallback.
func (c *compressor) emitTokenBlocks(tokens []lz77.Token, src []byte) {
	off := 0
	for start := 0; start < len(tokens) || start == 0; start += blockTokens {
		end := start + blockTokens
		if end > len(tokens) {
			end = len(tokens)
		}
		blk := tokens[start:end]
		final := end == len(tokens)
		span := 0
		for _, t := range blk {
			if t.IsLiteral() {
				span++
			} else {
				span += int(t.Len)
			}
		}
		c.writeBlock(blk, src[off:off+span], final)
		off += span
		if final {
			break
		}
	}
}

// writeBlock picks the cheapest encoding (stored / fixed / dynamic) for the
// token block, mirroring zlib's block-type decision.
func (c *compressor) writeBlock(tokens []lz77.Token, raw []byte, final bool) {
	s := c.s
	litFreq := s.litFreq[:]
	distFreq := s.distFreq[:]
	for i := range litFreq {
		litFreq[i] = 0
	}
	for i := range distFreq {
		distFreq[i] = 0
	}
	for _, t := range tokens {
		if t.IsLiteral() {
			litFreq[t.Lit]++
		} else {
			litFreq[257+int(lengthCodeOf[t.Len])]++
			distFreq[distCodeOf(int(t.Dist))]++
		}
	}
	litFreq[endOfBlock]++

	dynCost, dyn := c.planDynamic(litFreq, distFreq)
	fixCost := fixedCost(litFreq, distFreq)
	storedCost := storedBlockCost(len(raw))

	switch {
	case storedCost <= dynCost && storedCost <= fixCost:
		c.writeStored(raw, final)
	case fixCost <= dynCost:
		c.writeFixedBlock(tokens, final)
	default:
		c.writeDynamicBlock(tokens, dyn, final)
	}
}

// storedBlockCost estimates stored encoding cost in bits (including block
// headers for the required 65535-byte segmentation, assuming byte
// alignment costs ~4 bits on average).
func storedBlockCost(n int) int {
	blocks := (n + maxStoredBlock - 1) / maxStoredBlock
	if blocks == 0 {
		blocks = 1
	}
	return blocks*(3+4+32) + n*8
}

func fixedCost(litFreq, distFreq []uint64) int {
	cost := 3
	for s, f := range litFreq {
		cost += int(f) * int(fixedLitLenLengths[s])
		if s >= 257 {
			cost += int(f) * int(lengthExtra[s-257])
		}
	}
	for s, f := range distFreq {
		cost += int(f) * (5 + int(distExtra[s]))
	}
	return cost
}

// dynamicPlan holds everything needed to emit a dynamic block. Its
// slices and code tables point into the owning scratch and are reused
// block after block.
type dynamicPlan struct {
	litLen   []uint8
	dist     []uint8
	litCode  *huffman.Code
	distCode *huffman.Code
	// Header encoding.
	clcLengths []uint8
	clcCode    *huffman.Code
	clSymbols  []clSym // RLE-encoded code-length sequence
	hlit       int
	hdist      int
	hclen      int
}

// clSym is one symbol of the code-length-code stream: a code-length symbol
// 0..18 plus its extra-bits payload for symbols 16/17/18.
type clSym struct {
	sym   uint8
	extra uint8
	ebits uint8
}

// planDynamic builds the dynamic-Huffman plan in the compressor's
// scratch and returns its exact bit cost.
func (c *compressor) planDynamic(litFreq, distFreq []uint64) (int, *dynamicPlan) {
	s := c.s
	litLen := s.litLens[:]
	if err := s.hscratch.BuildLengthsInto(litFreq, maxCodeBits, litLen); err != nil {
		// litFreq always contains end-of-block, so this cannot happen.
		panic(fmt.Sprintf("flate: literal code build: %v", err))
	}
	distLen := s.distLens[:]
	err := s.hscratch.BuildLengthsInto(distFreq, maxCodeBits, distLen)
	if err == huffman.ErrEmptyAlphabet {
		// No distances used. RFC 1951 still requires at least one distance
		// code length; declare one code of length 1 (allowed: "one distance
		// code of zero bits" is encoded as a single code).
		for i := range distLen {
			distLen[i] = 0
		}
		distLen[0] = 1
	} else if err != nil {
		panic(fmt.Sprintf("flate: distance code build: %v", err))
	}

	p := &s.plan
	*p = dynamicPlan{litLen: litLen, dist: distLen}
	p.hlit = numLitLenSyms
	for p.hlit > 257 && litLen[p.hlit-1] == 0 {
		p.hlit--
	}
	p.hdist = numDistSyms
	for p.hdist > 1 && distLen[p.hdist-1] == 0 {
		p.hdist--
	}

	// RLE-encode the concatenated length sequence with symbols 16/17/18.
	seq := s.seq[:0]
	seq = append(seq, litLen[:p.hlit]...)
	seq = append(seq, distLen[:p.hdist]...)
	p.clSymbols = rleCodeLengths(seq, s.clSyms[:0])
	s.clSyms = p.clSymbols[:0]

	clcFreq := s.clcFreq[:]
	for i := range clcFreq {
		clcFreq[i] = 0
	}
	for _, cs := range p.clSymbols {
		clcFreq[cs.sym]++
	}
	clcLengths := s.clcLens[:]
	if err := s.hscratch.BuildLengthsInto(clcFreq, maxCLCBits, clcLengths); err != nil {
		panic(fmt.Sprintf("flate: clc build: %v", err))
	}
	p.clcLengths = clcLengths
	p.hclen = numCLCSyms
	for p.hclen > 4 && clcLengths[clcOrder[p.hclen-1]] == 0 {
		p.hclen--
	}

	if err := huffman.CanonicalInto(litLen, &s.litCode); err != nil {
		panic(err)
	}
	if err := huffman.CanonicalInto(distLen, &s.distCode); err != nil {
		panic(err)
	}
	if err := huffman.CanonicalInto(clcLengths, &s.clcCode); err != nil {
		panic(err)
	}
	p.litCode, p.distCode, p.clcCode = &s.litCode, &s.distCode, &s.clcCode

	// Exact bit cost: 3 (block header) + 14 (HLIT/HDIST/HCLEN) +
	// 3*hclen + clc-coded lengths + payload.
	cost := 3 + 14 + 3*p.hclen
	for _, cs := range p.clSymbols {
		cost += int(clcLengths[cs.sym]) + int(cs.ebits)
	}
	for s, f := range litFreq {
		cost += int(f) * int(litLen[s])
		if s >= 257 {
			cost += int(f) * int(lengthExtra[s-257])
		}
	}
	for s, f := range distFreq {
		cost += int(f) * (int(distLen[s]) + int(distExtra[s]))
	}
	return cost, p
}

// rleCodeLengths encodes a code-length sequence using repeat symbols:
// 16 = repeat previous 3–6 times, 17 = repeat zero 3–10, 18 = repeat zero
// 11–138 (RFC 1951 §3.2.7), appending to out.
func rleCodeLengths(seq []uint8, out []clSym) []clSym {
	i := 0
	for i < len(seq) {
		v := seq[i]
		run := 1
		for i+run < len(seq) && seq[i+run] == v {
			run++
		}
		if v == 0 {
			for run >= 11 {
				n := run
				if n > 138 {
					n = 138
				}
				out = append(out, clSym{sym: 18, extra: uint8(n - 11), ebits: 7})
				run -= n
				i += n
			}
			if run >= 3 {
				out = append(out, clSym{sym: 17, extra: uint8(run - 3), ebits: 3})
				i += run
				run = 0
			}
			for ; run > 0; run-- {
				out = append(out, clSym{sym: 0})
				i++
			}
			continue
		}
		// Nonzero: emit the first occurrence, then repeats of 3–6.
		out = append(out, clSym{sym: v})
		i++
		run--
		for run >= 3 {
			n := run
			if n > 6 {
				n = 6
			}
			out = append(out, clSym{sym: 16, extra: uint8(n - 3), ebits: 2})
			run -= n
			i += n
		}
		for ; run > 0; run-- {
			out = append(out, clSym{sym: v})
			i++
		}
	}
	return out
}

func (c *compressor) writeStored(raw []byte, final bool) {
	for first := true; first || len(raw) > 0; first = false {
		n := len(raw)
		if n > maxStoredBlock {
			n = maxStoredBlock
		}
		last := final && n == len(raw)
		c.w.WriteBool(last)
		c.w.WriteBits(0, 2) // BTYPE=00
		c.w.AlignByte()
		c.w.WriteBits(uint32(n), 16)
		c.w.WriteBits(uint32(^uint16(n)), 16)
		c.w.WriteBytes(raw[:n])
		raw = raw[n:]
		if n == 0 {
			break
		}
	}
}

func (c *compressor) writeFixedBlock(tokens []lz77.Token, final bool) {
	c.w.WriteBool(final)
	c.w.WriteBits(1, 2) // BTYPE=01
	// The fixed code tables are process-wide constants, cached in
	// internal/huffman instead of being rebuilt per block.
	c.writeTokens(tokens, huffman.FixedLitLenCode(), huffman.FixedDistCode())
}

func (c *compressor) writeDynamicBlock(tokens []lz77.Token, p *dynamicPlan, final bool) {
	w := c.w
	w.WriteBool(final)
	w.WriteBits(2, 2) // BTYPE=10
	w.WriteBits(uint32(p.hlit-257), 5)
	w.WriteBits(uint32(p.hdist-1), 5)
	w.WriteBits(uint32(p.hclen-4), 4)
	for i := 0; i < p.hclen; i++ {
		w.WriteBits(uint32(p.clcLengths[clcOrder[i]]), 3)
	}
	for _, cs := range p.clSymbols {
		c.emitCode(p.clcCode, int(cs.sym))
		if cs.ebits > 0 {
			w.WriteBits(uint32(cs.extra), uint(cs.ebits))
		}
	}
	c.writeTokens(tokens, p.litCode, p.distCode)
}

func (c *compressor) emitCode(code *huffman.Code, sym int) {
	l := uint(code.Len[sym])
	c.w.WriteBits(bits.Reverse(code.Bits[sym], l), l)
}

func (c *compressor) writeTokens(tokens []lz77.Token, lit, dist *huffman.Code) {
	w := c.w
	litBits, litLens := lit.Bits, lit.Len
	distBits, distLens := dist.Bits, dist.Len
	// Codes are batched into a 64-bit staging word: literal runs
	// accumulate until another code might not fit (codes are at most
	// maxCodeBits wide), and a whole match — length code, length extra,
	// distance code, distance extra, at most 15+5+15+13 = 48 bits —
	// lands with a single WriteBits64.
	var acc uint64
	var n uint
	for _, t := range tokens {
		if t.IsLiteral() {
			l := uint(litLens[t.Lit])
			acc |= uint64(bits.Reverse(litBits[t.Lit], l)) << n
			n += l
			if n > 56-maxCodeBits {
				w.WriteBits64(acc, n)
				acc, n = 0, 0
			}
			continue
		}
		if n > 0 {
			w.WriteBits64(acc, n)
		}
		lc := int(lengthCodeOf[t.Len])
		sym := 257 + lc
		l := uint(litLens[sym])
		acc = uint64(bits.Reverse(litBits[sym], l))
		n = l
		if e := lengthExtra[lc]; e > 0 {
			acc |= uint64(int(t.Len)-lengthBase[lc]) << n
			n += e
		}
		dc := distCodeOf(int(t.Dist))
		ld := uint(distLens[dc])
		acc |= uint64(bits.Reverse(distBits[dc], ld)) << n
		n += ld
		if e := distExtra[dc]; e > 0 {
			acc |= uint64(int(t.Dist)-distBase[dc]) << n
			n += e
		}
		w.WriteBits64(acc, n)
		acc, n = 0, 0
	}
	if n > 0 {
		w.WriteBits64(acc, n)
	}
	c.emitCode(lit, endOfBlock)
}
