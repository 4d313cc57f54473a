// Package lz77 implements the sliding-window match finder used by the
// DEFLATE compressor (RFC 1951). It produces a token stream of literals
// and (length, distance) back-references over a 32 KiB window, using
// hash chains with lazy matching, the same strategy zlib's deflate uses.
//
// The hot loops are written in SWAR (word-parallel pure Go) style:
// match lengths are measured 8 bytes at a time with an unaligned load,
// XOR and TrailingZeros64, and chain candidates come from a 6-byte
// multiplicative hash computed from a single 64-bit load. This is
// portable to every 64-bit target (including the BlueField SoC's arm64
// cores) without assembly.
package lz77

import (
	"encoding/binary"
	"math"
	mathbits "math/bits"
)

const (
	// WindowSize is the DEFLATE history window (RFC 1951 §2).
	WindowSize = 32 * 1024
	// MinMatch and MaxMatch bound back-reference lengths (RFC 1951 §3.2.5).
	MinMatch = 3
	MaxMatch = 258

	hashBits = 15
	hashSize = 1 << hashBits
	hashMask = hashSize - 1

	// hashLen is the number of bytes folded into the hash. Hashing 6
	// bytes (vs the classic 4) gives far fewer false chain candidates on
	// structured data, which is where the match finder spends its time;
	// matches are verified byte-exactly regardless.
	hashLen = 6

	// hashPrime is a 64-bit odd multiplicative-hash constant (2^64/φ).
	hashPrime = 0x9E3779B185EBCA87
)

// Token is a literal byte or a back-reference.
//
// A literal has Len == 0 and the byte in Lit. A match has Len in
// [MinMatch, MaxMatch] and Dist in [1, WindowSize].
type Token struct {
	Dist uint16
	Len  uint16
	Lit  byte
}

// IsLiteral reports whether t is a literal token.
func (t Token) IsLiteral() bool { return t.Len == 0 }

// Params tunes the match finder. The presets mirror zlib's configuration
// table: good/lazy/nice/chain per compression level.
type Params struct {
	// GoodLen: stop lazy evaluation early when the current match is at
	// least this long.
	GoodLen int
	// LazyLen: only attempt lazy matching when the previous match is
	// shorter than this.
	LazyLen int
	// NiceLen: stop chain search when a match of this length is found.
	NiceLen int
	// ChainLen: maximum hash-chain positions to probe.
	ChainLen int
}

// LevelParams returns match-finder tuning for a zlib-style level 1–9.
func LevelParams(level int) Params {
	// Mirrors zlib's configuration_table.
	table := []Params{
		{4, 4, 8, 4},         // 1
		{4, 5, 16, 8},        // 2
		{4, 6, 32, 32},       // 3
		{4, 4, 16, 16},       // 4
		{8, 16, 32, 32},      // 5
		{8, 16, 128, 128},    // 6 (default)
		{8, 32, 128, 256},    // 7
		{32, 128, 258, 1024}, // 8
		{32, 258, 258, 4096}, // 9
	}
	if level < 1 {
		level = 1
	}
	if level > 9 {
		level = 9
	}
	return table[level-1]
}

func load32(p []byte, i int) uint32 { return binary.LittleEndian.Uint32(p[i:]) }
func load64(p []byte, i int) uint64 { return binary.LittleEndian.Uint64(p[i:]) }

// hash6 folds the low 6 bytes of an 8-byte little-endian load into a
// hashBits-bit table index: shift the two high bytes out, multiply by a
// large odd constant, keep the top bits.
func hash6(v uint64) uint32 {
	return uint32(((v << 16) * hashPrime) >> (64 - hashBits))
}

// Tokenize scans src and emits LZ77 tokens via emit. The emit function is
// called in stream order. Params control effort; use LevelParams.
//
// Tokenize allocates its hash tables per call; repeated callers on a hot
// path should hold a Matcher and use Matcher.Tokens, which reuses them.
func Tokenize(src []byte, p Params, emit func(Token)) {
	var m Matcher
	for _, t := range m.Tokens(src, p, nil) {
		emit(t)
	}
}

// Matcher is a reusable match finder: the 32K-entry hash head table and
// the per-position chain links persist across calls, so steady-state
// tokenisation of same-sized inputs allocates nothing. A Matcher is not
// safe for concurrent use; pool instances with sync.Pool.
//
// Neither table is cleared per call. Head entries hold base+pos, and
// each Tokens call advances base by len(src), so an entry below base was
// written by an earlier call and reads as empty; the head table is
// cleared only when base would pass math.MaxInt32. Chain links hold the
// head entry they displaced minus base: a position, or a negative value
// that ends the chain, so the candidate loop works on plain positions.
// Base starts at 1, so the zero Matcher is ready to use. A call's setup
// is thus proportional to its input, and its tokens are those of a
// cleared table.
type Matcher struct {
	head [hashSize]int32
	prev []int32
	base int32
	src  []byte
	p    Params
}

// insert records position i in the hash chain. Positions within hashLen+2
// bytes of the end are not indexed (the 64-bit load needs 8 valid bytes);
// matches cannot start there profitably anyway.
func (m *Matcher) insert(i int) {
	if i+8 > len(m.src) {
		return
	}
	h := hash6(load64(m.src, i))
	m.prev[i] = m.head[h] - m.base
	m.head[h] = m.base + int32(i)
}

// insertSpan records positions [start, end) in the hash chains with the
// table lookups hoisted out of the loop — the batched form used when a
// match's span is skipped over. end is clamped to the last indexable
// position.
//
// Long spans are indexed with a stride instead of position-by-position:
// the bytes inside a long match already occur one match-distance back
// and are indexed there, so dense re-insertion buys almost no extra
// matches but dominates the profile on compressible data. Positions not
// inserted never enter any chain (head entries from earlier calls sit
// below base and read as empty, and prev is only read for chained
// positions), so skipping is safe.
func (m *Matcher) insertSpan(start, end int) {
	src, prev, base := m.src, m.prev, m.base
	if last := len(src) - 8; end > last+1 {
		end = last + 1
	}
	span := end - start
	stride := 1
	if span > 32 {
		// ~32 insertions regardless of span length.
		stride = span >> 5
	}
	for j := start; j < end; j += stride {
		h := hash6(load64(src, j))
		prev[j] = m.head[h] - base
		m.head[h] = base + int32(j)
	}
}

// findMatch returns the best match length and distance at position i,
// probing at most chain candidates.
func (m *Matcher) findMatch(i, prevLen int) (bestLen, bestDist int) {
	src, n := m.src, len(m.src)
	if i+8 > n {
		return 0, 0
	}
	limit := i - WindowSize
	if limit < 0 {
		limit = 0
	}
	chain := m.p.ChainLen
	if prevLen >= m.p.GoodLen {
		chain >>= 2
	}
	maxLen := n - i
	if maxLen > MaxMatch {
		maxLen = MaxMatch
	}
	bestLen = MinMatch - 1
	first := load32(src, i)
	prev := m.prev
	// Untag the head entry: one from an earlier call turns negative and
	// ends the chain like a missing one.
	cand := m.head[hash6(load64(src, i))] - m.base
	for chain > 0 && cand >= int32(limit) {
		c := int(cand)
		// Quick reject: the byte that would extend the best match, then
		// the first four bytes in one compare.
		if src[c+bestLen] == src[i+bestLen] && load32(src, c) == first {
			l := matchLen(src, c, i, maxLen)
			if l > bestLen {
				bestLen = l
				bestDist = i - c
				if l >= m.p.NiceLen || l == maxLen {
					break
				}
			}
		}
		cand = prev[c]
		chain--
	}
	if bestLen < MinMatch {
		return 0, 0
	}
	return bestLen, bestDist
}

// Tokens scans src and appends its LZ77 token stream to dst, returning
// the extended slice. Passing a dst with sufficient capacity makes the
// call allocation-free.
func (m *Matcher) Tokens(src []byte, p Params, dst []Token) []Token {
	n := len(src)
	if n == 0 {
		return dst
	}
	if m.base == 0 || int(m.base) > math.MaxInt32-n {
		m.head = [hashSize]int32{}
		m.base = 1
	}
	if cap(m.prev) < n {
		m.prev = make([]int32, n)
	} else {
		m.prev = m.prev[:n]
	}
	m.src, m.p = src, p
	defer func() { m.src, m.base = nil, m.base+int32(n) }()

	i := 0
	// Lazy matching state: a pending match from the previous position.
	pendLen, pendDist := 0, 0
	pendPos := -1
	for i < n {
		curLen, curDist := 0, 0
		if i+MinMatch <= n {
			prevL := pendLen
			curLen, curDist = m.findMatch(i, prevL)
		}
		if pendPos >= 0 {
			// Decide between pending match at i-1 and current match at i.
			if curLen > pendLen {
				// Current wins: emit literal for i-1, keep evaluating.
				dst = append(dst, Token{Lit: src[pendPos]})
				m.insert(pendPos)
				pendLen, pendDist, pendPos = curLen, curDist, i
				i++
				continue
			}
			// Pending wins: emit it; skip its span.
			dst = append(dst, Token{Len: uint16(pendLen), Dist: uint16(pendDist)})
			end := pendPos + pendLen
			m.insert(pendPos)
			m.insertSpan(i, end)
			i = end
			pendLen, pendDist, pendPos = 0, 0, -1
			continue
		}
		if curLen == 0 {
			dst = append(dst, Token{Lit: src[i]})
			m.insert(i)
			i++
			continue
		}
		if curLen < p.LazyLen && i+1 < n {
			// Defer: maybe a better match starts at i+1.
			pendLen, pendDist, pendPos = curLen, curDist, i
			i++
			continue
		}
		// Take the match immediately.
		dst = append(dst, Token{Len: uint16(curLen), Dist: uint16(curDist)})
		m.insertSpan(i, i+curLen)
		i += curLen
	}
	if pendPos >= 0 {
		dst = append(dst, Token{Len: uint16(pendLen), Dist: uint16(pendDist)})
	}
	return dst
}

// matchLen counts how many bytes match between src[a:] and src[b:], up to
// maxLen. a < b is required. The comparison runs 8 bytes per step: XOR of
// two unaligned loads, with TrailingZeros64 locating the first differing
// byte. The caller guarantees b+maxLen <= len(src), so the word loop
// needs no extra bounds checks.
func matchLen(src []byte, a, b, maxLen int) int {
	l := 0
	for l+8 <= maxLen {
		x := load64(src, a+l) ^ load64(src, b+l)
		if x != 0 {
			return l + mathbits.TrailingZeros64(x)>>3
		}
		l += 8
	}
	for l < maxLen && src[a+l] == src[b+l] {
		l++
	}
	return l
}

// Expand reconstructs the original byte stream from tokens — the inverse
// of Tokenize. It is used by tests and by the fastlz verification path.
func Expand(tokens []Token) []byte {
	var out []byte
	for _, t := range tokens {
		if t.IsLiteral() {
			out = append(out, t.Lit)
			continue
		}
		start := len(out) - int(t.Dist)
		for k := 0; k < int(t.Len); k++ {
			out = append(out, out[start+k])
		}
	}
	return out
}
