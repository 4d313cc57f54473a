// Package huffman implements canonical, length-limited Huffman coding as
// used by DEFLATE (RFC 1951 §3.2.2) and by the SZ3 entropy stage.
//
// Code construction follows the classical two-step approach: build optimal
// code lengths from symbol frequencies with a heap-based Huffman algorithm,
// then, if the longest code exceeds the limit, rebalance lengths with the
// Kraft-sum repair used by zlib. Codes are assigned canonically so that a
// (length histogram, ordered symbols) pair fully determines the code table,
// which is exactly the property DEFLATE's dynamic block headers rely on.
package huffman

import (
	"errors"
)

// MaxSymbols is a sanity cap on alphabet size (SZ3 quantizer bins can be
// large but bounded).
const MaxSymbols = 1 << 20

// ErrEmptyAlphabet is returned when no symbol has a nonzero frequency.
var ErrEmptyAlphabet = errors.New("huffman: empty alphabet")

// heapItem is one entry of the merge heap: the node's weight, a
// tie-breaking tag and the tree node it stands for. Items order by
// (weight, depth, symbol+1), where depth is the node's height and
// internal nodes carry symbol+1 = 0: the lowest weight first, ties to the
// flatter subtree, then to the lower symbol. Equal internal nodes tie and
// are left where the heap has them. tag is depth<<21 | symbol+1:
// symbol+1 ≤ MaxSymbols fits 21 bits, and a Huffman tree over weights
// summing below 2^64 is under 100 levels deep.
type heapItem struct {
	weight uint64
	tag    uint32
	node   int32 // ≥ 0: internal node index; < 0: leaf ^symbol
}

func (a heapItem) less(b heapItem) bool {
	return a.weight < b.weight || a.weight == b.weight && a.tag < b.tag
}

// innerNode is an internal node of the Huffman tree: its two children
// (node references as in heapItem) and, once the tree is complete, its
// distance from the root.
type innerNode struct {
	a, b  int32
	level int32
}

// The heap operations are hand-rolled rather than delegated to
// container/heap: its any-typed Push/Pop box every item, which would
// put an allocation inside the per-block hot path. Sifting carries the
// moving item in a hole instead of swapping, but makes a swap-based
// sift's comparisons in the same order: that order decides which of two
// equal items surfaces first (TestBuildLengthsTiesGolden).

func siftUp(h []heapItem, j int) {
	x := h[j]
	for j > 0 {
		p := (j - 1) / 2
		if !x.less(h[p]) {
			break
		}
		h[j] = h[p]
		j = p
	}
	h[j] = x
}

func siftDown(h []heapItem, i int) {
	n := len(h)
	x := h[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && h[r].less(h[l]) {
			least = r
		}
		if !h[least].less(x) {
			break
		}
		h[i] = h[least]
		i = least
	}
	h[i] = x
}

func popItem(h []heapItem) (heapItem, []heapItem) {
	x := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	if last > 0 {
		siftDown(h, 0)
	}
	return x, h
}

// BuildLengths computes code lengths for the given symbol frequencies,
// limited to maxBits. Symbols with zero frequency get length 0 (no code).
// If only one symbol has nonzero frequency it is assigned length 1, as
// DEFLATE requires at least one bit per coded symbol.
func BuildLengths(freq []uint64, maxBits int) ([]uint8, error) {
	lengths := make([]uint8, len(freq))
	var s Scratch
	if err := s.BuildLengthsInto(freq, maxBits, lengths); err != nil {
		return nil, err
	}
	return lengths, nil
}

func maxLen(lengths []uint8) uint8 {
	var m uint8
	for _, l := range lengths {
		if l > m {
			m = l
		}
	}
	return m
}

// limitLengths rebalances code lengths so none exceeds maxBits while the
// Kraft inequality sum(2^-len) ≤ 1 still holds, preserving optimality as
// closely as possible (zlib's bl_count repair strategy).
func limitLengths(lengths []uint8, maxBits int) {
	// Clamp overlong codes and track the Kraft sum in units of 2^-maxBits.
	var kraft uint64
	unit := uint64(1) << uint(maxBits)
	for i, l := range lengths {
		if l == 0 {
			continue
		}
		if int(l) > maxBits {
			lengths[i] = uint8(maxBits)
			l = uint8(maxBits)
		}
		kraft += unit >> uint(l)
	}
	// While oversubscribed, demote (lengthen) the shortest over-candidates:
	// take a symbol at the deepest level < maxBits... Standard repair:
	// find a code with length < maxBits, increment it (halves its Kraft
	// contribution appropriately). We iterate from maxBits-1 downward.
	for kraft > unit {
		// Find a symbol with the largest length strictly below maxBits to
		// lengthen (costs the least in expected bits).
		best := -1
		var bestLen uint8
		for i, l := range lengths {
			if l > 0 && int(l) < maxBits && l > bestLen {
				best, bestLen = i, l
			}
		}
		if best == -1 {
			panic("huffman: cannot satisfy length limit")
		}
		kraft -= unit >> uint(bestLen)
		lengths[best]++
		kraft += unit >> uint(lengths[best])
	}
	// If undersubscribed we could shorten codes, but a valid (possibly
	// slightly suboptimal) canonical code only requires Kraft ≤ 1.
}

// Code is a canonical Huffman code table for encoding.
type Code struct {
	// Bits[s] is the code for symbol s, MSB-first within Len[s] bits.
	Bits []uint32
	// Len[s] is the code length for symbol s; 0 means the symbol is unused.
	Len []uint8
}

// CanonicalCode assigns canonical codes (numerically increasing within a
// length, shorter lengths first; RFC 1951 §3.2.2) for the given lengths.
func CanonicalCode(lengths []uint8) (*Code, error) {
	c := &Code{}
	if err := CanonicalInto(lengths, c); err != nil {
		return nil, err
	}
	return c, nil
}

// Build is a convenience that computes lengths and canonical codes in one
// step.
func Build(freq []uint64, maxBits int) (*Code, error) {
	lengths, err := BuildLengths(freq, maxBits)
	if err != nil {
		return nil, err
	}
	return CanonicalCode(lengths)
}
