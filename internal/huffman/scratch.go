package huffman

import (
	"fmt"
)

// Scratch holds reusable state for code construction so that repeated
// dynamic-table builds (one per DEFLATE block on the chunked hot path)
// allocate nothing at steady state. A Scratch is not safe for concurrent
// use; pool instances with sync.Pool.
type Scratch struct {
	heap []heapItem
	tree []innerNode
}

// BuildLengthsInto is BuildLengths writing into a caller-provided
// lengths slice (len(lengths) must equal len(freq)), reusing the
// scratch's heap and traversal storage.
func (s *Scratch) BuildLengthsInto(freq []uint64, maxBits int, lengths []uint8) error {
	if len(freq) == 0 || len(freq) > MaxSymbols {
		return fmt.Errorf("huffman: bad alphabet size %d", len(freq))
	}
	if len(lengths) != len(freq) {
		return fmt.Errorf("huffman: lengths size %d != alphabet %d", len(lengths), len(freq))
	}
	if maxBits < 1 || maxBits > 32 {
		return fmt.Errorf("huffman: bad length limit %d", maxBits)
	}
	for i := range lengths {
		lengths[i] = 0
	}
	nonzero := 0
	last := -1
	for sym, f := range freq {
		if f > 0 {
			nonzero++
			last = sym
		}
	}
	switch nonzero {
	case 0:
		return ErrEmptyAlphabet
	case 1:
		lengths[last] = 1
		return nil
	}
	h := s.heap[:0]
	for sym, f := range freq {
		if f > 0 {
			h = append(h, heapItem{weight: f, tag: uint32(sym + 1), node: ^int32(sym)})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	tree := s.tree[:0]
	for len(h) > 1 {
		var a, b heapItem
		a, h = popItem(h)
		b, h = popItem(h)
		d := max(a.tag, b.tag) >> 21
		tree = append(tree, innerNode{a: a.node, b: b.node})
		h = append(h, heapItem{weight: a.weight + b.weight, tag: (d + 1) << 21, node: int32(len(tree) - 1)})
		siftUp(h, len(h)-1)
	}
	s.heap = h[:0]

	// Children are created before their parents, so one pass from the
	// root (the last node) down hands every node its level before its
	// children are reached; leaves take their code length from it.
	tree[len(tree)-1].level = 0
	for k := len(tree) - 1; k >= 0; k-- {
		d := tree[k].level + 1
		for _, c := range [2]int32{tree[k].a, tree[k].b} {
			if c < 0 {
				lengths[^c] = uint8(d)
			} else {
				tree[c].level = d
			}
		}
	}
	s.tree = tree[:0]

	if maxLen(lengths) > uint8(maxBits) {
		limitLengths(lengths, maxBits)
	}
	return nil
}

// CanonicalInto assigns canonical codes into a caller-provided Code,
// reusing its Bits and Len storage. The allocation-free counterpart of
// CanonicalCode.
func CanonicalInto(lengths []uint8, c *Code) error {
	maxBits := int(maxLen(lengths))
	if maxBits == 0 {
		return ErrEmptyAlphabet
	}
	if maxBits > 32 {
		return fmt.Errorf("huffman: code length %d exceeds 32", maxBits)
	}
	var blCount [33]int
	for _, l := range lengths {
		if l > 0 {
			blCount[l]++
		}
	}
	// Validate the Kraft inequality before assigning codes.
	var kraft uint64
	for b := 1; b <= maxBits; b++ {
		kraft += uint64(blCount[b]) << uint(maxBits-b)
	}
	if kraft > 1<<uint(maxBits) {
		return fmt.Errorf("huffman: oversubscribed code lengths (kraft %d > %d)", kraft, uint64(1)<<uint(maxBits))
	}
	var nextCode [34]uint32
	var code uint32
	for b := 1; b <= maxBits; b++ {
		code = (code + uint32(blCount[b-1])) << 1
		nextCode[b] = code
	}
	c.Bits = growU32(c.Bits, len(lengths))
	c.Len = growU8(c.Len, len(lengths))
	copy(c.Len, lengths)
	for s, l := range lengths {
		if l == 0 {
			c.Bits[s] = 0
			continue
		}
		c.Bits[s] = nextCode[l]
		nextCode[l]++
	}
	return nil
}

// growU32 returns a slice of length n, reusing b's storage when it fits.
func growU32(b []uint32, n int) []uint32 {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]uint32, n)
}

func growU8(b []uint8, n int) []uint8 {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]uint8, n)
}
