package lz4

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pedal/internal/checksum"
	"pedal/internal/testutil"
)

func blockInputs() map[string][]byte {
	rng := rand.New(rand.NewSource(21))
	rnd := make([]byte, 70000)
	rng.Read(rnd)
	return map[string][]byte{
		"empty":      {},
		"one":        {9},
		"tiny":       []byte("abc"),
		"twelve":     []byte("123456789012"),
		"thirteen":   []byte("1234567890123"),
		"zeros":      make([]byte, 100000),
		"repeats":    bytes.Repeat([]byte("lz4 block "), 5000),
		"text":       []byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 800)),
		"random":     rnd,
		"long-lits":  append(append([]byte{}, rnd[:400]...), bytes.Repeat([]byte("zq"), 600)...),
		"rle-suffix": append(append([]byte{}, rnd[:1000]...), bytes.Repeat([]byte{0}, 5000)...),
	}
}

func TestBlockRoundTrip(t *testing.T) {
	for name, src := range blockInputs() {
		comp := CompressBlock(src)
		if len(comp) > CompressBlockBound(len(src)) {
			t.Fatalf("%s: compressed %d exceeds bound %d", name, len(comp), CompressBlockBound(len(src)))
		}
		got, err := DecompressBlock(comp, len(src)+16)
		if err != nil {
			t.Fatalf("%s: decompress: %v", name, err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("%s: round trip mismatch (%d vs %d bytes)", name, len(got), len(src))
		}
	}
}

func TestBlockCompressesRepetitive(t *testing.T) {
	src := bytes.Repeat([]byte("abcdefgh"), 10000)
	comp := CompressBlock(src)
	if len(comp) > len(src)/10 {
		t.Fatalf("repetitive input compressed to %d of %d; want < 10%%", len(comp), len(src))
	}
}

func TestBlockSpecLastFiveLiterals(t *testing.T) {
	// The spec requires the last 5 bytes to be literals and no match
	// within the last 12 bytes. Verify via exact round trips near those
	// boundaries with highly matchable data.
	for n := 1; n < 64; n++ {
		src := bytes.Repeat([]byte{0xAA}, n)
		got, err := DecompressBlock(CompressBlock(src), n+8)
		if err != nil || !bytes.Equal(got, src) {
			t.Fatalf("n=%d: round trip failed: %v", n, err)
		}
	}
}

func TestDecompressBlockCorrupt(t *testing.T) {
	// Offset beyond output.
	bad := []byte{0x10, 'x', 0xFF, 0xFF, 0x00}
	if _, err := DecompressBlock(bad, 1000); err == nil {
		t.Fatal("offset beyond output accepted")
	}
	// Zero offset.
	bad = []byte{0x10, 'x', 0x00, 0x00, 0x00}
	if _, err := DecompressBlock(bad, 1000); err == nil {
		t.Fatal("zero offset accepted")
	}
	// Truncated literal run.
	bad = []byte{0xF0, 0xFF}
	if _, err := DecompressBlock(bad, 1000); err == nil {
		t.Fatal("truncated literal length accepted")
	}
}

func TestDecompressBlockLimit(t *testing.T) {
	src := make([]byte, 100000)
	comp := CompressBlock(src)
	if _, err := DecompressBlock(comp, 1000); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for name, src := range blockInputs() {
		f := Compress(src)
		got, err := Decompress(f)
		if err != nil {
			t.Fatalf("%s: frame decompress: %v", name, err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("%s: frame round trip mismatch", name)
		}
		// Appending behind a prefix yields the same frame: nothing in it
		// (the descriptor checksum least of all) may depend on where in
		// dst it starts.
		if g := AppendCompress([]byte("hdr"), src); !bytes.Equal(g[3:], f) {
			t.Fatalf("%s: frame appended behind a prefix differs", name)
		}
	}
}

func TestFrameMultiBlock(t *testing.T) {
	// Exceed the 4 MB block size to force multiple blocks.
	src := bytes.Repeat([]byte("0123456789abcdef"), (5<<20)/16)
	f := Compress(src)
	got, err := Decompress(f)
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("multi-block frame failed: %v", err)
	}
}

func TestFrameMagicRejected(t *testing.T) {
	if _, err := Decompress([]byte{1, 2, 3, 4, 5, 6, 7, 8}); !errors.Is(err, ErrFrameMagic) {
		t.Fatalf("want ErrFrameMagic, got %v", err)
	}
}

func TestFrameChecksumDetectsCorruption(t *testing.T) {
	src := []byte(strings.Repeat("checksummed ", 1000))
	f := Compress(src)
	// Flip a bit inside the block payload (skip 15-byte header region).
	f[20] ^= 0x01
	if _, err := Decompress(f); err == nil {
		t.Fatal("corrupted frame accepted")
	}
}

func TestFrameDescriptorChecksum(t *testing.T) {
	src := []byte("hc guard")
	f := Compress(src)
	f[4] ^= 0x04 // flip a FLG bit → HC mismatch
	if _, err := Decompress(f); err == nil {
		t.Fatal("descriptor corruption accepted")
	}
}

func TestFrameContentSizeMismatch(t *testing.T) {
	src := []byte(strings.Repeat("size matters ", 100))
	f := Compress(src)
	// Corrupt the declared content size and fix up the descriptor HC so
	// only the final size check can catch it.
	f[6] ^= 0xFF
	// Recompute HC (descriptor spans bytes 4..13, HC at 14).
	hcPos := 14
	f[hcPos] = byte(xxhOf(f[4:hcPos]) >> 8)
	if _, err := Decompress(f); err == nil {
		t.Fatal("content size mismatch accepted")
	}
}

func xxhOf(p []byte) uint32 {
	// Local indirection to keep the test readable.
	return checksum.XXH32(p, 0)
}

func TestQuickBlockRoundTrip(t *testing.T) {
	f := func(seed int64, size uint16, alpha uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := int(alpha)%48 + 1
		src := make([]byte, int(size))
		for i := range src {
			src[i] = byte(rng.Intn(a))
		}
		got, err := DecompressBlock(CompressBlock(src), len(src)+16)
		return err == nil && bytes.Equal(got, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(seed int64, size uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		src := make([]byte, int(size))
		for i := range src {
			src[i] = byte(rng.Intn(30))
		}
		got, err := Decompress(Compress(src))
		return err == nil && bytes.Equal(got, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCompressBlock(b *testing.B) {
	src := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 20000))
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		CompressBlock(src)
	}
}

func BenchmarkDecompressBlock(b *testing.B) {
	src := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 20000))
	comp := CompressBlock(src)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecompressBlock(comp, len(src)+16); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAppendCompressZeroAlloc holds AppendCompress to its documented
// contract: with CompressBound capacity in dst, a steady-state call
// makes no heap allocation, whatever the size of the hash table.
func TestAppendCompressZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-detector shadow memory allocates on the hot path")
	}
	src := []byte(strings.Repeat("<rec id=\"42\">four kilobyte request</rec>\n", 100))[:4096]
	dst := make([]byte, 0, CompressBound(len(src)))
	want := AppendCompress(dst, src)
	if n := testing.AllocsPerRun(50, func() {
		AppendCompress(dst, src)
	}); n != 0 {
		t.Errorf("steady-state AppendCompress allocates %.1f per run, want 0", n)
	}
	got, err := Decompress(want)
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("round trip failed: %v", err)
	}
}

// TestFrameBlocksIndependent: blocks of a frame are independent (the
// frame header declares no block linking), so a match in the second
// block that reaches back into the first block's bytes is corrupt, not
// a reference into shared history.
func TestFrameBlocksIndependent(t *testing.T) {
	first := map[string][]byte{
		// A stored block of 8 bytes.
		"stored": append(le32(8|uncompressedBit), "abcdefgh"...),
		// A compressed literals-only block of the same 8 bytes.
		"compressed": append(le32(9), append([]byte{0x80}, "abcdefgh"...)...),
	}
	// No literals, then a 4-byte match at offset 4: valid only if the
	// first block's output were visible.
	second := append(le32(3), 0x00, 0x04, 0x00)
	for name, blk := range first {
		f := le32(frameMagic)
		f = append(f, flgVersion, bdBlockMax4MB)
		f = append(f, byte(xxhOf(f[4:6])>>8))
		f = append(f, blk...)
		f = append(f, second...)
		f = append(f, le32(0)...)
		if _, err := Decompress(f); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s first block: second block reached into it: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func le32(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }

// TestHashTableOffsetWrap drives the tagged-offset rule to its edge: with
// base placed so the next call just fits below math.MaxInt32 and every
// entry at the largest stale value, that call, the following one (which
// must clear the table and restart base) and one after it must all
// produce the bytes of a fresh table.
func TestHashTableOffsetWrap(t *testing.T) {
	in := blockInputs()
	for _, name := range []string{"text", "repeats", "random", "rle-suffix"} {
		src := in[name]
		other := in["long-lits"]
		want := new(hashTable).compress(nil, src)
		wantOther := new(hashTable).compress(nil, other)
		tb := &hashTable{base: uint32(math.MaxInt32 - len(src))}
		for i := range tb.table {
			tb.table[i] = tb.base - 1
		}
		for k := 0; k < 3; k++ {
			if got := tb.compress(nil, src); !bytes.Equal(got, want) {
				t.Fatalf("%s call %d (base %d): output differs from a fresh table", name, k, tb.base)
			}
			if got := tb.compress(nil, other); !bytes.Equal(got, wantOther) {
				t.Fatalf("%s call %d (base %d): second input differs from a fresh table", name, k, tb.base)
			}
		}
		if tb.base > uint32(3*(len(src)+len(other))) {
			t.Fatalf("%s: base %d did not restart after passing math.MaxInt32", name, tb.base)
		}
	}
}
