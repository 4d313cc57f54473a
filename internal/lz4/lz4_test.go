package lz4

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pedal/internal/checksum"
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
