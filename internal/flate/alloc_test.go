package flate

import (
	"bytes"
	"math/rand"
	"testing"

	"pedal/internal/testutil"
)

// TestAppendCompressZeroAlloc is the hot-path regression test: once the
// scratch pool and destination buffer are warm, compressing a chunk into
// a caller-provided buffer must not allocate.
func TestAppendCompressZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-detector shadow memory allocates on the hot path")
	}
	data := bytes.Repeat([]byte("<entry kind=\"7\">steady state chunk payload</entry>\n"), 1300)
	dst := make([]byte, 0, CompressBound(len(data)))
	// Warm: first call sizes the pooled scratch (matcher chain, tokens).
	out := AppendCompress(dst, data, DefaultLevel)
	got, err := Decompress(out)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("warmup round trip failed: %v", err)
	}
	if n := testing.AllocsPerRun(30, func() {
		out = AppendCompress(dst, data, DefaultLevel)
	}); n != 0 {
		t.Errorf("steady-state AppendCompress allocates %.1f per run, want 0", n)
	}
	got, err = Decompress(out)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("steady-state round trip failed: %v", err)
	}
}

// TestAppendDecompressReuse: AppendDecompress into a preallocated
// full-capacity slot must not grow the slice or allocate for the output.
func TestAppendDecompressZeroAllocOutput(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-detector shadow memory allocates on the hot path")
	}
	data := bytes.Repeat([]byte("decompress into fixed slot "), 2000)
	comp := Compress(data, DefaultLevel)
	slot := make([]byte, 0, len(data))
	out, err := AppendDecompress(slot, comp, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("round trip mismatch")
	}
	if &out[0] != &slot[:1][0] {
		t.Error("AppendDecompress abandoned the provided slot")
	}
	if n := testing.AllocsPerRun(30, func() {
		if _, err := AppendDecompress(slot, comp, len(data)); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("steady-state AppendDecompress allocates %.1f per run, want 0", n)
	}
}

// TestCompressSizedOnce: Compress writes into a pooled CompressBound
// buffer, so even incompressible input (the engine's compress job sees
// random slices) never regrows it, and the only allocation is the
// exact-size result.
func TestCompressSizedOnce(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-detector shadow memory allocates on the hot path")
	}
	src := make([]byte, 256<<10)
	rand.New(rand.NewSource(5)).Read(src)
	Compress(src, DefaultLevel) // warm the pooled scratch
	if n := testing.AllocsPerRun(10, func() { Compress(src, DefaultLevel) }); n != 1 {
		t.Errorf("Compress of incompressible input allocates %.1f per call, want 1", n)
	}
	if out := Compress(src[:4096], DefaultLevel); cap(out) != len(out) {
		t.Errorf("Compress returned len %d cap %d; want no spare capacity", len(out), cap(out))
	}
}
