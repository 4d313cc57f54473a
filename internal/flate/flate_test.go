package flate

import (
	"bytes"
	stdflate "compress/flate"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

var testInputs = map[string][]byte{
	"empty":      {},
	"single":     {42},
	"zeros":      make([]byte, 100000),
	"short-text": []byte("hello, hello, hello world"),
	"alphabet":   []byte("abcdefghijklmnopqrstuvwxyz"),
	"repetitive": bytes.Repeat([]byte("abcdefgh"), 20000),
	"xml-ish":    []byte(strings.Repeat("<item id=\"3\"><name>widget</name><price>9.99</price></item>\n", 3000)),
	"binary-ish": nil, // filled in init
	"random-64k": nil,
	"mixed":      nil,
	"all-bytes":  nil,
	"two-phase":  nil,
}

func init() {
	rng := rand.New(rand.NewSource(1234))
	bin := make([]byte, 80000)
	for i := range bin {
		if i%16 < 10 {
			bin[i] = byte(i % 251)
		} else {
			bin[i] = byte(rng.Intn(256))
		}
	}
	testInputs["binary-ish"] = bin

	rnd := make([]byte, 65536)
	rng.Read(rnd)
	testInputs["random-64k"] = rnd

	mixed := append(append([]byte{}, bytes.Repeat([]byte("lorem ipsum "), 4000)...), rnd[:20000]...)
	testInputs["mixed"] = mixed

	all := make([]byte, 256*40)
	for i := range all {
		all[i] = byte(i)
	}
	testInputs["all-bytes"] = all

	// Compressible prefix then incompressible suffix spanning blocks.
	tp := append(bytes.Repeat([]byte{7}, 150000), rnd...)
	testInputs["two-phase"] = tp
}

func TestRoundTrip(t *testing.T) {
	for name, src := range testInputs {
		for _, level := range []int{1, 6, 9} {
			comp := Compress(src, level)
			got, err := Decompress(comp)
			if err != nil {
				t.Fatalf("%s level %d: decompress: %v", name, level, err)
			}
			if !bytes.Equal(got, src) {
				t.Fatalf("%s level %d: round trip mismatch (%d vs %d bytes)", name, level, len(got), len(src))
			}
		}
	}
}

// Our compressed output must be decodable by Go's standard inflate.
func TestStdlibDecodesOurOutput(t *testing.T) {
	for name, src := range testInputs {
		for _, level := range []int{1, 6, 9} {
			comp := Compress(src, level)
			r := stdflate.NewReader(bytes.NewReader(comp))
			got, err := io.ReadAll(r)
			if err != nil {
				t.Fatalf("%s level %d: stdlib inflate: %v", name, level, err)
			}
			if !bytes.Equal(got, src) {
				t.Fatalf("%s level %d: stdlib decoded wrong bytes", name, level)
			}
		}
	}
}

// We must decode what the standard deflate produces.
func TestWeDecodeStdlibOutput(t *testing.T) {
	for name, src := range testInputs {
		for _, level := range []int{1, 5, 9, stdflate.HuffmanOnly} {
			var buf bytes.Buffer
			w, err := stdflate.NewWriter(&buf, level)
			if err != nil {
				t.Fatal(err)
			}
			w.Write(src)
			w.Close()
			got, err := Decompress(buf.Bytes())
			if err != nil {
				t.Fatalf("%s stdlib level %d: our inflate: %v", name, level, err)
			}
			if !bytes.Equal(got, src) {
				t.Fatalf("%s stdlib level %d: wrong bytes", name, level)
			}
		}
	}
}

func TestCompressionActuallyCompresses(t *testing.T) {
	src := testInputs["xml-ish"]
	comp := Compress(src, 6)
	if len(comp) > len(src)/4 {
		t.Fatalf("xml-ish compressed to %d of %d bytes; expected < 25%%", len(comp), len(src))
	}
}

func TestRandomDataNearStored(t *testing.T) {
	src := testInputs["random-64k"]
	comp := Compress(src, 6)
	// Random data must fall back to stored blocks: tiny overhead only.
	if len(comp) > len(src)+len(src)/100+64 {
		t.Fatalf("random data expanded too much: %d vs %d", len(comp), len(src))
	}
}

func TestHigherLevelsSmallerOrEqual(t *testing.T) {
	src := testInputs["xml-ish"]
	l1 := len(Compress(src, 1))
	l9 := len(Compress(src, 9))
	if l9 > l1 {
		t.Fatalf("level 9 (%d bytes) larger than level 1 (%d bytes)", l9, l1)
	}
}

func TestCorruptStreams(t *testing.T) {
	comp := Compress([]byte("some reasonable test data, compressed"), 6)
	// Truncations must error, not panic or return wrong data silently.
	for cut := 1; cut < len(comp); cut++ {
		if _, err := Decompress(comp[:cut]); err == nil {
			// Some truncations can coincidentally decode if the final
			// block's EOB landed before the cut; verify content instead.
			got, _ := Decompress(comp[:cut])
			if bytes.Equal(got, []byte("some reasonable test data, compressed")) {
				continue
			}
			t.Fatalf("truncation at %d decoded without error to wrong data", cut)
		}
	}
	if _, err := Decompress(nil); err == nil {
		t.Fatal("empty input decoded without error")
	}
	if _, err := Decompress([]byte{0x07}); err == nil { // BTYPE=11
		t.Fatal("reserved block type accepted")
	}
}

func TestBitFlipsDetectedOrRoundTripFails(t *testing.T) {
	src := []byte(strings.Repeat("payload ", 512))
	comp := Compress(src, 6)
	rng := rand.New(rand.NewSource(77))
	flips := 0
	for trial := 0; trial < 200; trial++ {
		c := append([]byte{}, comp...)
		c[rng.Intn(len(c))] ^= 1 << uint(rng.Intn(8))
		got, err := Decompress(c)
		if err == nil && bytes.Equal(got, src) {
			continue // flip in padding bits, harmless
		}
		flips++
	}
	if flips == 0 {
		t.Fatal("no bit flip had any effect; decoder suspect")
	}
}

func TestDecompressionBombLimit(t *testing.T) {
	src := make([]byte, 10<<20) // 10 MB of zeros compresses tiny
	comp := Compress(src, 6)
	if _, err := DecompressLimit(comp, 1<<20); err != ErrTooLarge {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}

func TestStoredBlockExactBoundary(t *testing.T) {
	// Exactly maxStoredBlock and one more byte of random data.
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{maxStoredBlock - 1, maxStoredBlock, maxStoredBlock + 1} {
		src := make([]byte, n)
		rng.Read(src)
		comp := Compress(src, 1)
		got, err := Decompress(comp)
		if err != nil || !bytes.Equal(got, src) {
			t.Fatalf("n=%d: round trip failed: %v", n, err)
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, size uint16, alpha uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := int(alpha)%64 + 1
		src := make([]byte, int(size))
		for i := range src {
			src[i] = byte(rng.Intn(a))
		}
		comp := Compress(src, 6)
		got, err := Decompress(comp)
		return err == nil && bytes.Equal(got, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStdlibInterop(t *testing.T) {
	f := func(seed int64, size uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		src := make([]byte, int(size))
		for i := range src {
			src[i] = byte(rng.Intn(20))
		}
		comp := Compress(src, 6)
		r := stdflate.NewReader(bytes.NewReader(comp))
		got, err := io.ReadAll(r)
		return err == nil && bytes.Equal(got, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCompressLevel6(b *testing.B) {
	src := testInputs["xml-ish"]
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		Compress(src, 6)
	}
}

func BenchmarkDecompress(b *testing.B) {
	src := testInputs["xml-ish"]
	comp := Compress(src, 6)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(comp); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDistCodeOfTable checks the one-lookup distance coder against the
// RFC 1951 base table for every distance in the window.
func TestDistCodeOfTable(t *testing.T) {
	code := 0
	for d := 1; d <= 32768; d++ {
		for code < 29 && d >= distBase[code+1] {
			code++
		}
		if got := distCodeOf(d); got != code {
			t.Fatalf("distCodeOf(%d) = %d, want %d", d, got, code)
		}
	}
}
