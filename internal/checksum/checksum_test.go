package checksum

import (
	"hash/adler32"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"
)

// pattern is a seeded byte pattern that is easy to reproduce outside
// Go: byte i is bits 16..23 of the i+1-th state of the LCG
// x = x*1103515245 + 12345 (mod 2^32) started at x = 1.
func pattern(n int) []byte {
	p := make([]byte, n)
	x := uint32(1)
	for i := range p {
		x = x*1103515245 + 12345
		p[i] = byte(x >> 16)
	}
	return p
}

// patternVectors holds CRC-32 and Adler-32 of pattern(n), computed once
// with C zlib (python3: zlib.crc32, zlib.adler32) so that the wrappers
// are checked against a reference outside Go's hash/*. The lengths sit
// on both sides of the 16- and 64-byte steps where hash/crc32's
// vectorised kernel changes strategy.
var patternVectors = []struct {
	n            int
	crc, adler32 uint32
}{
	{0, 0x00000000, 0x00000001},
	{1, 0xA0058808, 0x00C700C7},
	{15, 0x31398A7B, 0x4CB909B3},
	{16, 0x66386830, 0x56F30A3A},
	{17, 0x83BAD7DF, 0x612E0A3B},
	{63, 0x08360A34, 0x23AD1F6A},
	{64, 0x3C04B8AB, 0x434D1FA0},
	{65, 0xD4885E2A, 0x63DB208E},
	{255, 0xF5C338AC, 0x87147D30},
	{256, 0x8144BF85, 0x04B17D8E},
	{4095, 0x27711B84, 0x7ADFF930},
	{4096, 0x4641A512, 0x742BF93D},
	{65537, 0x81A399CE, 0x074E0258},
}

// splitPoints straddle 16, 64 and the multiple of 16 at 256 bytes.
var splitPoints = []int{0, 1, 15, 16, 17, 63, 64, 65, 255, 256, 257}

func TestAdler32KnownVectors(t *testing.T) {
	cases := []struct {
		in   string
		want uint32
	}{
		{"", 0x00000001},
		{"a", 0x00620062},
		{"abc", 0x024d0127},
		{"Wikipedia", 0x11E60398},
	}
	for _, c := range cases {
		if got := Adler32Sum([]byte(c.in)); got != c.want {
			t.Errorf("Adler32(%q) = %#x, want %#x", c.in, got, c.want)
		}
	}
	for _, v := range patternVectors {
		if got := Adler32Sum(pattern(v.n)); got != v.adler32 {
			t.Errorf("Adler32(pattern(%d)) = %#x, want %#x", v.n, got, v.adler32)
		}
	}
}

func TestAdler32MatchesStdlib(t *testing.T) {
	f := func(p []byte) bool {
		return Adler32Sum(p) == adler32.Checksum(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCRC32KnownVectors(t *testing.T) {
	cases := []struct {
		in   string
		want uint32
	}{
		{"", 0x00000000},
		{"123456789", 0xCBF43926},
		{"The quick brown fox jumps over the lazy dog", 0x414FA339},
	}
	for _, c := range cases {
		if got := CRC32([]byte(c.in)); got != c.want {
			t.Errorf("CRC32(%q) = %#x, want %#x", c.in, got, c.want)
		}
	}
	for _, v := range patternVectors {
		if got := CRC32(pattern(v.n)); got != v.crc {
			t.Errorf("CRC32(pattern(%d)) = %#x, want %#x", v.n, got, v.crc)
		}
	}
}

func TestCRC32MatchesStdlib(t *testing.T) {
	f := func(p []byte) bool {
		return CRC32(p) == crc32.ChecksumIEEE(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCRC32UpdateComposes(t *testing.T) {
	data := []byte("hello, bluefield dpu world")
	split := 11
	c := CRC32Update(CRC32Update(0, data[:split]), data[split:])
	if c != CRC32(data) {
		t.Fatal("CRC32Update does not compose")
	}
	data = pattern(4096 + 257)
	whole := CRC32(data)
	for _, head := range splitPoints {
		// Split at head bytes from the front and from a 4096-byte mark,
		// so each side of the split crosses every step in turn.
		for _, split := range []int{head, 4096 + head} {
			if got := CRC32Update(CRC32Update(0, data[:split]), data[split:]); got != whole {
				t.Fatalf("CRC32Update(split=%d) = %#x, want %#x", split, got, whole)
			}
		}
	}
}

// TestCRC32Combine pins the GF(2) operator composition: combining the
// independent CRCs of two segments must equal the CRC of their
// concatenation for every split of a random payload, so the pipeline
// can digest chunks in parallel and stitch the stream CRC afterwards.
func TestCRC32Combine(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	data := make([]byte, 1000)
	rng.Read(data)
	whole := CRC32(data)
	splits := []int{}
	for split := 0; split <= len(data); split += 13 {
		splits = append(splits, split)
	}
	for _, n := range splitPoints {
		splits = append(splits, n, len(data)-n)
	}
	for _, split := range splits {
		a, b := data[:split], data[split:]
		if got := CRC32Combine(CRC32(a), CRC32(b), len(b)); got != whole {
			t.Fatalf("CRC32Combine(split=%d) = %#x, want %#x", split, got, whole)
		}
	}
	// Multi-way: fold a chunked payload left to right.
	const chunk = 96
	acc := CRC32(data[:chunk])
	for off := chunk; off < len(data); off += chunk {
		end := off + chunk
		if end > len(data) {
			end = len(data)
		}
		acc = CRC32Combine(acc, CRC32(data[off:end]), end-off)
	}
	if acc != whole {
		t.Fatalf("chunked CRC32Combine fold = %#x, want %#x", acc, whole)
	}
	if got := CRC32Combine(0xDEADBEEF, 0, 0); got != 0xDEADBEEF {
		t.Fatalf("CRC32Combine with empty tail = %#x, want identity", got)
	}
}

func TestXXH32KnownVectors(t *testing.T) {
	// Reference values from the canonical xxHash implementation.
	cases := []struct {
		in   string
		seed uint32
		want uint32
	}{
		{"", 0, 0x02CC5D05},
		{"", 1, 0x0B2CB792},
		{"a", 0, 0x550D7456},
		{"abc", 0, 0x32D153FF},
		{"Nobody inspects the spammish repetition", 0, 0xE2293B2F},
	}
	for _, c := range cases {
		if got := XXH32([]byte(c.in), c.seed); got != c.want {
			t.Errorf("XXH32(%q, %d) = %#x, want %#x", c.in, c.seed, got, c.want)
		}
	}
}

func TestXXH32LongInputStable(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	data := make([]byte, 1<<16)
	rng.Read(data)
	h1 := XXH32(data, 0)
	h2 := XXH32(data, 0)
	if h1 != h2 {
		t.Fatal("XXH32 not deterministic")
	}
	data[0] ^= 1
	if XXH32(data, 0) == h1 {
		t.Fatal("XXH32 did not change after input flip")
	}
}

func BenchmarkAdler32(b *testing.B) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		Adler32Sum(data)
	}
}

func BenchmarkCRC32(b *testing.B) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		CRC32(data)
	}
}

func BenchmarkXXH32(b *testing.B) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		XXH32(data, 0)
	}
}
