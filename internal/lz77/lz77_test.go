package lz77

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func tokenize(src []byte, level int) []Token {
	var toks []Token
	Tokenize(src, LevelParams(level), func(t Token) { toks = append(toks, t) })
	return toks
}

func TestEmptyInput(t *testing.T) {
	if toks := tokenize(nil, 6); len(toks) != 0 {
		t.Fatalf("got %d tokens for empty input", len(toks))
	}
}

func TestAllLiterals(t *testing.T) {
	src := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	toks := tokenize(src, 6)
	for _, tok := range toks {
		if !tok.IsLiteral() {
			t.Fatalf("unexpected match token %+v on incompressible input", tok)
		}
	}
	if got := Expand(toks); !bytes.Equal(got, src) {
		t.Fatalf("expand mismatch: %v", got)
	}
}

func TestFindsRepeats(t *testing.T) {
	src := []byte(strings.Repeat("abcd", 64))
	toks := tokenize(src, 6)
	hasMatch := false
	for _, tok := range toks {
		if !tok.IsLiteral() {
			hasMatch = true
			if int(tok.Dist)%4 != 0 {
				t.Errorf("match distance %d not a multiple of period 4", tok.Dist)
			}
		}
	}
	if !hasMatch {
		t.Fatal("no match tokens on highly repetitive input")
	}
	if got := Expand(toks); !bytes.Equal(got, src) {
		t.Fatal("expand mismatch")
	}
}

func TestOverlappingMatch(t *testing.T) {
	// "aaaa..." forces dist=1 matches overlapping themselves (RLE-style).
	src := bytes.Repeat([]byte{'a'}, 300)
	toks := tokenize(src, 6)
	if got := Expand(toks); !bytes.Equal(got, src) {
		t.Fatal("expand mismatch on RLE input")
	}
	found := false
	for _, tok := range toks {
		if !tok.IsLiteral() && tok.Dist == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("expected a dist=1 overlapping match")
	}
}

func TestTokenBoundsRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := make([]byte, 200000)
	// Compressible: bytes drawn from a small alphabet with repeats.
	for i := range src {
		src[i] = byte(rng.Intn(8))
	}
	for _, level := range []int{1, 6, 9} {
		for _, tok := range tokenize(src, level) {
			if tok.IsLiteral() {
				continue
			}
			if int(tok.Len) < MinMatch || int(tok.Len) > MaxMatch {
				t.Fatalf("level %d: match length %d out of bounds", level, tok.Len)
			}
			if int(tok.Dist) < 1 || int(tok.Dist) > WindowSize {
				t.Fatalf("level %d: match distance %d out of bounds", level, tok.Dist)
			}
		}
	}
}

func TestWindowLimit(t *testing.T) {
	// A repeat separated by more than WindowSize must not produce a match
	// back to the first occurrence.
	pattern := []byte("the quick brown fox jumps over the lazy dog 0123456789")
	var src []byte
	src = append(src, pattern...)
	filler := make([]byte, WindowSize+1024)
	rng := rand.New(rand.NewSource(1))
	rng.Read(filler)
	src = append(src, filler...)
	src = append(src, pattern...)
	toks := tokenize(src, 9)
	if got := Expand(toks); !bytes.Equal(got, src) {
		t.Fatal("expand mismatch")
	}
}

func TestRoundTripLevels(t *testing.T) {
	inputs := [][]byte{
		[]byte("hello hello hello hello"),
		bytes.Repeat([]byte("xyz"), 1000),
		[]byte(strings.Repeat("<tag attr=\"value\">text</tag>\n", 500)),
		make([]byte, 4096), // zeros
	}
	rng := rand.New(rand.NewSource(2))
	randBuf := make([]byte, 65536)
	rng.Read(randBuf)
	inputs = append(inputs, randBuf)
	for _, level := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9} {
		for i, src := range inputs {
			toks := tokenize(src, level)
			if got := Expand(toks); !bytes.Equal(got, src) {
				t.Fatalf("level %d input %d: round trip failed", level, i)
			}
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, size uint16, alphabet uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := int(alphabet)%32 + 1
		src := make([]byte, int(size)%20000)
		for i := range src {
			src[i] = byte(rng.Intn(a))
		}
		toks := tokenize(src, 6)
		return bytes.Equal(Expand(toks), src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHigherLevelNotWorse(t *testing.T) {
	// Higher effort should find at least as much redundancy (fewer or
	// equal tokens) on structured text.
	src := []byte(strings.Repeat("func main() { fmt.Println(\"hello world\") }\n", 2000))
	n1 := len(tokenize(src, 1))
	n9 := len(tokenize(src, 9))
	if n9 > n1 {
		t.Fatalf("level 9 produced more tokens (%d) than level 1 (%d)", n9, n1)
	}
}

func TestLevelParamsClamped(t *testing.T) {
	if LevelParams(0) != LevelParams(1) {
		t.Error("level 0 should clamp to 1")
	}
	if LevelParams(100) != LevelParams(9) {
		t.Error("level 100 should clamp to 9")
	}
}

func BenchmarkTokenizeText(b *testing.B) {
	src := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 25000))
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Tokenize(src, LevelParams(6), func(Token) {})
	}
}

// TestMatcherOffsetWrap drives the tagged-offset rule to its edge: with
// base placed so the next call just fits below math.MaxInt32 and every
// head entry and chain link at the largest stale value, that call, the
// following one (which must clear the table and restart base) and one
// after it must all produce the tokens of a fresh Matcher. Inputs
// alternate so stale entries would point at plausible matches.
func TestMatcherOffsetWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	a := []byte(strings.Repeat("offset wrap: tagged head entries ", 300))
	b := make([]byte, 6000)
	for i := range b {
		b[i] = a[rng.Intn(len(a))]
	}
	for _, level := range []int{1, 6, 9} {
		p := LevelParams(level)
		var m Matcher
		m.Tokens(b, p, nil) // size prev
		m.base = int32(math.MaxInt32 - len(a))
		for i := range m.head {
			m.head[i] = m.base - 1
		}
		for i := range m.prev {
			m.prev[i] = m.base - 1
		}
		for k, src := range [][]byte{a, b, a, b} {
			var fresh Matcher
			want := fresh.Tokens(src, p, nil)
			got := m.Tokens(src, p, nil)
			if !tokensEqual(got, want) {
				t.Fatalf("level %d call %d (base %d): tokens differ from a fresh Matcher", level, k, m.base)
			}
		}
		if m.base > int32(3*len(a)) {
			t.Fatalf("level %d: base %d did not restart after passing math.MaxInt32", level, m.base)
		}
	}
}

func tokensEqual(a, b []Token) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
