package huffman

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/ties.txt from this run")

// TestBuildLengthsTiesGolden pins BuildLengths on tie-heavy inputs, where
// equal weights leave the merge order to the heap's tie-breaking rules:
// one line per (vector kind, alphabet, length limit) holds the SHA-256 of
// the lengths over several seeded vectors, compared byte for byte with
// testdata/ties.txt. A change to the heap that resolves one tie
// differently moves a line. `go test ./internal/huffman -run
// BuildLengthsTiesGolden -update` re-pins after an intended change.
func TestBuildLengthsTiesGolden(t *testing.T) {
	kinds := []struct {
		name string
		gen  func(rng *rand.Rand) uint64
	}{
		{"equal", func(*rand.Rand) uint64 { return 5 }},
		{"zero-one-two", func(rng *rand.Rand) uint64 { return uint64(rng.Intn(3)) }},
		// 2^24..2^32: every total passes 2^32, and the spread of 2^8
		// pushes the small alphabets past limit 7.
		{"powers-of-two", func(rng *rand.Rand) uint64 { return 1 << (24 + rng.Intn(9)) }},
		{"sparse", func(rng *rand.Rand) uint64 {
			if rng.Intn(16) != 0 {
				return 0
			}
			return uint64(1 + rng.Intn(3))
		}},
	}
	var lines []string
	var s Scratch
	for _, k := range kinds {
		for _, alpha := range []int{19, 30, 286, 1024, 65536} {
			for _, limit := range []int{7, 15, 20} {
				if 1<<limit < alpha {
					continue // no complete code of this limit covers the alphabet
				}
				seeds := 8
				if alpha > 1024 {
					seeds = 2
				}
				h := sha256.New()
				freq := make([]uint64, alpha)
				lengths := make([]uint8, alpha)
				for seed := 1; seed <= seeds; seed++ {
					rng := rand.New(rand.NewSource(int64(seed)))
					for i := range freq {
						freq[i] = k.gen(rng)
					}
					err := s.BuildLengthsInto(freq, limit, lengths)
					fmt.Fprintf(h, "%v;", err)
					h.Write(lengths)
				}
				lines = append(lines, fmt.Sprintf("%s alphabet=%d limit=%d seeds=%d sha256=%s",
					k.name, alpha, limit, seeds, hex.EncodeToString(h.Sum(nil))))
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"

	path := filepath.Join("testdata", "ties.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("BuildLengths tie resolution changed:\n got:\n%s\nwant:\n%s", got, want)
	}
}
