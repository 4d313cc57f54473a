package flate

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

	"pedal/internal/datasets"
	"pedal/internal/lz4"
	"pedal/internal/testutil"
)

var update = flag.Bool("update", false, "rewrite testdata/codecs.txt from this run")

// TestCodecOutputGolden pins the exact output bytes of the lossless
// kernels: one line per (codec, corpus, size, offset) holds the SHA-256
// and length of flate.AppendCompress at levels 1, 6 and 9 and of
// lz4.AppendCompress, compared byte for byte with testdata/codecs.txt.
// Every case runs through the same pooled scratch and the same dst, in
// an order that alternates sizes, so per-call state carried from one
// call to the next (table tags, reused buffers) is exercised the way a
// long-lived process exercises it. `go test ./internal/flate -run
// CodecOutputGolden -update` re-pins after an intended change.
func TestCodecOutputGolden(t *testing.T) {
	if testutil.RaceEnabled {
		// One goroutine: the detector has nothing to find, and
		// instrumented level-9 compression of the 1 MiB cases takes
		// over a minute.
		t.Skip("single-goroutine byte-identity check; runs without -race")
	}
	type corpus struct {
		name string
		data []byte
	}
	var corpora []corpus
	for _, d := range datasets.Lossless() {
		corpora = append(corpora, corpus{d.Name, d.Bytes()})
	}
	rnd := make([]byte, 2<<20)
	rand.New(rand.NewSource(32)).Read(rnd)
	corpora = append(corpora, corpus{"random", rnd})

	sizes := []int{1, 13, 100, 4 << 10, 64 << 10, 1 << 20}
	dst := make([]byte, 0, CompressBound(1<<20)+lz4.CompressBound(1<<20))
	var lines []string
	for _, c := range corpora {
		for _, off := range []int{0, 777, -1} {
			for _, n := range sizes {
				at := off
				if at < 0 {
					at = len(c.data) - n // the corpus tail
				}
				src := c.data[at : at+n]
				for _, level := range []int{1, 6, 9} {
					dst = AppendCompress(dst[:0], src, level)
					lines = append(lines, goldenLine(fmt.Sprintf("flate-%d", level), c.name, n, at, dst))
				}
				dst = lz4.AppendCompress(dst[:0], src)
				lines = append(lines, goldenLine("lz4", c.name, n, at, dst))
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"

	path := filepath.Join("testdata", "codecs.txt")
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
	if got == string(want) {
		return
	}
	wl := strings.Split(string(want), "\n")
	for i, l := range strings.Split(got, "\n") {
		if i >= len(wl) || l != wl[i] {
			w := "<missing>"
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("codec output changed at line %d:\n got %s\nwant %s", i+1, l, w)
		}
	}
	t.Fatalf("codec golden has %d lines, this run %d", len(wl), len(lines)+1)
}

func goldenLine(codec, corpus string, n, off int, out []byte) string {
	sum := sha256.Sum256(out)
	return fmt.Sprintf("%s %s n=%d off=%d len=%d sha256=%s", codec, corpus, n, off, len(out), hex.EncodeToString(sum[:]))
}
