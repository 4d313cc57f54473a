package flate

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"pedal/internal/lz4"
)

// TestConcurrentOutputIdentity: the pooled per-call state (match-finder
// tables, Huffman scratch, the LZ4 hash table) is shared across
// goroutines through sync.Pool, so a table handed from one caller to the
// next must carry nothing that changes the next caller's bytes. Eight
// goroutines compress different inputs, each many times, and every
// output must equal the one a serial call produced. Run under -race it
// also checks that no two callers ever hold the same pooled state.
func TestConcurrentOutputIdentity(t *testing.T) {
	const workers = 8
	rng := rand.New(rand.NewSource(8))
	inputs := make([][]byte, workers)
	for w := range inputs {
		// Mixed alphabets and sizes, so consecutive users of one pooled
		// table see very different inputs.
		n := 1<<10 + rng.Intn(48<<10)
		alpha := 2 + rng.Intn(254)
		in := make([]byte, n)
		for i := range in {
			in[i] = byte(rng.Intn(alpha))
		}
		if w%2 == 0 {
			in = bytes.Repeat(in[:n/16+1], 16)
		}
		inputs[w] = in
	}
	type outputs struct{ flate, lz4 []byte }
	want := make([]outputs, workers)
	for w, in := range inputs {
		want[w] = outputs{Compress(in, 1+w%9), lz4.Compress(in)}
	}

	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			in := inputs[w]
			fdst := make([]byte, 0, CompressBound(len(in)))
			ldst := make([]byte, 0, lz4.CompressBound(len(in)))
			for r := 0; r < 20; r++ {
				if got := AppendCompress(fdst, in, 1+w%9); !bytes.Equal(got, want[w].flate) {
					errs <- "flate"
					return
				}
				if got := lz4.AppendCompress(ldst, in); !bytes.Equal(got, want[w].lz4) {
					errs <- "lz4"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for codec := range errs {
		t.Errorf("%s: concurrent output differs from the serial output", codec)
	}
}
