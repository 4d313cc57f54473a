package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"pedal/internal/datasets"
)

const (
	kib = 1 << 10
	mib = 1 << 20
)

// input is one buffer the program is asked to process. The program
// never sees the seed, only these bytes.
type input struct {
	Name string // "<corpus>@<offset>+<length>"
	Data []byte
}

// corpusSlices cuts n consecutive slices of size bytes out of a corpus.
// The seed shifts where the first one starts by up to a quarter of a
// slice: every byte the program sees moves and every chunk and block
// boundary falls elsewhere, but the stretches of two seeds overlap, so
// runs on different seeds differ by what the program does and not by
// what a corpus happens to hold at some other offset (single MiBs of
// silesia/samba differ by 10 % in compressibility). Only the bytes a
// slice can reach are generated (the generators are prefix-stable),
// which keeps set-up time proportional to what the workload reads.
func corpusSlices(rng *rand.Rand, d *datasets.Dataset, n, size int) []input {
	// 64-byte alignment keeps float32 corpora on element boundaries.
	const align = 64
	slack := size / 4
	if window := n*size + slack; window < d.Size {
		d.Size = window
	}
	data := d.Bytes()
	off := rng.Intn(slack/align) * align
	out := make([]input, n)
	for i := range out {
		out[i] = input{
			Name: fmt.Sprintf("%s@%d+%d", d.Name, off, size),
			Data: data[off : off+size : off+size],
		}
		off += size
	}
	return out
}

// randomBlock is the incompressible input.
func randomBlock(rng *rand.Rand, size int) input {
	buf := make([]byte, size)
	rng.Read(buf)
	return input{Name: fmt.Sprintf("random+%d", size), Data: buf}
}

// mixedCorpora is the lib-mixed-1m / svc-conc-1m input set: one slice of
// each lossless Table IV corpus plus one random block.
func mixedCorpora(rng *rand.Rand, size int) []input {
	var in []input
	for _, d := range datasets.Lossless() {
		in = append(in, corpusSlices(rng, d, 1, size)...)
	}
	return append(in, randomBlock(rng, size))
}

// inputDigest identifies the generated inputs: same seed, same digest.
func inputDigest(in []input) string {
	h := sha256.New()
	for _, x := range in {
		h.Write([]byte(x.Name))
		h.Write(x.Data)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// scaled shrinks a size for smoke mode, keeping float alignment.
func scaled(size, scale int) int {
	s := size / scale
	if s < 4*kib {
		s = 4 * kib
	}
	return s &^ 63
}
