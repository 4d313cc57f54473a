package sz3

import (
	"errors"
	"math"
	"testing"
)

// FuzzDecompressContainer must never panic on arbitrary container bytes.
func FuzzDecompressContainer(f *testing.F) {
	seed, _ := CompressFloat64([]float64{1, 2, 3, 4, 5}, Config{ErrorBound: 1e-4})
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{'S', 'Z', '3', 'G', 1, 1})
	f.Add([]byte{'S', 'Z', '3', 'G', 1, 4, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		vals, dt, _, err := decompress(data, nil)
		if err == nil {
			if dt != Float32 && dt != Float64 {
				t.Fatalf("invalid dtype %v accepted", dt)
			}
			_ = vals
		}
	})
}

// FuzzRoundTripBound compresses arbitrary float series and requires the
// error bound to hold on every element.
func FuzzRoundTripBound(f *testing.F) {
	f.Add(int64(1), uint16(100))
	f.Add(int64(42), uint16(3000))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		count := int(n)%4000 + 1
		vals := make([]float64, count)
		s := seed
		for i := range vals {
			// Cheap deterministic pseudo-noise without math/rand.
			s = s*6364136223846793005 + 1442695040888963407
			vals[i] = float64(s%100000) / 1000
		}
		comp, err := CompressFloat64(vals, Config{ErrorBound: 1e-4})
		if err != nil {
			t.Fatalf("compress: %v", err)
		}
		got, _, err := DecompressFloat64(comp)
		if err != nil {
			t.Fatalf("decompress: %v", err)
		}
		for i := range vals {
			if math.Abs(got[i]-vals[i]) > 1e-4*(1+1e-12) {
				t.Fatalf("element %d error %g", i, math.Abs(got[i]-vals[i]))
			}
		}
	})
}

// FuzzSZ3DecodeCorrupt is the silent-data-corruption fuzzer for the SZ3
// container: a well-formed stream with one flipped bit (and optional
// truncation) must decode, or fail with the typed ErrCorrupt — never
// panic and never surface an untyped error. Typed failures are what the
// verification layers above rely on to classify corruption.
func FuzzSZ3DecodeCorrupt(f *testing.F) {
	f.Add(int64(7), uint16(64), uint32(40), uint8(0))
	f.Add(int64(1), uint16(500), uint32(3000), uint8(3))
	f.Add(int64(99), uint16(9), uint32(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, bitPos uint32, cut uint8) {
		if n == 0 {
			n = 1
		}
		vals := make([]float64, n)
		x := uint64(seed)
		for i := range vals {
			x = x*6364136223846793005 + 1442695040888963407
			vals[i] = math.Sin(float64(i)*0.01) + float64(x%1000)/1e6
		}
		comp, err := CompressFloat64(vals, Config{ErrorBound: 1e-3})
		if err != nil || len(comp) == 0 {
			return
		}
		mut := append([]byte(nil), comp...)
		pos := int(bitPos) % (len(mut) * 8)
		mut[pos/8] ^= 1 << (pos % 8)
		if c := int(cut); c > 0 && c < len(mut) {
			mut = mut[:len(mut)-c]
		}
		out, _, err := DecompressFloat64(mut)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadConfig) {
				t.Fatalf("untyped sz3 decode error on corrupt stream: %v", err)
			}
			return
		}
		_ = out
	})
}
