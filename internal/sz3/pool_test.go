package sz3

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"testing"

	"pedal/internal/datasets"
)

// exaaltF32 is the first n bytes of the exaalt stand-in as float32s —
// the lib-lossy-4m benchmark's input.
func exaaltF32(n int) []float32 {
	raw := datasets.ExaaltDataset1().Bytes()[:n]
	vals := make([]float32, n/4)
	for i := range vals {
		vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:]))
	}
	return vals
}

func f32Digest(vals []float32) string {
	raw := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
	return fmt.Sprintf("%x", sha256.Sum256(raw))
}

// The exaalt 4 MiB streams are pinned byte for byte: the SoC container
// (FastLZ backend) and the unwrapped core stream the C-Engine design
// deflates, together with what each decodes to. The working arrays are
// reused between calls, so these also pin that reuse changes no byte.
func TestExaaltStreamsPinned(t *testing.T) {
	vals := exaaltF32(4 << 20)
	for _, c := range []struct {
		backend       BackendKind
		stream, recon string
	}{
		{BackendFastLZ,
			"749c089cfaa45dd5b7a9deac45bbffef0820a3f307cc9a3b926612554967e8cd",
			"a4a80c3164650c824fc348fab1894d63cbc40b3c835220336b27f4e4be681b9b"},
		{BackendNone,
			"3baa83995dc0fef0c5f5df32a95e991f8e1437214646e49e6aa03a8c24452b22",
			"a4a80c3164650c824fc348fab1894d63cbc40b3c835220336b27f4e4be681b9b"},
	} {
		for run := 0; run < 2; run++ {
			comp, err := CompressFloat32(vals, Config{Backend: c.backend})
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(comp)); got != c.stream {
				t.Errorf("backend %d run %d: stream sha256 %s, want %s", c.backend, run, got, c.stream)
			}
			out, _, err := DecompressFloat32(comp)
			if err != nil {
				t.Fatal(err)
			}
			if got := f32Digest(out); got != c.recon {
				t.Errorf("backend %d run %d: decoded sha256 %s, want %s", c.backend, run, got, c.recon)
			}
		}
	}
}

// Concurrent callers of every size get the bytes a lone caller gets:
// no two calls share a working array.
func TestConcurrentCallsMatchSerial(t *testing.T) {
	all := exaaltF32(1 << 20)
	sizes := []int{1000, 40000, 65536, len(all)}
	type result struct {
		f32, f64 []byte
		dec      string
	}
	want := make([]result, len(sizes))
	run := func(n int) (result, error) {
		f32, err := CompressFloat32(all[:n], Config{})
		if err != nil {
			return result{}, err
		}
		out, _, err := DecompressFloat32(f32)
		if err != nil {
			return result{}, err
		}
		wide := make([]float64, n)
		for i, v := range all[:n] {
			wide[i] = float64(v)
		}
		f64, err := CompressFloat64(wide, Config{})
		return result{f32, f64, f32Digest(out)}, err
	}
	for i, n := range sizes {
		r, err := run(n)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				i := (g + k) % len(sizes)
				r, err := run(sizes[i])
				if err == nil && (string(r.f32) != string(want[i].f32) || string(r.f64) != string(want[i].f64) || r.dec != want[i].dec) {
					err = fmt.Errorf("goroutine %d: %d values differ from the serial call", g, sizes[i])
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
