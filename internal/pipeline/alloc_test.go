package pipeline

import (
	"bytes"
	"testing"

	"pedal/internal/dpu"
	"pedal/internal/hwmodel"
	"pedal/internal/integrity"
	"pedal/internal/testutil"
)

// TestProduceSoftVerifiedZeroAllocs pins the allocation contract of the
// verified chunk hot path: producing one deflate chunk — including the
// decode-verify pass on the chunks the sampler elects — must not
// allocate in steady state. Both Sampled (the production screening
// mode) and Full (every chunk verified, the worst case) are held to
// zero, so turning verification on cannot reintroduce per-chunk GC
// pressure.
func TestProduceSoftVerifiedZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-detector shadow memory allocates on the hot path")
	}
	dev, err := dpu.NewDevice(hwmodel.BlueField3, dpu.SeparatedHost)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	p := New(dev, 1, nil)
	t.Cleanup(p.Close)

	data := bytes.Repeat([]byte("<chunk seq=\"9\">verified hot-path payload</chunk>\n"), 5600)[:256<<10]
	for _, tc := range []struct {
		name string
		mode integrity.VerifyMode
	}{
		{"off", integrity.VerifyOff},
		{"sampled", integrity.VerifySampled},
		{"full", integrity.VerifyFull},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := Spec{Algo: AlgoDeflate, Sampler: integrity.NewSampler(tc.mode, 0)}
			produce := func() {
				r := p.produceSoft(1, spec, data)
				if r.err != nil {
					t.Fatal(r.err)
				}
				if r.mismatch {
					t.Fatal("clean chunk reported a verify mismatch")
				}
				p.pool.Put(r.buf)
			}
			// Warm the pooled compress/verify scratch before measuring.
			for i := 0; i < 2; i++ {
				produce()
			}
			if n := testing.AllocsPerRun(30, produce); n != 0 {
				t.Errorf("verify=%s: %v allocs/op on the chunk hot path, want 0", tc.mode, n)
			}
		})
	}
}
