package core

import (
	"testing"

	"pedal/internal/hwmodel"
	"pedal/internal/testutil"
)

// TestSerialOpAllocs pins what one serial 4 KiB operation allocates for
// its own bookkeeping. The operation keeps its breakdown and its report
// by value inside an op that stays on the stack, and its message comes
// from the pool, so a SoC compress plus Release allocates nothing and an
// LZ4 decompress only its fresh output. A per-operation breakdown,
// snapshot or counter map shows up here.
func TestSerialOpAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-detector shadow memory allocates on the hot path")
	}
	lib := newLib(t, hwmodel.BlueField2)
	data := textData(4 << 10)
	for _, tc := range []struct {
		algo                 AlgoID
		compress, decompress float64
	}{
		{AlgoDeflate, 0, -1},
		{AlgoLZ4, 0, 1},
	} {
		d := Design{Algo: tc.algo, Engine: hwmodel.SoC}
		compress := func() {
			msg, _, err := lib.Compress(d, TypeBytes, data)
			if err != nil {
				t.Fatal(err)
			}
			lib.Release(msg)
		}
		// Warm the pool class and the codec scratch before measuring.
		for i := 0; i < 2; i++ {
			compress()
		}
		if n := testing.AllocsPerRun(50, compress); n > tc.compress {
			t.Errorf("%v: %v allocs per compress + Release, want <= %v", d, n, tc.compress)
		}
		if tc.decompress < 0 {
			continue
		}
		msg, _, err := lib.Compress(d, TypeBytes, data)
		if err != nil {
			t.Fatal(err)
		}
		decompress := func() {
			if _, _, err := lib.Decompress(hwmodel.SoC, TypeBytes, msg, len(data)); err != nil {
				t.Fatal(err)
			}
		}
		decompress()
		if n := testing.AllocsPerRun(50, decompress); n > tc.decompress {
			t.Errorf("%v: %v allocs per Decompress, want <= %v", d, n, tc.decompress)
		}
	}
}
