package core

import (
	"bytes"
	"testing"

	"pedal/internal/hwmodel"
)

// The hybrid design (§V-C.2 / §VI) executes as pipelined DEFLATE with the
// engine on; these tests drive it through Compress, the entry point its
// callers use.

func TestHybridRoundTrip(t *testing.T) {
	for _, gen := range []hwmodel.Generation{hwmodel.BlueField2, hwmodel.BlueField3} {
		lib := newLib(t, gen)
		for _, n := range []int{0, 1, 1000, 1 << 20, 5<<20 + 12345} {
			data := textData(n)
			msg, crep, err := lib.Compress(DesignHybrid(), TypeBytes, data)
			if err != nil {
				t.Fatalf("%v n=%d: %v", gen, n, err)
			}
			out, _, err := lib.Decompress(hwmodel.CEngine, TypeBytes, msg, n+64)
			if err != nil {
				t.Fatalf("%v n=%d decompress: %v", gen, n, err)
			}
			if !bytes.Equal(out, data) {
				t.Fatalf("%v n=%d: round trip mismatch", gen, n)
			}
			if n >= 1<<20 && crep.Ratio() < 2 {
				t.Errorf("%v n=%d: hybrid ratio %.2f too low for text", gen, n, crep.Ratio())
			}
			lib.Release(msg)
		}
		lib.Finalize()
	}
}

func TestHybridHeaderAlgoID(t *testing.T) {
	lib := newLib(t, hwmodel.BlueField2)
	msg, _, err := lib.Compress(DesignHybrid(), TypeBytes, textData(2<<20))
	if err != nil {
		t.Fatal(err)
	}
	algo, _, err := ParseHeader(msg)
	if err != nil || algo != AlgoPipelined {
		t.Fatalf("header algo %v err %v, want the pipelined wire format", algo, err)
	}
}

func TestHybridFasterThanSerialSoCOnBF3(t *testing.T) {
	// BlueField-3 cannot compress on the C-Engine; the hybrid design's
	// value there is parallelising across the 16 SoC cores.
	lib := newLib(t, hwmodel.BlueField3)
	data := textData(16 << 20)
	_, serial, err := lib.Compress(Design{AlgoDeflate, hwmodel.SoC}, TypeBytes, data)
	if err != nil {
		t.Fatal(err)
	}
	_, hybrid, err := lib.Compress(DesignHybrid(), TypeBytes, data)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(serial.Virtual) / float64(hybrid.Virtual)
	t.Logf("BF3 hybrid vs serial SoC speedup: %.1fx (16 cores)", speedup)
	if speedup < 4 {
		t.Fatalf("hybrid speedup %.1f too small for a 16-core pool", speedup)
	}
}

func TestHybridNotSlowerThanCEngineOnBF2(t *testing.T) {
	// On BF2 the C-Engine dominates; the hybrid design must at least not
	// lose to the pure C-Engine design (it adds SoC core throughput).
	lib := newLib(t, hwmodel.BlueField2)
	data := textData(32 << 20)
	_, pure, err := lib.Compress(Design{AlgoDeflate, hwmodel.CEngine}, TypeBytes, data)
	if err != nil {
		t.Fatal(err)
	}
	_, hybrid, err := lib.Compress(DesignHybrid(), TypeBytes, data)
	if err != nil {
		t.Fatal(err)
	}
	// Allow a modest margin for chunk-framing and scheduling slack.
	if float64(hybrid.Virtual) > 1.3*float64(pure.Virtual) {
		t.Fatalf("hybrid %v much slower than pure C-Engine %v", hybrid.Virtual, pure.Virtual)
	}
}

func TestHybridCorruptFrame(t *testing.T) {
	lib := newLib(t, hwmodel.BlueField2)
	msg, _, err := lib.Compress(DesignHybrid(), TypeBytes, textData(3<<20))
	if err != nil {
		t.Fatal(err)
	}
	// Truncate mid-frame.
	if _, _, err := lib.Decompress(hwmodel.CEngine, TypeBytes, msg[:len(msg)/2], 4<<20); err == nil {
		t.Fatal("truncated hybrid message accepted")
	}
	// Corrupt the descriptor's chunk count.
	bad := append([]byte{}, msg...)
	bad[HeaderLen+1] = 0xFF
	bad[HeaderLen+2] = 0xFF
	if _, _, err := lib.Decompress(hwmodel.CEngine, TypeBytes, bad, 4<<20); err == nil {
		t.Fatal("corrupt hybrid descriptor accepted")
	}
}

func TestHybridRespectsMaxOutput(t *testing.T) {
	lib := newLib(t, hwmodel.BlueField2)
	data := textData(4 << 20)
	msg, _, err := lib.Compress(DesignHybrid(), TypeBytes, data)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := lib.Decompress(hwmodel.CEngine, TypeBytes, msg, 1<<20); err == nil {
		t.Fatal("oversized hybrid output accepted")
	}
}
