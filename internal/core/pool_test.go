package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"pedal/internal/faults"
	"pedal/internal/hwmodel"
	"pedal/internal/integrity"
	"pedal/internal/stats"
)

// poolCase is one design's input for the pool-accounting test.
func poolCase(d Design) (DataType, []byte) {
	if d.Algo == AlgoSZ3 {
		return TypeFloat64, floatData(256 << 10)
	}
	return TypeBytes, textData(256 << 10)
}

// wantPool asserts the pool's two ownership counters against the messages
// the test currently holds: one outstanding buffer per message, charged
// at exactly that message's size class (a pool-issued buffer's capacity
// is its class). A buffer the pool never issued, a draw nobody returned,
// and a charge left behind all show up here.
func wantPool(t *testing.T, lib *Library, stage string, held [][]byte) {
	t.Helper()
	var charged int64
	for _, m := range held {
		charged += int64(cap(m))
	}
	snap := lib.PoolSnapshot()
	if snap.Outstanding != int64(len(held)) || snap.HeldBytes != charged {
		t.Errorf("%s: outstanding %d held %d bytes, want %d and %d",
			stage, snap.Outstanding, snap.HeldBytes, len(held), charged)
	}
}

// sameData reports whether out is d's faithful decode of src: equal for
// the lossless designs, within the library's error bound for SZ3.
func sameData(d Design, bound float64, src, out []byte) bool {
	if d.Algo != AlgoSZ3 {
		return bytes.Equal(src, out)
	}
	if len(src) != len(out) {
		return false
	}
	for i := 0; i+8 <= len(src); i += 8 {
		a := math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
		b := math.Float64frombits(binary.LittleEndian.Uint64(out[i:]))
		if math.Abs(a-b) > bound*(1+1e-9) {
			return false
		}
	}
	return true
}

// TestPoolAccountingPerDesign holds the buffer-ownership rule to account
// on every design of both generations, under a memory budget: while four
// messages are held the pool reads four outstanding buffers charged at
// their four classes; Decompress leaves both counters where it found them
// (its outputs are not pool-drawn); after Release both read zero — for
// Compress and for CompressPipelined. Then one seeded kernel bit flip
// under VerifyFull: the mismatch is caught, the message is healed in its
// own buffer, and the counters still return to zero.
func TestPoolAccountingPerDesign(t *testing.T) {
	for _, gen := range []hwmodel.Generation{hwmodel.BlueField2, hwmodel.BlueField3} {
		lib, err := Init(Options{Generation: gen, MemBudget: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(lib.Finalize)
		for _, d := range Designs() {
			dt, data := poolCase(d)
			for _, pipelined := range []bool{false, true} {
				t.Run(fmt.Sprintf("%v/%v/pipelined=%v", gen, d, pipelined), func(t *testing.T) {
					compress := lib.Compress
					if pipelined {
						compress = lib.CompressPipelined
					}
					var held [][]byte
					for i := 0; i < 4; i++ {
						msg, _, err := compress(d, dt, data)
						if err != nil {
							t.Fatal(err)
						}
						held = append(held, msg)
					}
					wantPool(t, lib, "four messages held", held)
					out, _, err := lib.Decompress(d.Engine, dt, held[0], len(data)+64)
					if err != nil || !sameData(d, lib.opts.ErrorBound, data, out) {
						t.Fatalf("round trip: err %v", err)
					}
					wantPool(t, lib, "after Decompress", held)
					for _, m := range held {
						lib.Release(m)
					}
					wantPool(t, lib, "after Release", nil)
				})
			}
			for _, pipelined := range []bool{false, true} {
				if pipelined && d.Algo == AlgoSZ3 {
					// A pipelined message under VerifyFull carries the CRC of
					// its source for the receiver to check the decoded output
					// against, which no lossy output matches: SZ3 does not
					// round-trip there at all, flip or no flip.
					continue
				}
				t.Run(fmt.Sprintf("%v/%v/flip/pipelined=%v", gen, d, pipelined), func(t *testing.T) {
					inj := faults.NewComputeInjector(faults.ComputeFaultConfig{Seed: 22, PKernelFlip: 1, MaxInjections: 1})
					lib, err := Init(Options{Generation: gen, MemBudget: 1 << 30, Verify: integrity.VerifyFull, ComputeFaults: inj})
					if err != nil {
						t.Fatal(err)
					}
					defer lib.Finalize()
					compress := lib.Compress
					if pipelined {
						compress = lib.CompressPipelined
					}
					msg, rep, err := compress(d, dt, data)
					if err != nil {
						t.Fatal(err)
					}
					if _, n := inj.Counts(); n != 1 {
						t.Fatalf("%d flips applied, want 1", n)
					}
					// The seed puts the flip where it breaks verification in
					// every cell (a flip in a stream's final padding bits
					// would decode clean and count nothing).
					if rep.Counts[stats.CounterVerifyMismatches] < 1 || rep.Counts[stats.CounterScalarFallbacks] < 1 {
						t.Errorf("flip not caught and healed: counts %v", rep.Counts)
					}
					wantPool(t, lib, "healed message held", [][]byte{msg})
					out, _, err := lib.Decompress(d.Engine, dt, msg, len(data)+64)
					if err != nil || !sameData(d, lib.opts.ErrorBound, data, out) {
						t.Fatalf("healed message does not decode to the source: err %v", err)
					}
					lib.Release(msg)
					wantPool(t, lib, "after Release", nil)
				})
			}
		}
	}
}
