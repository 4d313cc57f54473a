package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"pedal/internal/hwmodel"
	"pedal/internal/stats"
)

func newLib(t *testing.T, gen hwmodel.Generation) *Library {
	t.Helper()
	lib, err := Init(Options{Generation: gen})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lib.Finalize)
	return lib
}

func textData(n int) []byte {
	unit := []byte("<record id=\"42\"><field>pedal compresses messages</field></record>\n")
	return bytes.Repeat(unit, n/len(unit)+1)[:n]
}

func floatData(n int) []byte {
	vals := make([]float64, n/8)
	v := 0.0
	rng := rand.New(rand.NewSource(11))
	for i := range vals {
		v += math.Sin(float64(i)*0.01)*0.1 + rng.NormFloat64()*0.001
		vals[i] = v
	}
	out := make([]byte, len(vals)*8)
	for i, f := range vals {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(f))
	}
	return out
}

func TestHeaderFormat(t *testing.T) {
	lib := newLib(t, hwmodel.BlueField2)
	data := textData(4096)
	msg, _, err := lib.Compress(Design{AlgoDeflate, hwmodel.SoC}, TypeBytes, data)
	if err != nil {
		t.Fatal(err)
	}
	if msg[0] != 0xFF || msg[2] != 0xFF {
		t.Fatalf("header indicators wrong: % x", msg[:3])
	}
	if AlgoID(msg[1]) != AlgoDeflate {
		t.Fatalf("AlgoID byte = %d", msg[1])
	}
	algo, body, err := ParseHeader(msg)
	if err != nil || algo != AlgoDeflate {
		t.Fatalf("ParseHeader: %v %v", algo, err)
	}
	if len(body) != len(msg)-3 {
		t.Fatal("body length wrong")
	}
	// What Decompress does with a header it cannot decode: anything that
	// is not a PEDAL header is uncompressed data by protocol, but the
	// retired hybrid AlgoID is a compressed message and must be refused.
	for _, c := range []struct {
		name    string
		msg     []byte
		wantErr error
	}{
		{"no indicators", []byte("plain payload"), nil},
		{"unassigned AlgoID", []byte{0xFF, 9, 0xFF, 1, 2, 3}, nil},
		{"retired hybrid AlgoID", []byte{0xFF, byte(AlgoHybrid), 0xFF, 1, 2, 3}, ErrRetiredAlgo},
	} {
		out, _, err := lib.Decompress(hwmodel.SoC, TypeBytes, c.msg, 0)
		if !errors.Is(err, c.wantErr) || (c.wantErr == nil && !bytes.Equal(out, c.msg)) {
			t.Errorf("%s: got %q, %v; want error %v", c.name, out, err, c.wantErr)
		}
	}
}

func TestUncompressedPassthrough(t *testing.T) {
	lib := newLib(t, hwmodel.BlueField2)
	raw := []byte("no pedal header here")
	out, rep, err := lib.Decompress(hwmodel.SoC, TypeBytes, raw, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, raw) {
		t.Fatal("passthrough altered data")
	}
	if rep.Virtual != 0 {
		t.Fatal("passthrough should cost nothing")
	}
}

func TestAllDesignsRoundTripBothGenerations(t *testing.T) {
	lossless := textData(200000)
	lossy := floatData(160000)
	for _, gen := range []hwmodel.Generation{hwmodel.BlueField2, hwmodel.BlueField3} {
		lib := newLib(t, gen)
		for _, d := range Designs() {
			dt := TypeBytes
			data := lossless
			if d.Algo == AlgoSZ3 {
				dt = TypeFloat64
				data = lossy
			}
			msg, crep, err := lib.Compress(d, dt, data)
			if err != nil {
				t.Fatalf("%v %v compress: %v", gen, d, err)
			}
			out, drep, err := lib.Decompress(d.Engine, dt, msg, len(data)+64)
			if err != nil {
				t.Fatalf("%v %v decompress: %v", gen, d, err)
			}
			if d.Algo == AlgoSZ3 {
				// Lossy: verify error bound, not equality.
				checkFloatBound(t, data, out, 1e-4, gen.String()+" "+d.String())
			} else if !bytes.Equal(out, data) {
				t.Fatalf("%v %v: round trip mismatch", gen, d)
			}
			if crep.Virtual <= 0 || drep.Virtual <= 0 {
				t.Fatalf("%v %v: missing virtual timing", gen, d)
			}
			lib.Release(msg)
		}
	}
}

func checkFloatBound(t *testing.T, orig, recon []byte, eb float64, label string) {
	t.Helper()
	if len(orig) != len(recon) {
		t.Fatalf("%s: %d bytes vs %d", label, len(recon), len(orig))
	}
	for i := 0; i+8 <= len(orig); i += 8 {
		a := math.Float64frombits(binary.LittleEndian.Uint64(orig[i:]))
		b := math.Float64frombits(binary.LittleEndian.Uint64(recon[i:]))
		if math.Abs(a-b) > eb*(1+1e-9) {
			t.Fatalf("%s: element %d error %g > %g", label, i/8, math.Abs(a-b), eb)
		}
	}
}

// Table III: which designs execute without fallback on which generation.
func TestTable3PedalDesignMatrix(t *testing.T) {
	cases := []struct {
		gen          hwmodel.Generation
		d            Design
		wantFallback bool
	}{
		// BF2 C-Engine: DEFLATE, zlib, SZ3 compress natively/hybrid.
		{hwmodel.BlueField2, Design{AlgoDeflate, hwmodel.CEngine}, false},
		{hwmodel.BlueField2, Design{AlgoZlib, hwmodel.CEngine}, false},
		{hwmodel.BlueField2, Design{AlgoSZ3, hwmodel.CEngine}, false},
		// LZ4 has no C-Engine compression anywhere.
		{hwmodel.BlueField2, Design{AlgoLZ4, hwmodel.CEngine}, true},
		{hwmodel.BlueField3, Design{AlgoLZ4, hwmodel.CEngine}, true},
		// BF3 C-Engine compresses nothing.
		{hwmodel.BlueField3, Design{AlgoDeflate, hwmodel.CEngine}, true},
		{hwmodel.BlueField3, Design{AlgoZlib, hwmodel.CEngine}, true},
		{hwmodel.BlueField3, Design{AlgoSZ3, hwmodel.CEngine}, true},
		// SoC designs never fall back.
		{hwmodel.BlueField2, Design{AlgoDeflate, hwmodel.SoC}, false},
		{hwmodel.BlueField3, Design{AlgoZlib, hwmodel.SoC}, false},
	}
	for _, c := range cases {
		lib := newLib(t, c.gen)
		dt := TypeBytes
		data := textData(65536)
		if c.d.Algo == AlgoSZ3 {
			dt = TypeFloat64
			data = floatData(65536)
		}
		_, rep, err := lib.Compress(c.d, dt, data)
		if err != nil {
			t.Fatalf("%v %v: %v", c.gen, c.d, err)
		}
		if rep.Fallback != c.wantFallback {
			t.Errorf("%v %v: fallback = %v, want %v", c.gen, c.d, rep.Fallback, c.wantFallback)
		}
		if got := SupportsCompress(c.gen, c.d); got == c.wantFallback {
			t.Errorf("SupportsCompress(%v, %v) = %v inconsistent with fallback %v",
				c.gen, c.d, got, c.wantFallback)
		}
		lib.Finalize()
	}
}

func TestDecompressDesignMatrix(t *testing.T) {
	// BF3 C-Engine decompression works for DEFLATE/zlib/SZ3/LZ4; BF2's for
	// all but LZ4.
	data := textData(100000)
	for _, gen := range []hwmodel.Generation{hwmodel.BlueField2, hwmodel.BlueField3} {
		lib := newLib(t, gen)
		for _, algo := range []AlgoID{AlgoDeflate, AlgoZlib, AlgoLZ4} {
			msg, _, err := lib.Compress(Design{algo, hwmodel.SoC}, TypeBytes, data)
			if err != nil {
				t.Fatal(err)
			}
			out, rep, err := lib.Decompress(hwmodel.CEngine, TypeBytes, msg, len(data)+64)
			if err != nil {
				t.Fatalf("%v %v: %v", gen, algo, err)
			}
			if !bytes.Equal(out, data) {
				t.Fatalf("%v %v: mismatch", gen, algo)
			}
			wantFallback := !SupportsDecompress(gen, Design{algo, hwmodel.CEngine})
			if rep.Fallback != wantFallback {
				t.Errorf("%v %v: decompress fallback=%v want %v", gen, algo, rep.Fallback, wantFallback)
			}
		}
		lib.Finalize()
	}
}

func TestHybridZlibInteroperable(t *testing.T) {
	// A hybrid (C-Engine body) zlib message must decode on the plain SoC
	// path and vice versa: the wire format is unchanged.
	data := textData(80000)
	bf2 := newLib(t, hwmodel.BlueField2)
	msgHybrid, rep, err := bf2.Compress(Design{AlgoZlib, hwmodel.CEngine}, TypeBytes, data)
	if err != nil || rep.Engine != hwmodel.CEngine {
		t.Fatalf("hybrid compress: %v (engine %v)", err, rep.Engine)
	}
	out, _, err := bf2.Decompress(hwmodel.SoC, TypeBytes, msgHybrid, len(data)+64)
	if err != nil || !bytes.Equal(out, data) {
		t.Fatalf("SoC decode of hybrid zlib: %v", err)
	}
	msgSoC, _, err := bf2.Compress(Design{AlgoZlib, hwmodel.SoC}, TypeBytes, data)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err = bf2.Decompress(hwmodel.CEngine, TypeBytes, msgSoC, len(data)+64)
	if err != nil || !bytes.Equal(out, data) {
		t.Fatalf("hybrid decode of SoC zlib: %v", err)
	}
}

func TestBaselinePaysInitPerOp(t *testing.T) {
	data := textData(1 << 20)
	base, err := Init(Options{Generation: hwmodel.BlueField2, Baseline: true})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Finalize()
	ped := newLib(t, hwmodel.BlueField2)

	d := Design{AlgoDeflate, hwmodel.CEngine}
	_, repBase, err := base.Compress(d, TypeBytes, data)
	if err != nil {
		t.Fatal(err)
	}
	_, repPedal, err := ped.Compress(d, TypeBytes, data)
	if err != nil {
		t.Fatal(err)
	}
	if repBase.Phases[stats.PhaseDOCAInit] == 0 {
		t.Fatal("baseline did not pay DOCA init")
	}
	if repPedal.Phases[stats.PhaseDOCAInit] != 0 {
		t.Fatal("PEDAL paid DOCA init on the message path")
	}
	speedup := float64(repBase.Virtual) / float64(repPedal.Virtual)
	if speedup < 5 {
		t.Fatalf("PEDAL speedup over baseline = %.1f, expected large (paper: up to 88x)", speedup)
	}
}

func TestCompressionRatiosSane(t *testing.T) {
	lib := newLib(t, hwmodel.BlueField2)
	data := textData(1 << 20)
	var deflateRatio, lz4Ratio float64
	for _, algo := range []AlgoID{AlgoDeflate, AlgoLZ4, AlgoZlib} {
		_, rep, err := lib.Compress(Design{algo, hwmodel.SoC}, TypeBytes, data)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Ratio() < 1.5 {
			t.Errorf("%v ratio %.2f too low for structured text", algo, rep.Ratio())
		}
		switch algo {
		case AlgoDeflate:
			deflateRatio = rep.Ratio()
		case AlgoLZ4:
			lz4Ratio = rep.Ratio()
		}
	}
	// Table V(a): DEFLATE ratio consistently above LZ4's.
	if deflateRatio <= lz4Ratio {
		t.Errorf("DEFLATE ratio %.2f not above LZ4 %.2f", deflateRatio, lz4Ratio)
	}
}

func TestSZ3RequiresFloatType(t *testing.T) {
	lib := newLib(t, hwmodel.BlueField2)
	if _, _, err := lib.Compress(Design{AlgoSZ3, hwmodel.SoC}, TypeBytes, textData(1024)); err == nil {
		t.Fatal("SZ3 accepted byte data")
	}
	if _, _, err := lib.Compress(Design{AlgoSZ3, hwmodel.SoC}, TypeFloat64, textData(1025)); err == nil {
		t.Fatal("SZ3 accepted misaligned float64 buffer")
	}
}

func TestSZ3Float32(t *testing.T) {
	lib := newLib(t, hwmodel.BlueField2)
	vals := make([]float32, 10000)
	for i := range vals {
		vals[i] = float32(math.Sin(float64(i) * 0.01))
	}
	data := make([]byte, len(vals)*4)
	for i, v := range vals {
		binary.LittleEndian.PutUint32(data[i*4:], math.Float32bits(v))
	}
	msg, _, err := lib.Compress(Design{AlgoSZ3, hwmodel.CEngine}, TypeFloat32, data)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := lib.Decompress(hwmodel.CEngine, TypeFloat32, msg, len(data)+64)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		got := math.Float32frombits(binary.LittleEndian.Uint32(out[i*4:]))
		if math.Abs(float64(got-vals[i])) > 1e-4*(1+1e-6) {
			t.Fatalf("element %d error %g", i, math.Abs(float64(got-vals[i])))
		}
	}
}

func TestFinalizedLibraryRejectsOps(t *testing.T) {
	lib, err := Init(Options{})
	if err != nil {
		t.Fatal(err)
	}
	lib.Finalize()
	if _, _, err := lib.Compress(Design{AlgoDeflate, hwmodel.SoC}, TypeBytes, []byte("x")); !errors.Is(err, ErrFinalized) {
		t.Fatalf("want ErrFinalized, got %v", err)
	}
	lib.Finalize() // idempotent
}

func TestSmartNICModeRejected(t *testing.T) {
	if _, err := Init(Options{Mode: 2}); err == nil {
		t.Fatal("SmartNIC mode accepted; PEDAL requires Separated Host")
	}
}

func TestPoolReuseAcrossMessages(t *testing.T) {
	lib := newLib(t, hwmodel.BlueField2)
	data := textData(64 << 10)
	for i := 0; i < 10; i++ {
		msg, _, err := lib.Compress(Design{AlgoDeflate, hwmodel.CEngine}, TypeBytes, data)
		if err != nil {
			t.Fatal(err)
		}
		lib.Release(msg)
	}
	hits, misses := lib.PoolStats()
	if hits == 0 {
		t.Fatalf("no pool hits after 10 messages (hits=%d misses=%d)", hits, misses)
	}
	if misses > hits {
		t.Fatalf("pool mostly missing: hits=%d misses=%d", hits, misses)
	}
}

func TestCorruptBodySurfacesError(t *testing.T) {
	lib := newLib(t, hwmodel.BlueField2)
	data := textData(4096)
	msg, _, err := lib.Compress(Design{AlgoDeflate, hwmodel.SoC}, TypeBytes, data)
	if err != nil {
		t.Fatal(err)
	}
	msg[10] ^= 0xFF
	if _, _, err := lib.Decompress(hwmodel.SoC, TypeBytes, msg, len(data)+64); err == nil {
		// A flipped bit may rarely still inflate; verify content then.
		out, _, _ := lib.Decompress(hwmodel.SoC, TypeBytes, msg, len(data)+64)
		if bytes.Equal(out, data) {
			t.Skip("flip landed in padding")
		}
		t.Fatal("corrupt body decoded to wrong data without error")
	}
}

func TestDesignStrings(t *testing.T) {
	d := Design{AlgoDeflate, hwmodel.SoC}
	if d.String() != "SoC_DEFLATE" {
		t.Errorf("got %q", d.String())
	}
	d = Design{AlgoZlib, hwmodel.CEngine}
	if d.String() != "C-Engine_zlib" {
		t.Errorf("got %q", d.String())
	}
	if !AlgoSZ3.Lossy() || AlgoDeflate.Lossy() {
		t.Error("Lossy() wrong")
	}
}

func TestLosslessDesignsMatchFig10Labels(t *testing.T) {
	ds := LosslessDesigns()
	want := []string{"SoC_DEFLATE", "C-Engine_DEFLATE", "SoC_LZ4", "C-Engine_LZ4", "SoC_zlib", "C-Engine_zlib"}
	if len(ds) != len(want) {
		t.Fatalf("%d designs", len(ds))
	}
	for i, d := range ds {
		if d.String() != want[i] {
			t.Errorf("design %d = %s, want %s", i, d, want[i])
		}
	}
}

// concurrentMix is the per-goroutine workload of TestConcurrentCompress:
// one design each from the SoC, C-Engine, lossy and pipelined paths, so
// the four goroutines contend on every piece of shared library state.
var concurrentMix = []struct {
	d         Design
	dt        DataType
	pipelined bool
}{
	{Design{AlgoDeflate, hwmodel.SoC}, TypeBytes, false},
	{Design{AlgoDeflate, hwmodel.CEngine}, TypeBytes, false},
	{Design{AlgoSZ3, hwmodel.SoC}, TypeFloat64, false},
	{Design{AlgoLZ4, hwmodel.SoC}, TypeBytes, true},
}

// runMixWorker runs three compress+decompress rounds of concurrentMix[i]
// and returns every report in call order.
func runMixWorker(lib *Library, i int, text, floats []byte) ([]Report, error) {
	w := concurrentMix[i]
	data := text
	if w.d.Algo == AlgoSZ3 {
		data = floats
	}
	compress := lib.Compress
	if w.pipelined {
		compress = lib.CompressPipelined
	}
	var reps []Report
	for round := 0; round < 3; round++ {
		msg, crep, err := compress(w.d, w.dt, data)
		if err != nil {
			return nil, err
		}
		out, drep, err := lib.Decompress(w.d.Engine, w.dt, msg, len(data)+64)
		if err != nil {
			return nil, err
		}
		if !w.d.Algo.Lossy() && !bytes.Equal(out, data) {
			return nil, fmt.Errorf("%v: round trip mismatch", w.d)
		}
		reps = append(reps, crep, drep)
	}
	return reps, nil
}

// TestConcurrentCompress runs four goroutines mixing SoC, C-Engine, SZ3
// and pipelined operations on one Library and checks that per-operation
// accounting is really per operation: every Report equals the one the
// same call returns on a library used serially, and the lifetime total
// grows by exactly the sum of the reports.
func TestConcurrentCompress(t *testing.T) {
	text, floats := textData(256<<10), floatData(128<<10)
	serial := newLib(t, hwmodel.BlueField2)
	want := make([][]Report, len(concurrentMix))
	for i := range concurrentMix {
		reps, err := runMixWorker(serial, i, text, floats)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = reps
	}

	lib := newLib(t, hwmodel.BlueField2)
	before := lib.TotalBreakdown().Snapshot()
	got := make([][]Report, len(concurrentMix))
	errs := make([]error, len(concurrentMix))
	var wg sync.WaitGroup
	for i := range concurrentMix {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = runMixWorker(lib, i, text, floats)
		}(i)
	}
	wg.Wait()

	sum := stats.NewBreakdown()
	for p, d := range before {
		sum.Add(stats.Phase(p), d)
	}
	for i := range concurrentMix {
		if errs[i] != nil {
			t.Fatalf("%v: %v", concurrentMix[i].d, errs[i])
		}
		for j, g := range got[i] {
			w := want[i][j]
			if g.Virtual != w.Virtual || g.MsgCRC != w.MsgCRC ||
				!reflect.DeepEqual(g.Phases, w.Phases) || !reflect.DeepEqual(g.Counts, w.Counts) {
				t.Errorf("%v op %d: concurrent report %+v differs from serial %+v", concurrentMix[i].d, j, g, w)
			}
			for p, d := range g.Phases {
				sum.Add(stats.Phase(p), d)
			}
			for c, n := range g.Counts {
				sum.CountAdd(stats.Counter(c), n)
			}
		}
	}
	total := lib.TotalBreakdown()
	if !reflect.DeepEqual(total.Snapshot(), sum.Snapshot()) || !reflect.DeepEqual(total.Counts(), sum.Counts()) {
		t.Errorf("lifetime total %v / %v is not the sum of the reports %v / %v",
			total.Snapshot(), total.Counts(), sum.Snapshot(), sum.Counts())
	}
}

func TestVirtualTimingShapeCEngineFaster(t *testing.T) {
	// On BF2 the C-Engine design must be dramatically faster than the SoC
	// design for DEFLATE (paper Fig. 8: 101.8x for compression).
	lib := newLib(t, hwmodel.BlueField2)
	data := textData(5 << 20)
	_, socRep, err := lib.Compress(Design{AlgoDeflate, hwmodel.SoC}, TypeBytes, data)
	if err != nil {
		t.Fatal(err)
	}
	_, ceRep, err := lib.Compress(Design{AlgoDeflate, hwmodel.CEngine}, TypeBytes, data)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(socRep.Virtual) / float64(ceRep.Virtual)
	if ratio < 30 {
		t.Fatalf("C-Engine speedup = %.1f, want large (paper ≈101.8 for pure op)", ratio)
	}
}
