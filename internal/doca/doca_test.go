package doca

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"pedal/internal/dpu"
	"pedal/internal/flate"
	"pedal/internal/hwmodel"
	"pedal/internal/stats"
)

func newCtx(t *testing.T, gen hwmodel.Generation) (*Context, *stats.Breakdown) {
	t.Helper()
	dev, err := dpu.NewDevice(gen, dpu.SeparatedHost)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dev.Close)
	bd := stats.NewBreakdown()
	ctx, err := Init(dev, bd)
	if err != nil {
		t.Fatal(err)
	}
	return ctx, bd
}

func TestInitChargesInitCost(t *testing.T) {
	_, bd := newCtx(t, hwmodel.BlueField2)
	if got := bd.Get(stats.PhaseDOCAInit); got != hwmodel.InitCost(hwmodel.BlueField2) {
		t.Fatalf("init cost = %v, want %v", got, hwmodel.InitCost(hwmodel.BlueField2))
	}
}

func TestMMapChargesBufPrep(t *testing.T) {
	ctx, bd := newCtx(t, hwmodel.BlueField2)
	before := bd.Get(stats.PhaseBufPrep)
	ctx.MMap(bd, 1<<20)
	if bd.Get(stats.PhaseBufPrep) <= before {
		t.Fatal("MMap charged nothing")
	}
}

func TestSubmitCompressDecompress(t *testing.T) {
	ctx, bd := newCtx(t, hwmodel.BlueField2)
	src := []byte(strings.Repeat("full doca path ", 500))
	res, err := ctx.Submit(context.Background(), bd, hwmodel.Deflate, hwmodel.Compress, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bd.Get(stats.PhaseCompress) != res.Virtual {
		t.Fatal("compression virtual time not charged")
	}
	dec, err := ctx.Submit(context.Background(), bd, hwmodel.Deflate, hwmodel.Decompress, res.Output, len(src)+16)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Output, src) {
		t.Fatal("round trip mismatch")
	}
	if bd.Get(stats.PhaseDecompress) != dec.Virtual {
		t.Fatal("decompression virtual time not charged")
	}
}

func TestUnsupportedPathSurfaces(t *testing.T) {
	ctx, bd := newCtx(t, hwmodel.BlueField3)
	src := []byte("bf3 cannot compress on the engine")
	if _, err := ctx.Submit(context.Background(), bd, hwmodel.Deflate, hwmodel.Compress, src, 0); !errors.Is(err, dpu.ErrUnsupported) {
		t.Fatalf("want dpu.ErrUnsupported, got %v", err)
	}
}

func TestSoCRunCharges(t *testing.T) {
	ctx, bd := newCtx(t, hwmodel.BlueField2)
	d, err := ctx.SoCRun(bd, hwmodel.Deflate, hwmodel.Compress, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 || bd.Get(stats.PhaseCompress) != d {
		t.Fatal("SoC run not charged")
	}
}

func TestClosedContext(t *testing.T) {
	ctx, bd := newCtx(t, hwmodel.BlueField2)
	ctx.Close()
	if _, err := ctx.Submit(context.Background(), bd, hwmodel.Deflate, hwmodel.Compress, []byte("x"), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after close: %v", err)
	}
}

// The paper's §V-C observation: on a 5.1 MB dataset, init + buffer prep
// dominate an un-hoisted C-Engine run at ≈94%.
func TestInitOverheadDominatesSmallMessages(t *testing.T) {
	dev, err := dpu.NewDevice(hwmodel.BlueField2, dpu.SeparatedHost)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	bd := stats.NewBreakdown()
	// Baseline behaviour: init + map + compress + decompress per message.
	xmlSize := 51 * (1 << 20) / 10 // 5.1 MB, the silesia/xml size
	src := bytes.Repeat([]byte("<entry>silesia-xml-like textual content</entry>\n"), xmlSize/48)
	ctx, err := Init(dev, bd)
	if err != nil {
		t.Fatal(err)
	}
	ctx.MMap(bd, len(src))
	res, err := ctx.Submit(context.Background(), bd, hwmodel.Deflate, hwmodel.Compress, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx.MMap(bd, len(res.Output))
	if _, err := ctx.Submit(context.Background(), bd, hwmodel.Deflate, hwmodel.Decompress, res.Output, len(src)+64); err != nil {
		t.Fatal(err)
	}
	overhead := bd.Get(stats.PhaseDOCAInit) + bd.Get(stats.PhaseBufPrep)
	frac := float64(overhead) / float64(bd.Total())
	if frac < 0.88 || frac > 0.99 {
		t.Fatalf("overhead fraction = %.3f, want ≈0.94 (paper §V-C)", frac)
	}
}

func TestSoftwareCanDecodeEngineOutput(t *testing.T) {
	ctx, bd := newCtx(t, hwmodel.BlueField2)
	src := []byte(strings.Repeat("engine to software ", 300))
	res, err := ctx.Submit(context.Background(), bd, hwmodel.Deflate, hwmodel.Compress, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := flate.Decompress(res.Output)
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("software decode failed: %v", err)
	}
}
