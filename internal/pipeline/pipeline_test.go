package pipeline_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"time"

	"pedal/internal/checksum"
	"pedal/internal/core"
	"pedal/internal/dpu"
	"pedal/internal/hwmodel"
	"pedal/internal/integrity"
	"pedal/internal/pipeline"
	"pedal/internal/sz3"
	"pedal/internal/testutil"
)

func textData(n int) []byte {
	unit := []byte("<record id=\"42\" kind=\"pipeline\">chunked overlap payload</record>\n")
	out := make([]byte, n)
	for i := 0; i < n; i += len(unit) {
		copy(out[i:], unit)
	}
	return out
}

func floatData(n int) []byte {
	n &^= 7
	out := make([]byte, n)
	for i := 0; i < n/4; i++ {
		binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(float32(math.Sin(float64(i)*0.01))))
	}
	return out
}

func newPipeline(t *testing.T, gen hwmodel.Generation) *pipeline.Pipeline {
	t.Helper()
	testutil.VerifyNoLeaks(t)
	dev, err := dpu.NewDevice(gen, dpu.SeparatedHost)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	p := pipeline.New(dev, 0, nil)
	t.Cleanup(p.Close)
	return p
}

// collect runs Compress and copies every delivered chunk (Chunk.Data is
// only valid during the sink call).
func collect(t *testing.T, p *pipeline.Pipeline, data []byte, spec pipeline.Spec) ([]pipeline.Chunk, pipeline.Summary) {
	t.Helper()
	var chunks []pipeline.Chunk
	sum, err := p.Compress(data, spec, func(ch pipeline.Chunk) error {
		ch.Data = append([]byte(nil), ch.Data...)
		chunks = append(chunks, ch)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return chunks, sum
}

// TestCompletionOrderDelivery checks the sink contract: chunks arrive in
// nondecreasing virtual completion order, cover the payload exactly once,
// and the makespan is the latest delivery.
func TestCompletionOrderDelivery(t *testing.T) {
	p := newPipeline(t, hwmodel.BlueField3)
	data := textData(3<<20 + 12345)
	spec := pipeline.Spec{Algo: pipeline.AlgoDeflate}
	chunks, sum := collect(t, p, data, spec)
	if sum.Chunks != len(chunks) {
		t.Fatalf("summary says %d chunks, sink saw %d", sum.Chunks, len(chunks))
	}
	seen := make(map[int]bool)
	var prev time.Duration
	var last time.Duration
	total := 0
	for i, ch := range chunks {
		if ch.Done < prev {
			t.Fatalf("chunk %d delivered at %v after %v", ch.Index, ch.Done, prev)
		}
		prev = ch.Done
		if seen[ch.Index] {
			t.Fatalf("chunk %d delivered twice", ch.Index)
		}
		seen[ch.Index] = true
		if ch.Offset != ch.Index*sum.ChunkSize {
			t.Fatalf("chunk %d offset %d, want %d", ch.Index, ch.Offset, ch.Index*sum.ChunkSize)
		}
		total += ch.OrigLen
		if ch.Done > last {
			last = ch.Done
		}
		_ = i
	}
	if total != len(data) {
		t.Fatalf("chunks cover %d bytes, want %d", total, len(data))
	}
	if last != sum.Makespan {
		t.Fatalf("last delivery %v != makespan %v", last, sum.Makespan)
	}
}

// TestStreamDigestStitching pins the parallel end-to-end digest: under
// VerifyFull every worker digests its own source chunk and the sink
// loop stitches them with CRC32Combine, so Summary.SrcCRC must equal a
// straight CRC-32 of the whole payload — including on a ragged last
// chunk and a single-chunk stream — while Off and Sampled carry the
// zero "not carried" sentinel.
func TestStreamDigestStitching(t *testing.T) {
	p := newPipeline(t, hwmodel.BlueField3)
	for _, n := range []int{3<<20 + 12345, 256 << 10, 100} {
		data := textData(n)
		want := checksum.CRC32(data)
		spec := pipeline.Spec{Algo: pipeline.AlgoDeflate, Sampler: integrity.NewSampler(integrity.VerifyFull, 0)}
		_, sum := collect(t, p, data, spec)
		if sum.SrcCRC != want {
			t.Errorf("n=%d: stitched SrcCRC %#x, want %#x", n, sum.SrcCRC, want)
		}
		for _, mode := range []integrity.VerifyMode{integrity.VerifyOff, integrity.VerifySampled} {
			spec.Sampler = integrity.NewSampler(mode, 0)
			if _, sum := collect(t, p, data, spec); sum.SrcCRC != 0 {
				t.Errorf("n=%d verify=%v: SrcCRC %#x, want 0 sentinel", n, mode, sum.SrcCRC)
			}
		}
	}
}

// TestMakespanBeatsSerial is the point of the pipeline: with k chunks
// spread over the SoC cores, the virtual makespan must be well below the
// single-stream cost of the same payload.
func TestMakespanBeatsSerial(t *testing.T) {
	for _, gen := range []hwmodel.Generation{hwmodel.BlueField2, hwmodel.BlueField3} {
		p := newPipeline(t, gen)
		n := 4 << 20
		data := textData(n)
		_, sum := collect(t, p, data, pipeline.Spec{Algo: pipeline.AlgoDeflate})
		serial, _ := hwmodel.OpCost(gen, hwmodel.SoC, hwmodel.Deflate, hwmodel.Compress, n)
		if sum.Makespan >= serial {
			t.Errorf("%v: pipelined makespan %v not below serial %v", gen, sum.Makespan, serial)
		}
		// Busy time never exceeds chunk-count × worst-case serial share by
		// more than the engine fixed cost; the model adds no overhead on
		// the pure-SoC path.
		if sum.Busy > serial+serial/8 {
			t.Errorf("%v: busy %v far above serial %v", gen, sum.Busy, serial)
		}
	}
}

// TestEngineAmortisation: on BlueField-2 the C-Engine's 1.3 ms fixed cost
// is paid once per busy period, so engine-preferred pipelined compression
// must not cost k× the fixed cost.
func TestEngineAmortisation(t *testing.T) {
	p := newPipeline(t, hwmodel.BlueField2)
	n := 4 << 20
	data := textData(n)
	_, sum := collect(t, p, data, pipeline.Spec{Algo: pipeline.AlgoDeflate, Engine: true})
	if sum.EngineChunks == 0 {
		t.Fatal("no chunks offloaded to the C-Engine")
	}
	serial, _ := hwmodel.OpCost(hwmodel.BlueField2, hwmodel.CEngine, hwmodel.Deflate, hwmodel.Compress, n)
	if sum.Makespan >= serial+serial/4 {
		t.Errorf("engine-pipelined makespan %v not comparable to serial engine %v", sum.Makespan, serial)
	}
	fixed, _ := hwmodel.OpCost(hwmodel.BlueField2, hwmodel.CEngine, hwmodel.Deflate, hwmodel.Compress, 0)
	if perChunk := time.Duration(sum.EngineChunks) * fixed; sum.Makespan >= perChunk && sum.EngineChunks > 2 {
		t.Errorf("makespan %v suggests fixed cost paid per chunk (%d × %v)", sum.Makespan, sum.EngineChunks, fixed)
	}
}

func roundTrip(t *testing.T, gen hwmodel.Generation, spec pipeline.Spec, data []byte, submitOrder func(k int) []int) []byte {
	t.Helper()
	p := newPipeline(t, gen)
	spec.ChunkSize = p.ChunkSizeFor(len(data), spec)
	chunks, sum := collect(t, p, data, spec)
	sess, err := p.NewDecompress(spec, len(chunks), sum.ChunkSize, len(data), 0)
	if err != nil {
		t.Fatal(err)
	}
	order := submitOrder(len(chunks))
	for _, i := range order {
		ch := chunks[i]
		if err := sess.Submit(ch.Index, ch.OrigLen, ch.CRC, ch.Data, 0); err != nil {
			t.Fatalf("submit chunk %d: %v", ch.Index, err)
		}
	}
	out, _, err := sess.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func identityOrder(k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = i
	}
	return out
}

func reverseOrder(k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = k - 1 - i
	}
	return out
}

// shuffledOrder interleaves from both ends — a deterministic shuffle.
func shuffledOrder(k int) []int {
	out := make([]int, 0, k)
	for lo, hi := 0, k-1; lo <= hi; lo, hi = lo+1, hi-1 {
		out = append(out, lo)
		if hi != lo {
			out = append(out, hi)
		}
	}
	return out
}

// TestRoundTripLossless round-trips every lossless codec through the raw
// pipeline on both generations, with in-order, reversed and interleaved
// chunk arrival (completion order on the wire is arbitrary).
func TestRoundTripLossless(t *testing.T) {
	data := textData(2<<20 + 777)
	orders := map[string]func(int) []int{
		"in-order": identityOrder,
		"reversed": reverseOrder,
		"shuffled": shuffledOrder,
	}
	for _, gen := range []hwmodel.Generation{hwmodel.BlueField2, hwmodel.BlueField3} {
		for _, algo := range []pipeline.Algo{pipeline.AlgoDeflate, pipeline.AlgoZlib, pipeline.AlgoLZ4} {
			for name, ord := range orders {
				for _, engine := range []bool{false, true} {
					spec := pipeline.Spec{Algo: algo, Engine: engine}
					out := roundTrip(t, gen, spec, data, ord)
					if !bytes.Equal(out, data) {
						t.Fatalf("%v/%v/%s/engine=%v: round trip mismatch", gen, algo, name, engine)
					}
				}
			}
		}
	}
}

// TestRoundTripSZ3 checks the lossy codecs stay inside the error bound
// through per-chunk 1-D streams.
func TestRoundTripSZ3(t *testing.T) {
	const bound = 1e-3
	data := floatData(1 << 20)
	cfg := sz3.Config{ErrorBound: bound, Backend: sz3.BackendFastLZ}
	spec := pipeline.Spec{Algo: pipeline.AlgoSZ3F32, SZ3: cfg}
	out := roundTrip(t, hwmodel.BlueField2, spec, data, reverseOrder)
	if len(out) != len(data) {
		t.Fatalf("length %d, want %d", len(out), len(data))
	}
	for i := 0; i+4 <= len(data); i += 4 {
		want := math.Float32frombits(binary.LittleEndian.Uint32(data[i:]))
		got := math.Float32frombits(binary.LittleEndian.Uint32(out[i:]))
		if math.Abs(float64(got-want)) > bound*(1+1e-6) {
			t.Fatalf("element %d error %g exceeds bound", i/4, math.Abs(float64(got-want)))
		}
	}
}

// TestSingleChunkDegenerate: payloads at or below one chunk still work,
// deliver exactly one chunk, and a zero-byte payload is a no-op.
func TestSingleChunkDegenerate(t *testing.T) {
	p := newPipeline(t, hwmodel.BlueField2)
	data := textData(4 << 10)
	spec := pipeline.Spec{Algo: pipeline.AlgoDeflate}
	chunks, sum := collect(t, p, data, spec)
	if len(chunks) != 1 || sum.Chunks != 1 {
		t.Fatalf("got %d chunks for sub-chunk payload", len(chunks))
	}
	if chunks[0].OrigLen != len(data) || chunks[0].Index != 0 {
		t.Fatalf("bad single chunk: %+v", chunks[0])
	}
	out := roundTrip(t, hwmodel.BlueField2, spec, data, identityOrder)
	if !bytes.Equal(out, data) {
		t.Fatal("single-chunk round trip mismatch")
	}

	empty, sum := collect(t, p, nil, spec)
	if len(empty) != 0 || sum.Chunks != 0 || sum.Makespan != 0 {
		t.Fatalf("empty payload produced %d chunks, makespan %v", len(empty), sum.Makespan)
	}
}

// TestDecompressRejects exercises the session's geometry and duplicate
// defences.
func TestDecompressRejects(t *testing.T) {
	p := newPipeline(t, hwmodel.BlueField2)
	data := textData(300 << 10)
	spec := pipeline.Spec{Algo: pipeline.AlgoDeflate, ChunkSize: 128 << 10}
	chunks, sum := collect(t, p, data, spec)
	if len(chunks) != 3 {
		t.Fatalf("want 3 chunks, got %d", len(chunks))
	}

	// Bad geometry: count×chunkSize can't cover origLen.
	if _, err := p.NewDecompress(spec, 1, sum.ChunkSize, len(data), 0); err == nil {
		t.Error("undersized geometry accepted")
	}
	// Duplicate and out-of-range submits.
	sess, err := p.NewDecompress(spec, 3, sum.ChunkSize, len(data), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(chunks[0].Index, chunks[0].OrigLen, chunks[0].CRC, chunks[0].Data, 0); err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(chunks[0].Index, chunks[0].OrigLen, chunks[0].CRC, chunks[0].Data, 0); err == nil {
		t.Error("duplicate chunk accepted")
	}
	if err := sess.Submit(7, 1, 0, []byte{0}, 0); err == nil {
		t.Error("out-of-range index accepted")
	}
	// Missing chunks surface as ErrIncomplete.
	if _, _, err := sess.Wait(); err == nil {
		t.Error("incomplete session Wait succeeded")
	}
}

// TestCorePipelinedDesigns routes all eight Table III designs plus the
// hybrid through core.CompressPipelined and back through the ordinary
// Decompress dispatch (the PEDAL header names AlgoPipelined; the
// descriptor names the inner codec).
func TestCorePipelinedDesigns(t *testing.T) {
	text := textData(1<<20 + 321)
	floats := floatData(1 << 20)
	designs := append(core.Designs(), core.DesignHybrid())
	for _, gen := range []hwmodel.Generation{hwmodel.BlueField2, hwmodel.BlueField3} {
		lib, err := core.Init(core.Options{Generation: gen})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range designs {
			dt, data := core.TypeBytes, text
			if d.Algo == core.AlgoSZ3 {
				dt, data = core.TypeFloat32, floats
			}
			msg, crep, err := lib.CompressPipelined(d, dt, data)
			if err != nil {
				t.Fatalf("%v/%v: compress: %v", gen, d, err)
			}
			if crep.Virtual <= 0 {
				t.Errorf("%v/%v: no virtual time charged", gen, d)
			}
			out, drep, err := lib.Decompress(d.Engine, dt, msg, len(data)+64)
			if err != nil {
				t.Fatalf("%v/%v: decompress: %v", gen, d, err)
			}
			if d.Algo == core.AlgoSZ3 {
				if len(out) != len(data) {
					t.Fatalf("%v/%v: length %d want %d", gen, d, len(out), len(data))
				}
				for i := 0; i+4 <= len(data); i += 4 {
					want := math.Float32frombits(binary.LittleEndian.Uint32(data[i:]))
					got := math.Float32frombits(binary.LittleEndian.Uint32(out[i:]))
					if math.Abs(float64(got-want)) > 1e-4*(1+1e-6) {
						t.Fatalf("%v/%v: element %d error %g", gen, d, i/4, math.Abs(float64(got-want)))
					}
				}
			} else if !bytes.Equal(out, data) {
				t.Fatalf("%v/%v: round trip mismatch", gen, d)
			}
			if drep.Virtual <= 0 {
				t.Errorf("%v/%v: no decompress virtual time", gen, d)
			}
			lib.Release(msg)
		}
		lib.Finalize()
	}
}

// TestCorePipelinedMakespan: the pipelined report's virtual time must
// undercut the serial design for a large message (the overlap headline).
func TestCorePipelinedMakespan(t *testing.T) {
	data := textData(4 << 20)
	for _, gen := range []hwmodel.Generation{hwmodel.BlueField2, hwmodel.BlueField3} {
		lib, err := core.Init(core.Options{Generation: gen})
		if err != nil {
			t.Fatal(err)
		}
		d := core.Design{Algo: core.AlgoDeflate, Engine: hwmodel.SoC}
		serialMsg, serial, err := lib.Compress(d, core.TypeBytes, data)
		if err != nil {
			t.Fatal(err)
		}
		lib.Release(serialMsg)
		pipedMsg, piped, err := lib.CompressPipelined(d, core.TypeBytes, data)
		if err != nil {
			t.Fatal(err)
		}
		lib.Release(pipedMsg)
		if piped.Virtual >= serial.Virtual {
			t.Errorf("%v: pipelined %v not below serial %v", gen, piped.Virtual, serial.Virtual)
		}
		lib.Finalize()
	}
}
