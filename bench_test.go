// Package pedal's benchmark harness: one testing.B benchmark per table
// and figure of the paper's evaluation (§V). Each bench drives the same
// experiment runner that cmd/pedalbench uses (in Quick mode so that
// `go test -bench=.` completes in minutes); b.ReportMetric publishes the
// headline paper metrics (speedups, reductions) alongside wall time.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Regenerate a single figure at full dataset sizes:
//
//	go run ./cmd/pedalbench -exp fig8
package pedal_test

import (
	"bytes"
	"testing"
	"time"

	"pedal"
	"pedal/internal/experiments"
	"pedal/internal/flate"
	"pedal/internal/integrity"
)

var quick = experiments.Options{Quick: true}

// reportMetrics republishes an experiment's scalar metrics through the
// benchmark framework so `go test -bench` output carries the paper's
// headline numbers.
func reportMetrics(b *testing.B, tab experiments.Table) {
	b.Helper()
	for k, v := range tab.Metrics {
		b.ReportMetric(v, k)
	}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	r := experiments.ByID(id)
	if r == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	var tab experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = r.Run(quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportMetrics(b, tab)
}

// BenchmarkTable4DatasetInventory regenerates Table IV (dataset
// generation cost).
func BenchmarkTable4DatasetInventory(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkFig7aLosslessBreakdownBF2 regenerates Fig. 7a: the
// init/prep/compress/decompress time distribution on BlueField-2.
func BenchmarkFig7aLosslessBreakdownBF2(b *testing.B) { runExperiment(b, "fig7a") }

// BenchmarkFig7bLosslessBreakdownBF3 regenerates Fig. 7b (BlueField-3).
func BenchmarkFig7bLosslessBreakdownBF3(b *testing.B) { runExperiment(b, "fig7b") }

// BenchmarkFig8RawCompressDecompress regenerates Fig. 8: PEDAL
// per-operation times across generations, engines and datasets, with the
// paper's headline speedups as reported metrics.
func BenchmarkFig8RawCompressDecompress(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9LossyBreakdown regenerates Fig. 9: the SZ3 time
// distribution on BF2/BF3, SoC vs C-Engine.
func BenchmarkFig9LossyBreakdown(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkTable5aLosslessRatios regenerates Table V(a).
func BenchmarkTable5aLosslessRatios(b *testing.B) { runExperiment(b, "table5a") }

// BenchmarkTable5bLossyRatios regenerates Table V(b).
func BenchmarkTable5bLossyRatios(b *testing.B) { runExperiment(b, "table5b") }

// BenchmarkFig10PtToPtLatency regenerates Fig. 10a-e: OSU-style MPI
// point-to-point latency for the six lossless designs vs the baseline.
func BenchmarkFig10PtToPtLatency(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig10fLossyLatency regenerates Fig. 10f: the SZ3 design's
// point-to-point latency vs the baseline.
func BenchmarkFig10fLossyLatency(b *testing.B) { runExperiment(b, "fig10f") }

// BenchmarkFig11Broadcast regenerates Fig. 11: four-node MPI_Bcast
// across designs and generations.
func BenchmarkFig11Broadcast(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkExtDeploymentScenarios runs the §VI deployment comparison
// (host-side compression vs DPU offload with PCIe movement).
func BenchmarkExtDeploymentScenarios(b *testing.B) { runExperiment(b, "ext-deploy") }

// BenchmarkExtHybridDesign runs the §V-C.2 hybrid parallel
// SoC+C-Engine design against the pure designs.
func BenchmarkExtHybridDesign(b *testing.B) { runExperiment(b, "ext-hybrid") }

// BenchmarkExtAblation isolates PEDAL's optimisations (init hoisting,
// buffer pooling, RNDV threshold).
func BenchmarkExtAblation(b *testing.B) { runExperiment(b, "ext-ablation") }

// ---- public-API microbenchmarks ----

func benchPayload() []byte {
	return bytes.Repeat([]byte("<sample id=\"3\">compressible benchmark payload</sample>\n"), 20000)
}

func benchCompress(b *testing.B, d pedal.Design) {
	lib, err := pedal.Init(pedal.Options{Generation: pedal.BlueField2})
	if err != nil {
		b.Fatal(err)
	}
	defer lib.Finalize()
	data := benchPayload()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg, _, err := lib.Compress(d, pedal.TypeBytes, data)
		if err != nil {
			b.Fatal(err)
		}
		lib.Release(msg)
	}
}

func BenchmarkCompressSoCDeflate(b *testing.B)     { benchCompress(b, pedal.DesignSoCDeflate) }
func BenchmarkCompressCEngineDeflate(b *testing.B) { benchCompress(b, pedal.DesignCEngineDeflate) }
func BenchmarkCompressSoCZlib(b *testing.B)        { benchCompress(b, pedal.DesignSoCZlib) }
func BenchmarkCompressCEngineZlib(b *testing.B)    { benchCompress(b, pedal.DesignCEngineZlib) }
func BenchmarkCompressSoCLZ4(b *testing.B)         { benchCompress(b, pedal.DesignSoCLZ4) }

// BenchmarkExtPipeline runs the chunked compression–communication
// overlap comparison (serial vs streamed chunk-frame rendezvous).
func BenchmarkExtPipeline(b *testing.B) { runExperiment(b, "ext-pipeline") }

// ---- pipelined hot-path microbenchmarks ----

// BenchmarkCompressChunk is the allocation regression gate for the
// per-chunk software path: steady-state AppendCompress of one 256 KiB
// chunk into a reused bound-sized buffer must report 0 allocs/op.
func BenchmarkCompressChunk(b *testing.B) {
	data := bytes.Repeat([]byte("<chunk seq=\"11\">pipelined per-chunk payload</chunk>\n"), 5120)[:256<<10]
	dst := make([]byte, 0, flate.CompressBound(len(data)))
	// Warm the pooled scratch before measuring.
	_ = flate.AppendCompress(dst, data, flate.DefaultLevel)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = flate.AppendCompress(dst, data, flate.DefaultLevel)
	}
}

// BenchmarkDecompressChunk: the receive-side counterpart — inflating a
// chunk into a fixed full-capacity slot of the reassembly buffer.
func BenchmarkDecompressChunk(b *testing.B) {
	data := bytes.Repeat([]byte("<chunk seq=\"12\">pipelined per-chunk payload</chunk>\n"), 5120)[:256<<10]
	comp := flate.Compress(data, flate.DefaultLevel)
	slot := make([]byte, 0, len(data))
	if _, err := flate.AppendDecompress(slot, comp, len(data)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flate.AppendDecompress(slot, comp, len(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineOverlap drives CompressPipelined end to end on
// BlueField-3 and reports the makespan speedup over the serial design as
// a benchmark metric.
func BenchmarkPipelineOverlap(b *testing.B) {
	lib, err := pedal.Init(pedal.Options{Generation: pedal.BlueField3})
	if err != nil {
		b.Fatal(err)
	}
	defer lib.Finalize()
	data := bytes.Repeat([]byte("<sample id=\"5\">pipeline overlap benchmark payload</sample>\n"), 4<<20/56)
	msg, serial, err := lib.Compress(pedal.DesignSoCDeflate, pedal.TypeBytes, data)
	if err != nil {
		b.Fatal(err)
	}
	lib.Release(msg)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	var piped pedal.Report
	for i := 0; i < b.N; i++ {
		msg, piped, err = lib.CompressPipelined(pedal.DesignSoCDeflate, pedal.TypeBytes, data)
		if err != nil {
			b.Fatal(err)
		}
		lib.Release(msg)
	}
	b.ReportMetric(float64(serial.Virtual)/float64(piped.Virtual), "makespan_speedup")
}

// BenchmarkVerifiedCompress drives CompressPipelined with VerifySampled
// — the compute fault domain's steady-state screening mode, which
// decode-verifies one chunk in eight against the source before release
// — so a profile shows what verification costs next to
// BenchmarkPipelineOverlap's unverified baseline. The verified-overhead
// metric is the wall-clock ratio against an Off-mode library on the
// same payload; the acceptance bar is < 1.10.
func BenchmarkVerifiedCompress(b *testing.B) {
	data := bytes.Repeat([]byte("<sample id=\"6\">verified pipeline benchmark payload</sample>\n"), 4<<20/60)
	run := func(lib *pedal.Library) {
		msg, _, err := lib.CompressPipelined(pedal.DesignSoCDeflate, pedal.TypeBytes, data)
		if err != nil {
			b.Fatal(err)
		}
		lib.Release(msg)
	}
	base, err := pedal.Init(pedal.Options{Generation: pedal.BlueField3})
	if err != nil {
		b.Fatal(err)
	}
	defer base.Finalize()
	lib, err := pedal.Init(pedal.Options{Generation: pedal.BlueField3, Verify: integrity.VerifySampled})
	if err != nil {
		b.Fatal(err)
	}
	defer lib.Finalize()
	// Warm both libraries' pools, then time an equal slice of baseline
	// work for the overhead ratio.
	run(base)
	run(lib)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(lib)
	}
	verified := b.Elapsed()
	b.StopTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		run(base)
	}
	baseline := time.Since(start)
	if baseline > 0 {
		b.ReportMetric(verified.Seconds()/baseline.Seconds(), "verified_overhead_ratio")
	}
}

func BenchmarkDecompressCEngineDeflate(b *testing.B) {
	lib, err := pedal.Init(pedal.Options{Generation: pedal.BlueField2})
	if err != nil {
		b.Fatal(err)
	}
	defer lib.Finalize()
	data := benchPayload()
	msg, _, err := lib.Compress(pedal.DesignCEngineDeflate, pedal.TypeBytes, data)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := lib.Decompress(pedal.CEngine, pedal.TypeBytes, msg, len(data)+64); err != nil {
			b.Fatal(err)
		}
	}
}
