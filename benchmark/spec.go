package main

// The benchmark's contract: workload names, metric names, units, bounds
// and which clock each number is read from. BENCHMARK.json at the repo
// root repeats the names, units, directions and bounds; the self-test
// fails when the two disagree.

// Clocks. Every number the benchmark prints carries one of these.
const (
	clockWall    = "wall"    // host time.Now around calls into the program
	clockVirtual = "virtual" // hwmodel/simclock modelled DPU time; repeats exactly for one seed
	clockExact   = "exact"   // a count or byte ratio fixed by the inputs and the code
	clockProc    = "proc"    // OS / Go runtime accounting (rusage, MemStats, /proc)
)

type metricSpec struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the base median by which an end-to-end
	// metric may worsen before -compare reports a regression. Zero for
	// per-layer metrics, which carry none.
	Bound float64
	Clock string
}

type workloadSpec struct {
	Name string
	Why  string
}

var workloadSpecs = []workloadSpec{
	{"lib-mixed-1m", "1 caller, BF2 Library, 1 MiB slices of five corpora plus random through SoC_DEFLATE, C-Engine_DEFLATE, SoC_LZ4: codec and core only, one sixth incompressible"},
	{"lib-bulk-8m", "1 caller, BF3 Library, 8 MiB CompressPipelined/DecompressPipelined: pipeline and mempool carry it; wall and virtual makespan side by side"},
	{"lib-lossy-4m", "1 caller, BF2 Library, 4 MiB float32 exaalt through SoC_SZ3 and C-Engine_SZ3 with every value bound-checked: sz3 only, lossless kernels idle"},
	{"svc-rpc-4k", "nproc callers, fleet.Router over two loopback pedald shards, 4 KiB requests: per-request fixed cost sets the rate, kernel MB/s matters least"},
	{"svc-conc-1m", "nproc direct service.Client connections into one shard, 1 MiB requests: concurrency inside one Library, where the library-wide lock shows"},
	{"mpi-pingpong-1m", "2 in-process ranks, C-Engine_DEFLATE co-design, 1 MiB rendezvous ping-pong alternating serial and pipelined worlds: mpi matching and transport"},
}

// End-to-end metrics: printed by every workload with -trace 0. MiB is
// 2^20 bytes throughout (the unit hwmodel calibrates in).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25, clockWall},                     // median of three set-ups: dataset generation, pedal.Init, listeners and dials, reference cycle
	{"goodput_mb_s", "MiB/s", "higher", 0.15, clockWall},           // verified uncompressed MiB, both directions, per measured second, all callers
	{"compress_ms_per_mib", "ms/MiB", "lower", 0.15, clockWall},    // caller-observed compress time per MiB incl. queue wait; on mpi the time rank 0 is blocked in Send
	{"decompress_ms_per_mib", "ms/MiB", "lower", 0.15, clockWall},  // caller-observed decompress time per MiB; on mpi the one-way latency left after Send returned
	{"lat_p50_ms", "ms", "lower", 0.15, clockWall},                 // median latency of the unit op (library call, request, or one-way message = half a ping-pong), averaged over the cycle's ops
	{"compress_ratio", "ratio", "higher", 0.02, clockExact},        // sum of original over sum of compressed bytes across the cycle
	{"virtual_us_per_mib", "us/MiB", "lower", 0.001, clockVirtual}, // modelled DPU time per MiB: Report.Virtual totals of the libraries, rank-0 simclock on mpi
	{"peak_rss_mb", "MiB", "lower", 0.20, clockProc},               // process high-water RSS at the end of the run (VmHWM)
}

// Per-layer metrics: printed by every workload with -trace 1. The
// probes run on the workload's own inputs, so "per_mib" means "per MiB
// at this workload's message size" and "_4k" means "on 4 KiB prefixes
// of this workload's inputs".
var perLayer = []metricSpec{
	{"lz77.tokenize_us_per_mib", "us/MiB", "lower", 0, clockWall},       // lz77.Matcher.Tokens at level 6
	{"lz77.tokens_per_kib", "1/KiB", "lower", 0, clockExact},            // tokens emitted per KiB of input
	{"flate.compress_us_per_mib", "us/MiB", "lower", 0, clockWall},      // flate.AppendCompress at level 6
	{"flate.decompress_us_per_mib", "us/MiB", "lower", 0, clockWall},    // flate.AppendDecompress, per MiB of output
	{"flate.entropy_us_per_mib", "us/MiB", "lower", 0, clockWall},       // flate compress minus lz77 tokenize: Huffman build and bit writing
	{"flate.compress_us_4k", "us", "lower", 0, clockWall},               // flate.AppendCompress of one 4 KiB block
	{"flate.allocs_per_op", "count", "lower", 0, clockProc},             // heap allocations per AppendCompress
	{"lz4.compress_us_per_mib", "us/MiB", "lower", 0, clockWall},        // lz4.AppendCompress
	{"lz4.decompress_us_per_mib", "us/MiB", "lower", 0, clockWall},      // lz4.DecompressLimit, per MiB of output
	{"lz4.compress_us_4k", "us", "lower", 0, clockWall},                 // lz4.AppendCompress of one 4 KiB block
	{"checksum.crc32_us_per_mib", "us/MiB", "lower", 0, clockWall},      // checksum.CRC32
	{"sz3.compress_us_per_mib", "us/MiB", "lower", 0, clockWall},        // sz3.CompressFloat32, 1e-4 absolute bound, FastLZ backend
	{"sz3.decompress_us_per_mib", "us/MiB", "lower", 0, clockWall},      // sz3.DecompressFloat32
	{"sz3.allocs_per_op", "count", "lower", 0, clockProc},               // heap allocations per CompressFloat32
	{"sz3.alloc_kib_per_op", "KiB", "lower", 0, clockProc},              // heap KiB allocated per CompressFloat32
	{"mempool.hit_ratio", "ratio", "higher", 0, clockExact},             // pool hits / gets across the workload's libraries
	{"mempool.peak_bytes", "B", "lower", 0, clockExact},                 // highest held-bytes mark of any of the workload's pools
	{"mempool.outstanding_end", "count", "lower", 0, clockExact},        // buffers still out after drain; non-zero is a failure
	{"mempool.get_put_ns", "ns", "lower", 0, clockWall},                 // one Get(64 KiB)+Put pair, single goroutine
	{"mempool.get_put_ns_contended", "ns", "lower", 0, clockWall},       // one Get+Put pair with nproc goroutines on one pool
	{"dpu.engine_share", "ratio", "higher", 0, clockExact},              // ops the C-Engine served / ops that asked for it
	{"dpu.fallbacks", "count", "lower", 0, clockExact},                  // ops that fell back to the SoC for a missing capability
	{"dpu.degraded", "count", "lower", 0, clockExact},                   // ops pushed to the SoC by a runtime engine failure
	{"dpu.engine_resets", "count", "lower", 0, clockExact},              // engine hot-resets during the probes
	{"core.init_ms", "ms", "lower", 0, clockWall},                       // pedal.Init + Finalize, first thing in the process
	{"core.compress_us_per_mib", "us/MiB", "lower", 0, clockWall},       // Library.Compress SoC_DEFLATE
	{"core.decompress_us_per_mib", "us/MiB", "lower", 0, clockWall},     // Library.Decompress SoC, per MiB of output
	{"core.self_us_per_mib", "us/MiB", "lower", 0, clockWall},           // core compress minus flate compress: header copy, CRC, lock, accounting
	{"core.self_us_4k", "us", "lower", 0, clockWall},                    // the same difference on 4 KiB blocks
	{"core.allocs_per_op", "count", "lower", 0, clockProc},              // heap allocations per Library.Compress + Release
	{"core.virtual_us_per_mib", "us/MiB", "lower", 0, clockVirtual},     // Report.Virtual of the SoC_DEFLATE compress + decompress rungs
	{"pipeline.compress_us_per_mib", "us/MiB", "lower", 0, clockWall},   // BF3 Library.CompressPipelined SoC_DEFLATE
	{"pipeline.decompress_us_per_mib", "us/MiB", "lower", 0, clockWall}, // BF3 Library.DecompressPipelined C-Engine
	{"pipeline.wall_speedup", "ratio", "higher", 0, clockWall},          // serial Compress wall / CompressPipelined wall, same input and library
	{"pipeline.virtual_speedup", "ratio", "higher", 0, clockVirtual},    // serial Report.Virtual / pipelined Report.Virtual, same input
	{"pipeline.chunks_per_op", "count", "lower", 0, clockExact},         // chunk frames per pipelined message
	{"pipeline.allocs_per_op", "count", "lower", 0, clockProc},          // heap allocations per CompressPipelined + Release
	{"service.ping_us", "us", "lower", 0, clockWall},                    // service.Client.Ping round trip over loopback TCP
	{"service.rtt_us_4k", "us", "lower", 0, clockWall},                  // Client.Compress SoC_DEFLATE of 4 KiB, direct to one shard
	{"service.self_us_4k", "us", "lower", 0, clockWall},                 // that round trip minus the in-process core call
	{"service.rtt_us_per_mib", "us/MiB", "lower", 0, clockWall},         // Client.Compress SoC_DEFLATE at the workload's message size
	{"service.self_us_per_mib", "us/MiB", "lower", 0, clockWall},        // that round trip minus the in-process core call
	{"service.allocs_per_op", "count", "lower", 0, clockProc},           // heap allocations per 4 KiB round trip, client and server side together
	{"service.sheds", "count", "lower", 0, clockExact},                  // requests the shards refused busy
	{"service.conn_scaling", "ratio", "higher", 0, clockWall},           // closed-loop goodput at nproc connections / at 1 connection, one shard
	{"fleet.call_us_4k", "us", "lower", 0, clockWall},                   // fleet.Router.Compress SoC_DEFLATE of 4 KiB over two shards
	{"fleet.self_us_4k", "us", "lower", 0, clockWall},                   // router call minus the direct client call
	{"fleet.failovers", "count", "lower", 0, clockExact},                // router failovers
	{"fleet.hedges", "count", "lower", 0, clockExact},                   // router hedges launched
	{"fleet.sheds", "count", "lower", 0, clockExact},                    // router-side sheds
	{"fleet.shard_imbalance", "ratio", "lower", 0, clockExact},          // busiest shard's requests / mean requests per shard
	{"transport.inproc_us_per_mib", "us/MiB", "lower", 0, clockWall},    // one frame Send+Recv over the in-process provider
	{"transport.tcp_us_per_mib", "us/MiB", "lower", 0, clockWall},       // one frame Send+Recv over the loopback TCP provider
	{"mpi.oneway_us_per_mib", "us/MiB", "lower", 0, clockWall},          // half a ping-pong, serial world, C-Engine_DEFLATE
	{"mpi.self_us_per_mib", "us/MiB", "lower", 0, clockWall},            // one-way minus core compress minus core decompress (C-Engine_DEFLATE)
	{"mpi.virtual_oneway_us", "us", "lower", 0, clockVirtual},           // rank-0 simclock advance per one-way message, serial world
	{"mpi.pipelined_wall_gain", "ratio", "higher", 0, clockWall},        // serial one-way wall / pipelined one-way wall
	{"ckpt.commit_mb_s", "MiB/s", "higher", 0, clockWall},               // Store.Commit of 4 Snapshots shards over MemFS, LibraryCompressor SoC_DEFLATE
	{"ckpt.restore_mb_s", "MiB/s", "higher", 0, clockWall},              // Store.Restore of the same epoch
	{"proc.cpu_cores_busy", "cores", "higher", 0, clockProc},            // (utime+stime)/wall over the spanned workload phase
	{"proc.gc_pause_ms", "ms", "lower", 0, clockProc},                   // GC stop-the-world pause total over the spanned workload phase
	{"proc.alloc_mb_per_s", "MiB/s", "lower", 0, clockProc},             // heap bytes allocated per second over the spanned workload phase
	{"proc.tracing_overhead", "ratio", "lower", 0, clockWall},           // goodput of the unspanned phase / goodput of the spanned phase
	// Demoted from end-to-end: a percentile needs ten samples beyond
	// it and the bulk workloads make too few ops per run, and a ratio
	// that is 0 at the seed cannot carry a relative bound.
	{"lat_p90_ms", "ms", "lower", 0, clockWall},         // p90 of the unit-op latency in the spanned workload phase
	{"lat_p99_ms", "ms", "lower", 0, clockWall},         // p99 of the unit-op latency in the spanned workload phase
	{"fail_ratio", "ratio", "lower", 0, clockExact},     // ops failed, refused or wrong / ops attempted
	{"fail.busy", "count", "lower", 0, clockExact},      // ops refused busy
	{"fail.deadline", "count", "lower", 0, clockExact},  // ops abandoned at a deadline
	{"fail.peer", "count", "lower", 0, clockExact},      // ops lost to a dead peer or broken connection
	{"fail.remote", "count", "lower", 0, clockExact},    // ops the remote library rejected
	{"fail.corrupt", "count", "lower", 0, clockExact},   // ops a hop checksum rejected
	{"fail.mismatch", "count", "lower", 0, clockExact},  // ops whose output failed the benchmark's own check
	{"fail.other", "count", "lower", 0, clockExact},     // ops failed with an error of no known class
	{"leak.goroutines", "count", "lower", 0, clockProc}, // goroutines still running after drain; non-zero is a failure
}

func findSpec(list []metricSpec, name string) (metricSpec, bool) {
	for _, m := range list {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}
