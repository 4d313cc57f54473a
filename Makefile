GO ?= go

# Packages exercised with the race detector: the concurrency-heavy layers
# (engine queue + close protocol + watchdog, retry path, MPI runtime and
# the OSU loops that drive one goroutine per rank, reliability sublayer,
# service admission control, breaker half-open probes, concurrent
# operations inside one Library, the lock-free stats ledgers they share)
# and the lossless kernels and SZ3, whose tables, scratch and working
# arrays are shared through sync.Pool.
RACE_PKGS = ./internal/core ./internal/stats ./internal/dpu ./internal/doca ./internal/mpi ./internal/osu ./internal/transport ./internal/service ./internal/pipeline ./internal/faults ./internal/fleet ./internal/ckpt ./internal/mempool ./internal/lz4 ./internal/lz77 ./internal/flate ./internal/huffman ./internal/sz3

# Per-target budget for the fuzz smoke pass (each Fuzz* function runs
# this long beyond its seed corpus).
FUZZ_TIME ?= 2s

# Every fuzz target in the tree as package:Function pairs. `go test
# -fuzz` accepts one target per invocation, so the fuzz goal loops.
FUZZ_TARGETS = \
	./internal/fastlz:FuzzDecompress \
	./internal/fastlz:FuzzRoundTrip \
	./internal/lz4:FuzzDecompressBlock \
	./internal/lz4:FuzzDecompressFrame \
	./internal/lz4:FuzzBlockRoundTrip \
	./internal/lz4:FuzzFrameRoundTrip \
	./internal/sz3:FuzzDecompressContainer \
	./internal/sz3:FuzzRoundTripBound \
	./internal/gzipfmt:FuzzDecompress \
	./internal/lz77:FuzzLZ77RoundTrip \
	./internal/flate:FuzzDecompress \
	./internal/flate:FuzzRoundTrip \
	./internal/flate:FuzzDifferentialStdlib \
	./internal/flate:FuzzInflateCorrupt \
	./internal/sz3:FuzzSZ3DecodeCorrupt \
	./internal/pipeline:FuzzChunkFrame \
	./internal/pipeline:FuzzDescriptor \
	./internal/mpi:FuzzEnvelope \
	./internal/service:FuzzProtocol \
	./internal/ckpt:FuzzManifest

.PHONY: all fmt build build32 vet test race fuzz wallbench check soak figures-check exact-check

all: check

# Fails when any file is not gofmt-formatted, listing the offenders.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

# The module builds and vets with a 32-bit int: no constant overflows it.
build32:
	GOARCH=386 $(GO) build ./... && GOARCH=386 $(GO) vet ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Short coverage-guided smoke pass over every fuzz corpus; catches
# decoder regressions that fixed unit inputs miss.
fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%:*}; fn=$${t#*:}; \
		echo "fuzz $$pkg $$fn"; \
		$(GO) test $$pkg -run='^$$' -fuzz="^$$fn$$" -fuzztime=$(FUZZ_TIME) >/dev/null; \
	done

# The repo's wall-clock benchmark (BENCHMARK.json): every workload once,
# end to end, appended to .bench_build/artifacts/results.jsonl for
# `pedal-benchmark -compare`.
WALLBENCH_WORKLOADS = lib-mixed-1m lib-bulk-8m lib-lossy-4m svc-rpc-4k svc-conc-1m mpi-pingpong-1m
wallbench:
	@set -e; for w in $(WALLBENCH_WORKLOADS); do \
		bash benchmark/run.sh --workload $$w --seed 1 --seconds 10 --trace 0; \
	done

# Full-scale chaos soaks (fixed seed matrices): the engine fault-domain
# sweep (stall/wedge/reset-fail over serial + pipelined paths), the
# network sweep (lossy fabric + overloaded daemon), the rank
# fault-domain sweep (crash/hang/restart mid-collective, detector +
# shrink), and the fleet sweep (sharded pedald under crash/stall/
# restart/overload/drain), the storage sweep (checkpoint store under
# tear/rot/stall/crash-mid-commit), the compute sweep (silent data
# corruption under verified compression, hop checksums and quarantine),
# and the overload sweep (memory-budget squeezes, slow consumers and
# deadline storms under budgets + brownout). `make check` runs them when
# SOAK=1; standalone `make soak` always does.
soak:
	$(GO) test -count=1 -run '^(TestExtEngineFaultsSoak|TestExtNetFaultsSoak|TestExtRankFaultsSoak|TestExtFleetFaultsSoak|TestExtCkptFaultsSoak|TestExtSDCFaultsSoak|TestExtOverloadFaultsSoak)$$' -v ./internal/experiments

# The fourteen deterministic paper tables/figures and extensions, rendered
# in quick mode and compared byte for byte with internal/experiments/
# testdata/quick/<id>.txt (the same comparison `make test` runs). After an
# intended change: append -update to the go test line to re-pin.
figures-check:
	$(GO) test -count=1 -run '^Test(Table4|Fig7aShape|Fig7bShape|Fig8HeadlineMetrics|Fig9Shape|Table5aShape|Table5bShape|Fig10Shape|Fig10fShape|Fig11Shape|ExtDeployShape|ExtHybridShape|ExtPipelineShape|ExtAblationShape)$$' ./internal/experiments

# Every exact gate a refactor must keep, in one command: the fourteen
# figure tables above, the golden per-design reports, every fault
# injector's and schedule's decision sequence (internal/faults/testdata),
# the three seeded soak tables (internal/experiments/testdata/soak), the
# lossless kernels' output bytes (internal/flate/testdata/codecs.txt) and
# the Huffman length builder's tie resolution (internal/huffman/testdata),
# the MPI envelope bytes of every frame kind (internal/mpi),
# and the CRC-32, Adler-32 and XXH32 values every digest, frame and golden
# above rests on, checked against literals computed outside Go.
# After an intended change: append -update to that package's go test line.
exact-check: figures-check
	$(GO) test -count=1 -run '^Test(CRC32|Adler32|XXH32)KnownVectors$$' ./internal/checksum
	$(GO) test -count=1 -run '^TestCodecOutputGolden$$' ./internal/flate
	$(GO) test -count=1 -run '^TestBuildLengthsTiesGolden$$' ./internal/huffman
	$(GO) test -count=1 -run '^TestEnvelopeGolden$$' ./internal/mpi
	$(GO) test -count=1 -run '^TestGoldenReports$$' ./internal/core
	$(GO) test -count=1 -run '^TestFaultSchedulesGolden$$' ./internal/faults
	$(GO) test -count=1 -run '^TestExt(Engine|Ckpt|Rank)FaultsSoak$$' ./internal/experiments

check: fmt build build32 vet test race fuzz
ifeq ($(SOAK),1)
check: soak
endif
