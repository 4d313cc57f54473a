// Package pipeline implements PEDAL's chunked streaming compression
// scheduler: a payload is split into fixed-size chunks that are fanned
// out across a persistent pool of SoC worker goroutines and the
// C-Engine's asynchronous job queue, and the compressed chunks are
// delivered to a caller-provided sink in completion order. Because the
// sink typically transmits each chunk as it completes, transmission of
// chunk i overlaps compression of chunk i+1 — the compression/
// communication overlap the paper's §VI extension sketches.
//
// Virtual-time accounting follows the cost model in internal/hwmodel.
// The SoC side is modelled as one queue per ARM core; a chunk placed on
// a core occupies it for the full single-stream OpCost of the chunk.
// The C-Engine is modelled as a serial batched resource: its large fixed
// submission cost (work-queue descriptor setup, ~1.3 ms on BlueField-2)
// is paid once per busy period, and chunks that queue back-to-back
// behind it pay only their streaming cost. This mirrors how DOCA batch
// submission amortises setup across queued descriptors; without it,
// chunking would *add* one fixed cost per chunk and lose to the serial
// path outright. The pipeline makespan is therefore the maximum over
// resources of their critical paths — not the sum of stage times.
package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pedal/internal/checksum"
	"pedal/internal/dpu"
	"pedal/internal/faults"
	"pedal/internal/flate"
	"pedal/internal/hwmodel"
	"pedal/internal/integrity"
	"pedal/internal/lz4"
	"pedal/internal/mempool"
	"pedal/internal/sz3"
	"pedal/internal/zlibfmt"
)

// Errors.
var (
	ErrClosed     = errors.New("pipeline: closed")
	ErrBadSpec    = errors.New("pipeline: bad spec")
	ErrBadChunk   = errors.New("pipeline: bad chunk")
	ErrIncomplete = errors.New("pipeline: missing chunks")
)

// Algo selects the per-chunk codec.
type Algo uint8

// Codecs. The SZ3 variants differ in element width; chunk boundaries are
// 8-byte aligned so both split cleanly.
const (
	AlgoDeflate Algo = iota + 1
	AlgoZlib
	AlgoLZ4
	AlgoSZ3F32
	AlgoSZ3F64
)

func (a Algo) String() string {
	switch a {
	case AlgoDeflate:
		return "deflate"
	case AlgoZlib:
		return "zlib"
	case AlgoLZ4:
		return "lz4"
	case AlgoSZ3F32:
		return "sz3-f32"
	case AlgoSZ3F64:
		return "sz3-f64"
	default:
		return fmt.Sprintf("Algo(%d)", uint8(a))
	}
}

func (a Algo) valid() bool { return a >= AlgoDeflate && a <= AlgoSZ3F64 }

// Spec configures one pipelined operation.
type Spec struct {
	Algo Algo
	// Engine permits C-Engine offload where the hardware supports the
	// path (Table II); unsupported combinations silently run on the SoC.
	Engine bool
	// SZ3 configures the lossy codec for the SZ3 algos.
	SZ3 sz3.Config
	// ChunkSize overrides the adaptive chunk size (rounded up to a
	// multiple of chunkAlign). Zero selects automatically.
	ChunkSize int
	// Sampler elects the chunks that get verified compression:
	// decode-verify for the lossless codecs, the scalar-reference
	// differential referee for SZ3. A mismatching chunk is re-executed on
	// the trusted scalar path before delivery. It is the library's own
	// sampler, so sampling runs across operations and serial and chunked
	// paths alike; nil trusts kernel output.
	Sampler *integrity.Sampler
	// SDC, when set, injects silent data corruption into SoC-produced
	// chunks (the C-Engine carries its own injector); each worker draws
	// from its own per-core seeded stream. Tests and soaks only.
	SDC *faults.ComputeInjector
}

// Chunk sizing policy.
const (
	// MinChunk keeps per-chunk framing and fixed costs amortised.
	MinChunk = 64 << 10
	// MaxChunk bounds per-chunk latency so overlap kicks in early.
	MaxChunk = 1 << 20
	// MaxChunksPerOp caps the fan-out of one operation at the C-Engine
	// work-queue depth so every chunk can be in flight at once.
	MaxChunksPerOp = 128
	// MaxChunks bounds the chunk index accepted from the wire.
	MaxChunks = 1 << 20
	// chunkAlign keeps chunk boundaries on 8-byte (float64) boundaries.
	chunkAlign = 8
)

// Chunk is one compressed chunk handed to the sink. Data is only valid
// during the sink call; the backing buffer returns to the pool after.
type Chunk struct {
	Index   int
	Offset  int
	OrigLen int
	Data    []byte
	// Engine reports whether the chunk was produced by the C-Engine.
	Engine bool
	// CRC is the source-computed CRC-32 of Data — the hop-carried
	// checksum downstream layers (frames, transport, fleet, checkpoint)
	// carry and check instead of recomputing or trusting.
	CRC uint32
	// Done is the chunk's virtual completion time relative to the start
	// of the operation.
	Done time.Duration
}

// Summary is the virtual-time account of one pipelined operation.
type Summary struct {
	// Makespan is the virtual duration of the whole operation: the
	// maximum completion time across all resources, not the sum.
	Makespan time.Duration
	// Busy is the total virtual compute time across all resources; the
	// difference between Chunks×serial-cost and Busy is the model's view
	// of chunking overhead (none under this cost model).
	Busy         time.Duration
	Chunks       int
	EngineChunks int
	CompBytes    int
	ChunkSize    int
	// Replayed counts chunks whose engine job was lost to a stall or
	// wedge (ErrEngineLost) and were re-executed on the SoC from the
	// scheduler's chunk journal — each exactly once, so reassembly stays
	// complete with no duplicate or missing chunks.
	Replayed int
	// VerifyMismatches counts chunks whose verification caught silent
	// data corruption; ScalarFallbacks counts the trusted scalar
	// re-executions that replaced them; Quarantines counts engine
	// quarantine transitions those mismatches triggered.
	VerifyMismatches int
	ScalarFallbacks  int
	Quarantines      int
	// SrcCRC is the CRC-32 of the whole uncompressed payload under
	// VerifyFull (zero otherwise, the "not carried" descriptor
	// sentinel). Each worker digests its own chunk alongside the
	// compression and the sink loop stitches the stream value with
	// CRC32Combine, so the end-to-end digest costs no serial pass over
	// the input.
	SrcCRC uint32
}

// Pipeline owns a persistent SoC worker pool bound to one device. It is
// safe for concurrent use; workers are shared across operations.
type Pipeline struct {
	dev     *dpu.Device
	gen     hwmodel.Generation
	pool    *mempool.Pool
	jobs    chan func(core int)
	wg      sync.WaitGroup
	workers int
	once    sync.Once
	// maxConc is the brownout concurrency cap (overload fault domain):
	// 0 means unrestricted; n>0 bounds how many chunks of one operation
	// are in flight at once (and shrinks the virtual schedule to match),
	// so each in-flight chunk's pooled buffers are the only ones held.
	// 1 is the serial-fallback rung of the brownout ladder.
	maxConc atomic.Int32
}

// New starts a pipeline with one worker goroutine per SoC core (or the
// given override) on dev. pool supplies output buffers; nil creates a
// private pool.
func New(dev *dpu.Device, workers int, pool *mempool.Pool) *Pipeline {
	if workers <= 0 {
		workers = dev.SoC().Cores
	}
	if pool == nil {
		pool = mempool.New()
	}
	p := &Pipeline{
		dev:     dev,
		gen:     dev.Generation(),
		pool:    pool,
		jobs:    make(chan func(core int), 4*workers),
		workers: workers,
	}
	// Each worker is pinned to a virtual core identity so the SDC
	// injector's per-core seeded schedules stay reproducible regardless
	// of which goroutine the runtime schedules first.
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func(core int) {
			defer p.wg.Done()
			for f := range p.jobs {
				f(core)
			}
		}(i)
	}
	return p
}

// Close stops the worker pool after draining queued work.
func (p *Pipeline) Close() {
	p.once.Do(func() {
		close(p.jobs)
		p.wg.Wait()
	})
}

// Workers returns the SoC worker count.
func (p *Pipeline) Workers() int { return p.workers }

// SetMaxConcurrency installs the brownout concurrency cap: n > 0 bounds
// how many chunks of one operation run at once (1 = serial fallback);
// n <= 0 restores full fan-out. Safe to flip while operations run —
// in-flight operations keep the cap they started with.
func (p *Pipeline) SetMaxConcurrency(n int) {
	if n < 0 {
		n = 0
	}
	p.maxConc.Store(int32(n))
}

// effWorkers is the SoC parallelism the virtual schedule plans against:
// the worker count, shrunk by the brownout cap when one is set.
func (p *Pipeline) effWorkers() int {
	if c := int(p.maxConc.Load()); c > 0 && c < p.workers {
		return c
	}
	return p.workers
}

// ChunkSizeFor returns the chunk size the pipeline will use for an
// n-byte payload under spec: adaptive between MinChunk and MaxChunk,
// aimed at two waves of work per SoC core, aligned to chunkAlign, and
// floored so the chunk count never exceeds MaxChunksPerOp.
func (p *Pipeline) ChunkSizeFor(n int, spec Spec) int {
	cs := spec.ChunkSize
	if cs <= 0 {
		cs = n / (2 * p.effWorkers())
		if cs < MinChunk {
			cs = MinChunk
		}
		if cs > MaxChunk {
			cs = MaxChunk
		}
	}
	cs = (cs + chunkAlign - 1) &^ (chunkAlign - 1)
	if minCS := (n + MaxChunksPerOp - 1) / MaxChunksPerOp; cs < minCS {
		cs = (minCS + chunkAlign - 1) &^ (chunkAlign - 1)
	}
	return cs
}

// planner is the greedy earliest-finish scheduler over the virtual
// resources: per-core SoC queues plus the batched serial C-Engine.
type planner struct {
	eng       *dpu.CEngine
	admitted  bool
	reported  bool
	gen       hwmodel.Generation
	spec      Spec
	op        hwmodel.Op
	cores     []time.Duration
	engAlgo   hwmodel.Algo
	engOK     bool
	engFixed  time.Duration
	engFree   time.Duration
	engUsed   bool
	engChunks int
	busy      time.Duration
	makespan  time.Duration
}

func (p *Pipeline) newPlanner(spec Spec, op hwmodel.Op) *planner {
	pl := &planner{eng: p.dev.CEngine(), gen: p.gen, spec: spec, op: op, cores: make([]time.Duration, p.effWorkers())}
	if spec.Engine {
		var a hwmodel.Algo
		switch {
		case spec.Algo == AlgoDeflate:
			a = hwmodel.Deflate
		case spec.Algo == AlgoLZ4 && op == hwmodel.Decompress:
			a = hwmodel.LZ4
		}
		if a != 0 && p.dev.SupportsCEngine(a, op) {
			if f, ok := hwmodel.OpCost(p.gen, hwmodel.CEngine, a, op, 0); ok {
				pl.engAlgo, pl.engOK, pl.engFixed = a, true, f
			}
		}
	}
	return pl
}

// socCost is the single-core SoC cost of op over n payload bytes. For
// decompression n is the chunk's *uncompressed* size — virtual time
// scales with the data volume moved, matching doca.SoCRun and the
// C-Engine's accounting.
func socCost(gen hwmodel.Generation, spec Spec, op hwmodel.Op, n int) time.Duration {
	switch spec.Algo {
	case AlgoDeflate:
		d, _ := hwmodel.OpCost(gen, hwmodel.SoC, hwmodel.Deflate, op, n)
		return d
	case AlgoZlib:
		d, _ := hwmodel.OpCost(gen, hwmodel.SoC, hwmodel.Zlib, op, n)
		return d
	case AlgoLZ4:
		d, _ := hwmodel.OpCost(gen, hwmodel.SoC, hwmodel.LZ4, op, n)
		return d
	case AlgoSZ3F32, AlgoSZ3F64:
		// Lossy core plus its FastLZ backend over the ~4× reduced
		// quantized stream (paper §III-B).
		core, _ := hwmodel.OpCost(gen, hwmodel.SoC, hwmodel.SZ3Core, op, n)
		back, _ := hwmodel.OpCost(gen, hwmodel.SoC, hwmodel.FastLZ, op, n/4)
		return core + back
	default:
		return 0
	}
}

// place schedules one chunk whose cost scales with n bytes, arriving at
// the given virtual time, onto the resource that finishes it earliest.
// It returns the chunk's completion time and whether it went to the
// C-Engine. Chunks queued back-to-back on the engine pay the fixed
// submission cost only when the engine was idle (a new busy period).
func (pl *planner) place(arrival time.Duration, n int) (time.Duration, bool) {
	sc := socCost(pl.gen, pl.spec, pl.op, n)
	ci := 0
	for i, f := range pl.cores {
		if f < pl.cores[ci] {
			ci = i
		}
	}
	socStart := arrival
	if pl.cores[ci] > socStart {
		socStart = pl.cores[ci]
	}
	socDone := socStart + sc

	if pl.engOK {
		full, _ := hwmodel.OpCost(pl.gen, hwmodel.CEngine, pl.engAlgo, pl.op, n)
		stream := full - pl.engFixed
		start := arrival
		if pl.engFree > start {
			start = pl.engFree
		}
		cost := stream
		if !pl.engUsed || start > pl.engFree {
			cost += pl.engFixed
		}
		if engDone := start + cost; engDone <= socDone && pl.admit() {
			pl.engUsed = true
			pl.engChunks++
			pl.engFree = engDone
			pl.busy += cost
			if engDone > pl.makespan {
				pl.makespan = engDone
			}
			return engDone, true
		}
	}
	pl.cores[ci] = socDone
	pl.busy += sc
	if socDone > pl.makespan {
		pl.makespan = socDone
	}
	return socDone, false
}

// admit takes the operation's one C-Engine admission (dpu.CEngine.Admit),
// lazily, at the first chunk the schedule would place on the engine; a
// refusal plans the rest of the operation on the SoC. The operation
// resolves a granted admission once its engine chunks are done.
func (pl *planner) admit() bool {
	if !pl.admitted {
		pl.admitted = pl.eng.Admit(pl.op)
		pl.engOK = pl.admitted
	}
	return pl.admitted
}

// report resolves the operation's admission with one engine job's
// outcome; callers report in a fixed order (delivery order for compress,
// index order for decompress) so seeded runs replay the same breaker
// transitions.
func (pl *planner) report(err error) {
	pl.reported = true
	pl.eng.Report(err)
}

// done releases an admission no engine job ran to an outcome for: every
// engine chunk spilled at submit or was abandoned at the deadline.
func (pl *planner) done() {
	if pl.admitted && !pl.reported {
		pl.eng.Release()
	}
}

type compResult struct {
	out []byte
	// buf is what the chunk's producer drew from the pool — nothing for
	// an engine chunk or an SZ3 one — and what the delivery loop Puts; out
	// usually lives in it.
	buf      []byte
	crc      uint32 // source-computed CRC of out, carried hop to hop
	srcCRC   uint32 // CRC of the chunk's *uncompressed* bytes (verify on)
	err      error
	fellBack bool
	// replayed marks a fallback caused by engine loss (stall/wedge/
	// reset) rather than an ordinary job failure.
	replayed bool
	// mismatch marks a chunk whose verification caught silent corruption
	// (a delivered one was replaced by its scalar re-execution);
	// quarantined marks a mismatch that tipped the engine's integrity
	// quarantine over its threshold.
	mismatch    bool
	quarantined bool
	// ran marks a chunk whose engine job reached an outcome, jobErr, for
	// the delivery loop to report to the engine.
	ran    bool
	jobErr error
}

// Compress splits src into chunks, compresses them across the SoC
// workers and the C-Engine, and calls sink once per chunk in virtual
// completion order. Chunk.Data is valid only during the sink call. The
// returned Summary carries the pipeline makespan; a sink error aborts
// delivery (remaining chunks are discarded) and is returned.
func (p *Pipeline) Compress(src []byte, spec Spec, sink func(Chunk) error) (Summary, error) {
	return p.CompressContext(context.Background(), src, spec, sink)
}

// deadlineErr is the typed abandonment error for an expired chunk: the
// layers above unwrap it to dpu.ErrDeadline.
func deadlineErr(ctx context.Context) error {
	return fmt.Errorf("%w: %v", dpu.ErrDeadline, ctx.Err())
}

// CompressContext is Compress bounded by a caller deadline. The
// dispatch loop checkpoints ctx per chunk — chunks past the expiry are
// failed with a typed dpu.ErrDeadline instead of compressed — engine
// chunks carry the deadline and are abandoned when it fires, and the
// delivery loop stops sinking once the deadline passes, draining every
// dispatched chunk so all pooled buffers return. A background context
// takes exactly the classic Compress path.
func (p *Pipeline) CompressContext(ctx context.Context, src []byte, spec Spec, sink func(Chunk) error) (Summary, error) {
	if !spec.Algo.valid() {
		return Summary{}, fmt.Errorf("%w: algo %d", ErrBadSpec, spec.Algo)
	}
	n := len(src)
	if n == 0 {
		return Summary{}, nil
	}
	ctxExpires := ctx.Done() != nil
	if ctxExpires && ctx.Err() != nil {
		return Summary{}, deadlineErr(ctx)
	}
	cs := p.ChunkSizeFor(n, spec)
	k := (n + cs - 1) / cs

	type slot struct {
		done   time.Duration
		engine bool
		off    int
		clen   int
	}
	pl := p.newPlanner(spec, hwmodel.Compress)
	slots := make([]slot, k)
	for i := range slots {
		off := i * cs
		clen := cs
		if off+clen > n {
			clen = n - off
		}
		done, eng := pl.place(0, clen)
		slots[i] = slot{done: done, engine: eng, off: off, clen: clen}
	}
	// Delivery order is known up front: the virtual schedule fixes each
	// chunk's completion time before any real work runs.
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return slots[order[a]].done < slots[order[b]].done })

	results := make([]chan compResult, k)
	for i := range results {
		results[i] = make(chan compResult, 1)
	}
	// Under VerifyFull each producer also digests its chunk's *source*
	// bytes on its own core — the per-chunk CRCs are stitched into the
	// end-to-end stream digest after the sink loop, so the descriptor
	// CRC never costs a serial pass over the input. Sampled mode is the
	// bounded-cost screening tier: it keeps the unconditional per-chunk
	// hop CRCs and the sampled decode-verify, but does not carry the
	// full-coverage stream digest (a 100% source pass would defeat the
	// point of sampling).
	digest := spec.Sampler.Mode() == integrity.VerifyFull
	deadline, _ := ctx.Deadline()
	// Brownout concurrency cap: a real semaphore bounds in-flight chunks
	// (and with them the pooled buffers an operation can hold at once),
	// acquired at dispatch and released once the chunk's result is
	// posted. Nil when unrestricted.
	var sem chan struct{}
	if c := p.effWorkers(); c < k && int(p.maxConc.Load()) > 0 {
		sem = make(chan struct{}, c)
	}
	acquire := func() {
		if sem != nil {
			sem <- struct{}{}
		}
	}
	post := func(i int, r compResult) {
		results[i] <- r
		if sem != nil {
			<-sem
		}
	}
	// Dispatch in index order so the engine's FIFO matches the schedule.
	for i := range slots {
		i := i
		s := slots[i]
		data := src[s.off : s.off+s.clen]
		// Deadline checkpoint: chunks dispatched after expiry would be
		// work nobody collects — fail them typed instead of running them.
		if ctxExpires && ctx.Err() != nil {
			results[i] <- compResult{err: deadlineErr(ctx)}
			continue
		}
		acquire()
		if s.engine {
			h, err := pl.eng.TrySubmit(dpu.Job{Algo: pl.engAlgo, Op: hwmodel.Compress, Input: data, Deadline: deadline})
			if err == nil {
				go func() {
					res, ok := h.WaitContextTimeout(ctx, 0)
					if !ok {
						// Abandoned at the caller's deadline: no SoC work,
						// and no outcome for the engine's health ladder.
						post(i, compResult{err: deadlineErr(ctx)})
						return
					}
					jobErr := res.Err
					if jobErr == nil && !res.VerifyOutput() {
						jobErr = dpu.ErrCorrupt
					}
					var r compResult
					if jobErr == nil {
						r = p.checkEngineChunk(spec, data, res.Output, res.Checksum)
					} else {
						r = p.produceSoft(0, spec, data)
						r.fellBack = true
						r.replayed = errors.Is(jobErr, dpu.ErrEngineLost)
					}
					r.ran, r.jobErr = true, jobErr
					if digest {
						r.srcCRC = checksum.CRC32(data)
					}
					post(i, r)
				}()
				continue
			}
			// Saturated or closed queue: spill to the SoC pool.
			slots[i].engine = false
		}
		p.jobs <- func(core int) {
			r := p.produceSoft(core, spec, data)
			if digest {
				r.srcCRC = checksum.CRC32(data)
			}
			post(i, r)
		}
	}

	sum := Summary{Makespan: pl.makespan, Busy: pl.busy, Chunks: k, ChunkSize: cs}
	var srcs []uint32
	if digest {
		srcs = make([]uint32, k)
	}
	var opErr error
	for _, idx := range order {
		r := <-results[idx]
		if r.ran {
			pl.report(r.jobErr)
		}
		if digest {
			srcs[idx] = r.srcCRC
		}
		// Deadline checkpoint: once the caller's budget expires, stop
		// delivering and drain the remaining chunks so every pooled
		// buffer returns before the typed error surfaces.
		if opErr == nil && ctxExpires && ctx.Err() != nil {
			opErr = deadlineErr(ctx)
		}
		if opErr == nil && r.err != nil {
			opErr = fmt.Errorf("pipeline: chunk %d: %w", idx, r.err)
		}
		if opErr != nil {
			p.pool.Put(r.buf)
			continue
		}
		s := slots[idx]
		done := s.done
		engine := s.engine
		if r.fellBack {
			// The engine accepted the job and failed; the software retry
			// serialises behind the scheduled completion.
			done += socCost(p.gen, spec, hwmodel.Compress, s.clen)
			engine = false
			if done > sum.Makespan {
				sum.Makespan = done
			}
			if r.replayed {
				sum.Replayed++
			}
		}
		if engine {
			sum.EngineChunks++
		}
		if r.mismatch {
			sum.VerifyMismatches++
			sum.ScalarFallbacks++
		}
		if r.quarantined {
			sum.Quarantines++
		}
		sum.CompBytes += len(r.out)
		err := sink(Chunk{Index: idx, Offset: s.off, OrigLen: s.clen, Data: r.out, Engine: engine, CRC: r.crc, Done: done})
		p.pool.Put(r.buf)
		if err != nil {
			opErr = err
		}
	}
	pl.done()
	if digest && opErr == nil {
		// Stitch the per-chunk source digests in index order: each
		// combine advances the running CRC past the next chunk's length,
		// so the fold equals one pass over the whole payload. All chunks
		// but the last share one length, so one precomputed zero-operator
		// serves the whole fold at ~32 XORs per chunk.
		zop := checksum.MakeCRC32Zeros(cs)
		sum.SrcCRC = srcs[0]
		for i := 1; i < k; i++ {
			if slots[i].clen == cs {
				sum.SrcCRC = zop.Combine(sum.SrcCRC, srcs[i])
			} else {
				sum.SrcCRC = checksum.CRC32Combine(sum.SrcCRC, srcs[i], slots[i].clen)
			}
		}
	}
	return sum, opErr
}

// The codec table. Bound, Encode, EncodeScalar, Verify, Heal and Decode
// are the one place that maps a Spec's algorithm onto the codec packages —
// compress, trusted scalar re-execution, verify against the source, heal,
// decode — including the bytes↔float view SZ3 needs. The chunk scheduler
// runs them per chunk; core's serial designs run them over the whole
// message. Like Decode, the encoders append to a dst their caller owns:
// whoever draws a buffer appends into it and Puts that buffer, and the
// table never hands one to anybody.

// Bound is the capacity the encoders need behind dst to append the
// encoding of n input bytes without growing it. Zero means no tight bound
// exists — SZ3's exact-value fallbacks can exceed the input — so the
// caller draws nothing and adopts what the codec allocates.
func (s Spec) Bound(n int) int {
	switch s.Algo {
	case AlgoDeflate:
		return flate.CompressBound(n)
	case AlgoZlib:
		return flate.CompressBound(n) + 6
	case AlgoLZ4:
		return lz4.CompressBound(n)
	default:
		return 0
	}
}

// Encode compresses data in software on the calling goroutine, appending
// to dst.
func Encode(spec Spec, dst, data []byte) ([]byte, error) { return encode(spec, dst, data, false) }

// EncodeScalar is the trusted scalar re-execution path taken after a
// verification mismatch, appending to dst: the token-refereed DEFLATE
// encoder (stored-block recovery) for the deflate-based codecs — the body
// of a DEFLATE-backed SZ3 container included, over the reference core —
// the scalar reference walk for SZ3, a plain recompression for LZ4
// (re-verified by the caller).
func EncodeScalar(spec Spec, dst, data []byte) ([]byte, error) { return encode(spec, dst, data, true) }

func encode(spec Spec, dst, data []byte, scalar bool) ([]byte, error) {
	switch spec.Algo {
	case AlgoDeflate:
		return appendDeflate(dst, data, scalar), nil
	case AlgoZlib:
		h, t := zlibfmt.Header(flate.DefaultLevel), zlibfmt.Trailer(data)
		return append(appendDeflate(append(dst, h[:]...), data, scalar), t[:]...), nil
	case AlgoLZ4:
		return lz4.AppendCompress(dst, data), nil
	case AlgoSZ3F32, AlgoSZ3F64:
		if scalar && spec.SZ3.Backend == sz3.BackendDeflate {
			core, err := sz3ScalarCore(spec, data)
			if err != nil {
				return nil, err
			}
			return appendDeflate(sz3.AppendContainer(dst, sz3.BackendDeflate, nil), core, true), nil
		}
		out, err := sz3Encode(spec, data, scalar)
		return into(dst, out), err
	default:
		return nil, fmt.Errorf("%w: algo %d", ErrBadSpec, spec.Algo)
	}
}

// appendDeflate appends src's DEFLATE stream at the default level to dst,
// through the token-refereed encoder on the scalar path.
func appendDeflate(dst, src []byte, scalar bool) []byte {
	if scalar {
		dst, _ = flate.AppendCompressVerified(dst, src, flate.DefaultLevel)
		return dst
	}
	return flate.AppendCompress(dst, src, flate.DefaultLevel)
}

// sz3Encode runs SZ3 — the slab kernels, or the scalar reference walk —
// over data viewed as spec's float type.
func sz3Encode(spec Spec, data []byte, reference bool) ([]byte, error) {
	if spec.Algo == AlgoSZ3F32 {
		vals, err := bytesToF32(data)
		if err != nil {
			return nil, err
		}
		if reference {
			return sz3.CompressFloat32Reference(vals, spec.SZ3)
		}
		return sz3.CompressFloat32(vals, spec.SZ3)
	}
	vals, err := bytesToF64(data)
	if err != nil {
		return nil, err
	}
	if reference {
		return sz3.CompressFloat64Reference(vals, spec.SZ3)
	}
	return sz3.CompressFloat64(vals, spec.SZ3)
}

// sz3ScalarCore is the scalar reference walk's unwrapped core stream for
// data: what a DEFLATE-backed container must inflate to.
func sz3ScalarCore(spec Spec, data []byte) ([]byte, error) {
	spec.SZ3.Backend = sz3.BackendNone
	ref, err := sz3Encode(spec, data, true)
	if err != nil {
		return nil, err
	}
	_, core, err := sz3.SplitContainer(ref)
	return core, err
}

// produceSoft is the SoC chunk producer with the compute fault domain
// wired through: draw the chunk's buffer, compress into it, give the SDC
// injector its shot (the fault model's stand-in for a misbehaving vector
// kernel on this core), then — when the sampler elects this chunk — verify
// and heal in that same buffer. The chunk CRC is computed *after*
// injection: a corrupted chunk carries a checksum matching its corrupt
// bytes, which is exactly what makes the corruption silent to every
// downstream hop and leaves verification as the only detector. The
// delivery loop Puts r.buf, on success and failure alike.
func (p *Pipeline) produceSoft(core int, spec Spec, data []byte) compResult {
	r := compResult{buf: p.pool.GetCap(spec.Bound(len(data)))}
	if r.out, r.err = Encode(spec, r.buf, data); r.err != nil {
		return r
	}
	spec.SDC.Corrupt(core, r.out)
	if spec.Sampler.Hit() {
		r.out, r.mismatch, _, r.err = p.Heal(spec, r.buf, data, r.out, false, "pipeline.chunk")
	}
	r.crc = checksum.CRC32(r.out)
	return r
}

// checkEngineChunk post-processes a successful engine chunk: the
// engine's completion checksum is the hop-carried CRC (taken over
// whatever bytes the engine produced — silently corrupt or not), and
// the sampler decides whether to decode-verify. Engine output is always
// verified while the engine is quarantined: those are the half-open
// probes that earn readmission. The chunk draws nothing: out is the
// engine's own allocation, and the rare healed replacement is the heap's.
func (p *Pipeline) checkEngineChunk(spec Spec, data, out []byte, crc uint32) compResult {
	r := compResult{out: out, crc: crc}
	if !spec.Sampler.Hit() && !p.dev.CEngine().Quarantined() {
		return r
	}
	r.out, r.mismatch, r.quarantined, r.err = p.Heal(spec, nil, data, out, true, "pipeline.chunk")
	if r.mismatch {
		r.fellBack, r.crc = true, checksum.CRC32(r.out)
	}
	return r
}

// Heal is the verified-compression ladder, the only one: verify out
// against data; on a mismatch re-execute on the trusted scalar path and
// verify the replacement; a second failure is unrecoverable and surfaces
// as a typed integrity.CorruptError naming hop. engine says the C-Engine
// produced out, so the verdict feeds its quarantine — a clean result is
// readmission evidence for a quarantined engine, a mismatch a strike that
// may quarantine it. A payload that verifies is returned as it came.
// A replacement is appended to dst, the caller's buffer, which may be the
// one holding out: the corrupt bytes are dead by then, so healing swaps no
// buffers and the caller still Puts exactly what it drew.
func (p *Pipeline) Heal(spec Spec, dst, data, out []byte, engine bool, hop string) (healed []byte, mismatch, quarantined bool, err error) {
	if p.Verify(spec, data, out) {
		if engine {
			p.dev.CEngine().ReportVerified()
		}
		return out, false, false, nil
	}
	quarantined = engine && p.dev.CEngine().ReportCorrupt()
	healed, err = EncodeScalar(spec, dst, data)
	if err == nil && !p.Verify(spec, data, healed[len(dst):]) {
		err = &integrity.CorruptError{Hop: hop, Segment: spec.Algo.String(), Want: uint32(len(data))}
	}
	return healed, true, quarantined, err
}

// Verify answers "does this compressed payload faithfully encode data?":
// a decode-and-compare for the lossless codecs, the scalar-reference
// differential referee for SZ3 (whose lossiness makes decode-compare
// inapplicable but whose slab kernels are pinned byte-identical to the
// reference walk). A DEFLATE-backed SZ3 container — the engine split,
// whose backend stage ran on the C-Engine — is judged by its core stream:
// DEFLATE encodings are not unique, so the body is inflated and compared
// with the reference core, which catches both a corrupt slab-produced core
// and a corrupt engine result. The deflate path is pooled and
// allocation-free so VerifySampled keeps the chunk hot path at zero
// allocations per op.
func (p *Pipeline) Verify(spec Spec, data, out []byte) bool {
	switch spec.Algo {
	case AlgoDeflate:
		buf := p.pool.GetCap(len(data))
		dec, err := flate.AppendDecompress(buf, out, len(data))
		ok := err == nil && bytes.Equal(dec, data)
		p.pool.Put(buf)
		return ok
	case AlgoZlib, AlgoLZ4:
		dec, err := Decode(spec.Algo, nil, out, len(data))
		return err == nil && bytes.Equal(dec, data)
	case AlgoSZ3F32, AlgoSZ3F64:
		if spec.SZ3.Backend == sz3.BackendDeflate {
			backend, body, err := sz3.SplitContainer(out)
			ref, rerr := sz3ScalarCore(spec, data)
			if err != nil || rerr != nil || backend != sz3.BackendDeflate {
				return false
			}
			got, err := flate.DecompressLimit(body, len(ref)+64)
			return err == nil && bytes.Equal(got, ref)
		}
		// The reference walk is deterministic, so the trusted scalar
		// re-execution doubles as the referee.
		ref, err := sz3Encode(spec, data, true)
		return err == nil && bytes.Equal(ref, out)
	default:
		return false
	}
}
