package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"pedal"
	"pedal/internal/checksum"
	"pedal/internal/ckpt"
	"pedal/internal/core"
	"pedal/internal/datasets"
	"pedal/internal/flate"
	"pedal/internal/fleet"
	"pedal/internal/lz4"
	"pedal/internal/lz77"
	"pedal/internal/mempool"
	"pedal/internal/pipeline"
	"pedal/internal/service"
	"pedal/internal/stats"
	"pedal/internal/sz3"
	"pedal/internal/transport"
)

// probes walks a workload's inputs down the ladder of layers, one
// separately timed call per rung, all made from here. Every rung runs
// on every workload, on that workload's inputs: big is the inputs at
// their own size, small their first 4 KiB, floats float32 data for SZ3.
type probes struct {
	rec   *recorder
	smoke bool
	nproc int
	seed  int64

	big, small []input
	floats     []float32

	lib2, lib3 *core.Library
	shards     []*shard
	direct     *service.Client
	router     *fleet.Router
	keys       []string
	worlds     [2]*pingWorld // serial, pipelined
	inproc     []transport.Endpoint
	tcp        []transport.Endpoint
	store      *ckpt.Store
	snaps      [][]byte
	epoch      uint64

	matcher lz77.Matcher
	tokens  []lz77.Token
	buf     []byte

	tally
}

// tally holds the counts read at the rung boundaries (Report, pipeline
// descriptor, simclock, Server.Stats).
type tally struct {
	tokenCount, tokenBytes          int
	engineAsked, engineServed       int
	fallbacks, degraded             int
	coreVirtual                     time.Duration
	coreVirtualBytes                int
	serialVirtual, pipelinedVirtual time.Duration
	chunks, pipelinedOps            int
	mpiVirtual                      time.Duration
	mpiOneways                      int
	// routed counts the requests each shard answered for the router.
	routed [2]uint64
}

func newProbes(rec *recorder, in *instance, cfg config, nproc int) (*probes, error) {
	p := &probes{rec: rec, smoke: cfg.smoke, nproc: nproc, seed: cfg.seed}
	// A pass over the big inputs costs a few hundred ms per MiB, so a
	// workload with large inputs lends only its first few.
	budget := 6 * mib / cfg.scale()
	for _, x := range in.inputs {
		p.big = append(p.big, x)
		if budget -= len(x.Data); budget <= 0 {
			break
		}
	}
	for i, x := range in.inputs {
		if i == 6 {
			break
		}
		p.small = append(p.small, input{Name: x.Name + "[:4096]", Data: x.Data[: 4*kib : 4*kib]})
	}
	raw := in.inputs[0].Data
	if !in.float32Inputs {
		raw = corpusSlices(rand.New(rand.NewSource(cfg.seed)), datasets.ExaaltDataset1(), 1, scaled(mib, cfg.scale()))[0].Data
	}
	p.floats = make([]float32, len(raw)/4)
	for i := range p.floats {
		p.floats[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	maxBig := 0
	for _, x := range p.big {
		if len(x.Data) > maxBig {
			maxBig = len(x.Data)
		}
	}
	p.buf = make([]byte, 0, flate.CompressBound(maxBig)+lz4.CompressBound(maxBig))

	if err := p.start(maxBig); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// start brings up one of everything: a BF2 and a BF3 library, two
// loopback shards with a direct client and a router, a serial and a
// pipelined MPI world, both transport providers and a checkpoint store.
func (p *probes) start(maxBig int) error {
	var err error
	if p.lib2, err = pedal.Init(pedal.Options{Generation: pedal.BlueField2}); err != nil {
		return err
	}
	if p.lib3, err = pedal.Init(pedal.Options{Generation: pedal.BlueField3}); err != nil {
		return err
	}
	p.router = fleet.NewRouter(fleet.Config{})
	for i := 0; i < 2; i++ {
		sh, err := startShard()
		if err != nil {
			return err
		}
		p.shards = append(p.shards, sh)
		p.router.AddShard(fmt.Sprintf("shard-%d", i), sh.addr)
	}
	if p.direct, err = service.Dial(p.shards[0].addr); err != nil {
		return err
	}
	p.keys = balancedKeys(rand.New(rand.NewSource(p.seed)), p.router, len(p.small))
	for i, pipelined := range []bool{false, true} {
		if p.worlds[i], err = startPingWorld(pipelined, maxBig+kib); err != nil {
			return err
		}
	}
	if p.inproc, err = transport.NewInProcWorld(2); err != nil {
		return err
	}
	if p.tcp, err = transport.NewTCPWorld(2); err != nil {
		return err
	}
	elems := 512 * kib // 4 shards × 2 MiB
	if p.smoke {
		elems /= 16
	}
	p.snaps = datasets.Snapshots{Seed: p.seed, Ranks: 4, Elems: elems}.Epoch(1)
	p.store, err = ckpt.Open(ckpt.NewMemFS(), ckpt.Config{
		Compressor: &ckpt.LibraryCompressor{Lib: p.lib2, Design: pedal.DesignSoCDeflate, Type: pedal.TypeBytes},
	})
	return err
}

func (p *probes) close() error {
	var first error
	note := func(err error) {
		if first == nil {
			first = err
		}
	}
	if p.direct != nil {
		p.direct.Close()
	}
	if p.router != nil {
		p.router.Close()
	}
	note(stopShards(p.shards))
	for _, w := range p.worlds {
		if w != nil {
			note(w.stop())
		}
	}
	for _, ep := range append(p.inproc, p.tcp...) {
		ep.Close()
	}
	for _, l := range []*core.Library{p.lib2, p.lib3} {
		if l != nil {
			l.Finalize()
		}
	}
	return first
}

// walk makes passes over the inputs until d has gone by, and at least
// three, so that the median of a rung is a sample with one on either
// side (a call that allocates tens of MiB now and then stalls for
// hundreds of ms on first-touch page faults). A pass that is not
// recorded goes first: the rungs have buffers of their own (token
// slice, match-finder chains, connections) that the first call sizes.
// The smoke test makes one recorded pass and nothing else.
func (p *probes) walk(d time.Duration) error {
	if p.smoke {
		return p.pass()
	}
	rec := p.rec
	p.rec = newRecorder()
	err := p.pass()
	p.rec, p.tally = rec, tally{}
	deadline := time.Now().Add(d)
	for pass := 0; err == nil && (pass < 3 || time.Now().Before(deadline)); pass++ {
		err = p.pass()
	}
	return err
}

func (p *probes) pass() error {
	for _, in := range p.big {
		if err := p.ladder(in, "", ""); err != nil {
			return fmt.Errorf("ladder %s: %w", in.Name, err)
		}
		if err := p.engineRung(in); err != nil {
			return fmt.Errorf("engine rung %s: %w", in.Name, err)
		}
		if err := p.pipelineRung(in); err != nil {
			return fmt.Errorf("pipeline rung %s: %w", in.Name, err)
		}
		if err := p.messageRungs(in); err != nil {
			return fmt.Errorf("message rungs %s: %w", in.Name, err)
		}
	}
	for i, in := range p.small {
		if err := p.ladder(in, "_4k", p.keys[i]); err != nil {
			return fmt.Errorf("ladder %s: %w", in.Name, err)
		}
	}
	if err := p.sz3Rung(); err != nil {
		return fmt.Errorf("sz3 rung: %w", err)
	}
	if err := p.ckptRung(); err != nil {
		return fmt.Errorf("ckpt rung: %w", err)
	}
	for i := 0; i < 20; i++ {
		if _, err := p.rec.rung(p.rec.newOp(), 0, "service", "ping", "", 0, p.direct.Ping); err != nil {
			return fmt.Errorf("ping: %w", err)
		}
	}
	return nil
}

// ladder walks one input down router → direct client → Library → flate
// → lz77 for SoC_DEFLATE compress, the matching decompress rungs, and
// the LZ4 and CRC kernels beside them. The router rung exists only for
// 4 KiB blocks (suffix "_4k"), the size it is in the path for.
func (p *probes) ladder(in input, suffix, key string) error {
	rec, n := p.rec, len(in.Data)
	opC, opD := rec.newOp(), rec.newOp()
	parent := 0
	var err error
	if key != "" {
		before := shardRequests(p.shards)
		parent, err = rec.rung(opC, 0, "fleet", "compress"+suffix, in.Name, n, func() error {
			_, err := p.router.Compress(fleet.Request{Key: key, Idempotent: true}, pedal.DesignSoCDeflate, pedal.TypeBytes, in.Data)
			return err
		})
		if err != nil {
			return err
		}
		for i, after := range shardRequests(p.shards) {
			p.routed[i] += after - before[i]
		}
	}
	var msg []byte
	if parent, err = rec.rung(opC, parent, "service", "compress"+suffix, in.Name, n, func() (err error) {
		msg, err = p.direct.Compress(pedal.DesignSoCDeflate, pedal.TypeBytes, in.Data)
		return err
	}); err != nil {
		return err
	}
	var rep core.Report
	var local []byte
	if parent, err = rec.rung(opC, parent, "core", "compress"+suffix, in.Name, n, func() (err error) {
		local, rep, err = p.lib2.Compress(pedal.DesignSoCDeflate, pedal.TypeBytes, in.Data)
		return err
	}); err != nil {
		return err
	}
	p.lib2.Release(local)
	p.coreVirtual += rep.Virtual
	p.coreVirtualBytes += n
	parent, _ = rec.rung(opC, parent, "flate", "compress"+suffix, in.Name, n, func() error {
		p.buf = flate.AppendCompress(p.buf[:0], in.Data, flate.DefaultLevel)
		return nil
	})
	rec.rung(opC, parent, "lz77", "tokenize"+suffix, in.Name, n, func() error {
		p.tokens = p.matcher.Tokens(in.Data, lz77.LevelParams(flate.DefaultLevel), p.tokens[:0])
		return nil
	})
	p.tokenCount += len(p.tokens)
	p.tokenBytes += n

	if parent, err = rec.rung(opD, 0, "service", "decompress"+suffix, in.Name, n, func() error {
		_, err := p.direct.Decompress(pedal.SoC, pedal.TypeBytes, msg, n)
		return err
	}); err != nil {
		return err
	}
	if parent, err = rec.rung(opD, parent, "core", "decompress"+suffix, in.Name, n, func() (err error) {
		_, rep, err = p.lib2.Decompress(pedal.SoC, pedal.TypeBytes, msg, n)
		return err
	}); err != nil {
		return err
	}
	p.coreVirtual += rep.Virtual
	p.coreVirtualBytes += n
	_, body, err := core.ParseHeader(msg)
	if err != nil {
		return err
	}
	if _, err = rec.rung(opD, parent, "flate", "decompress"+suffix, in.Name, n, func() error {
		out, err := flate.AppendDecompress(p.buf[:0], body, n)
		p.buf = out[:0]
		return err
	}); err != nil {
		return err
	}

	var packed []byte
	rec.rung(rec.newOp(), 0, "lz4", "compress"+suffix, in.Name, n, func() error {
		packed = lz4.AppendCompress(p.buf[:0], in.Data)
		return nil
	})
	if _, err = rec.rung(rec.newOp(), 0, "lz4", "decompress"+suffix, in.Name, n, func() error {
		_, err := lz4.DecompressLimit(packed, n)
		return err
	}); err != nil {
		return err
	}
	rec.rung(rec.newOp(), 0, "checksum", "crc32"+suffix, in.Name, n, func() error {
		checksum.CRC32(in.Data)
		return nil
	})
	return nil
}

// engineRung asks the BF2 library for C-Engine_DEFLATE both ways and
// reads from the Reports where the work actually ran.
func (p *probes) engineRung(in input) error {
	n := len(in.Data)
	note := func(r core.Report) {
		p.engineAsked++
		if r.Engine == pedal.CEngine {
			p.engineServed++
		}
		if r.Degraded {
			p.degraded++
		} else if r.Fallback {
			p.fallbacks++
		}
	}
	var msg []byte
	op := p.rec.newOp()
	if _, err := p.rec.rung(op, 0, "core", "compress_cengine", in.Name, n, func() error {
		m, r, err := p.lib2.Compress(pedal.DesignCEngineDeflate, pedal.TypeBytes, in.Data)
		msg = m
		note(r)
		return err
	}); err != nil {
		return err
	}
	defer p.lib2.Release(msg)
	_, err := p.rec.rung(op, 0, "core", "decompress_cengine", in.Name, n, func() error {
		_, r, err := p.lib2.Decompress(pedal.CEngine, pedal.TypeBytes, msg, n)
		note(r)
		return err
	})
	return err
}

// pipelineRung compresses one input serially and pipelined on the same
// BF3 library, then decodes the pipelined message.
func (p *probes) pipelineRung(in input) error {
	n := len(in.Data)
	op := p.rec.newOp()
	if _, err := p.rec.rung(op, 0, "core", "compress_serial_bf3", in.Name, n, func() error {
		m, r, err := p.lib3.Compress(pedal.DesignSoCDeflate, pedal.TypeBytes, in.Data)
		p.serialVirtual += r.Virtual
		p.lib3.Release(m)
		return err
	}); err != nil {
		return err
	}
	var msg []byte
	if _, err := p.rec.rung(op, 0, "pipeline", "compress", in.Name, n, func() error {
		m, r, err := p.lib3.CompressPipelined(pedal.DesignSoCDeflate, pedal.TypeBytes, in.Data)
		msg = m
		p.pipelinedVirtual += r.Virtual
		return err
	}); err != nil {
		return err
	}
	defer p.lib3.Release(msg)
	if _, body, err := core.ParseHeader(msg); err == nil {
		if _, count, _, _, _, _, err := pipeline.ParseDescriptor(body); err == nil {
			p.chunks += count
			p.pipelinedOps++
		}
	}
	_, err := p.rec.rung(op, 0, "pipeline", "decompress", in.Name, n, func() error {
		_, _, err := p.lib3.DecompressPipelined(pedal.CEngine, msg, n)
		return err
	})
	return err
}

// messageRungs moves one input through both MPI worlds and both bare
// transport providers.
func (p *probes) messageRungs(in input) error {
	n := len(in.Data)
	for i, call := range []string{"pingpong_serial", "pingpong_pipelined"} {
		w := p.worlds[i]
		v0 := w.comms[0].Clock().Now()
		if _, err := p.rec.rung(p.rec.newOp(), 0, "mpi", call, in.Name, 2*n, func() error {
			_, _, _, err := w.pingPong(in.Data)
			return err
		}); err != nil {
			return err
		}
		if i == 0 {
			p.mpiVirtual += w.comms[0].Clock().Now() - v0
			p.mpiOneways += 2
		}
	}
	for i, eps := range [][]transport.Endpoint{p.inproc, p.tcp} {
		if _, err := p.rec.rung(p.rec.newOp(), 0, "transport", [...]string{"inproc", "tcp"}[i], in.Name, n, func() error {
			if err := eps[0].Send(1, in.Data, 0); err != nil {
				return err
			}
			_, err := eps[1].Recv()
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// sz3Config is what core's SoC_SZ3 design hands the codec.
var sz3Config = sz3.Config{ErrorBound: sz3Bound, Backend: sz3.BackendFastLZ}

func (p *probes) sz3Rung() error {
	n := 4 * len(p.floats)
	op := p.rec.newOp()
	var comp []byte
	if _, err := p.rec.rung(op, 0, "sz3", "compress", "float32 input", n, func() (err error) {
		comp, err = sz3.CompressFloat32(p.floats, sz3Config)
		return err
	}); err != nil {
		return err
	}
	_, err := p.rec.rung(op, 0, "sz3", "decompress", "float32 input", n, func() error {
		_, _, err := sz3.DecompressFloat32(comp)
		return err
	})
	return err
}

func (p *probes) ckptRung() error {
	n := 0
	for _, s := range p.snaps {
		n += len(s)
	}
	p.epoch++
	op := p.rec.newOp()
	if _, err := p.rec.rung(op, 0, "ckpt", "commit", "snapshots", n, func() error {
		_, err := p.store.Commit(p.epoch, p.snaps)
		return err
	}); err != nil {
		return err
	}
	_, err := p.rec.rung(op, 0, "ckpt", "restore", "snapshots", n, func() error {
		_, err := p.store.Restore()
		return err
	})
	return err
}

// getPutNs times Get(64 KiB)+Put pairs on a fresh pool from the given
// number of goroutines at once.
func getPutNs(goroutines, pairs int) float64 {
	pool := mempool.New()
	pool.Prewarm([]int{64 * kib}, goroutines)
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < pairs; i++ {
				pool.Put(pool.Get(64 * kib))
			}
		}()
	}
	wg.Wait()
	return float64(time.Since(t0).Nanoseconds()) / float64(pairs)
}

// connScaling is closed-loop SoC_DEFLATE compress goodput into shard 0
// at nproc connections over the same at one connection, each for d, on
// the first MiB of the big inputs (so that d is many requests whatever
// the workload's message size).
func (p *probes) connScaling(d time.Duration) (float64, error) {
	data := make([][]byte, len(p.big))
	for i, in := range p.big {
		data[i] = in.Data[:min(len(in.Data), mib)]
	}
	rate := func(conns int) (float64, error) {
		clients, err := dialAll(p.shards[0].addr, conns)
		if err != nil {
			return 0, err
		}
		defer closeClients(clients)
		var wg sync.WaitGroup
		errs := make([]error, conns)
		bytes := make([]int64, conns)
		t0 := time.Now()
		for c := range clients {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; ; i++ {
					in := data[i%len(data)]
					if _, errs[c] = clients[c].Compress(pedal.DesignSoCDeflate, pedal.TypeBytes, in); errs[c] != nil {
						return
					}
					bytes[c] += int64(len(in))
					if time.Since(t0) >= d {
						return
					}
				}
			}(c)
		}
		wg.Wait()
		wall := time.Since(t0).Seconds()
		var total int64
		for c := range clients {
			if errs[c] != nil {
				return 0, errs[c]
			}
			total += bytes[c]
		}
		return float64(total) / wall, nil
	}
	one, err := rate(1)
	if err != nil {
		return 0, err
	}
	many, err := rate(p.nproc)
	if err != nil {
		return 0, err
	}
	return many / one, nil
}

// metrics turns the recorded rungs and boundary counts into the
// per-layer metric set. A layer's self time is the median of its rung
// minus the median of the rung below.
func (p *probes) metrics(res *result) {
	rec := p.rec
	perMiB := func(name, layer, call string) float64 {
		v, n := rec.usPerMiB(layer, call)
		res.set(name, v, n)
		return v
	}
	us := func(name, layer, call string) float64 {
		v, n := rec.us(layer, call)
		res.set(name, v, n)
		return v
	}
	diff := func(name string, a, b float64) { res.set(name, a-b, 0) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	tok := perMiB("lz77.tokenize_us_per_mib", "lz77", "tokenize")
	res.set("lz77.tokens_per_kib", ratio(float64(p.tokenCount), float64(p.tokenBytes)/kib), p.tokenBytes/kib)
	fc := perMiB("flate.compress_us_per_mib", "flate", "compress")
	perMiB("flate.decompress_us_per_mib", "flate", "decompress")
	diff("flate.entropy_us_per_mib", fc, tok)
	fc4 := us("flate.compress_us_4k", "flate", "compress_4k")
	perMiB("lz4.compress_us_per_mib", "lz4", "compress")
	perMiB("lz4.decompress_us_per_mib", "lz4", "decompress")
	us("lz4.compress_us_4k", "lz4", "compress_4k")
	perMiB("checksum.crc32_us_per_mib", "checksum", "crc32")
	perMiB("sz3.compress_us_per_mib", "sz3", "compress")
	perMiB("sz3.decompress_us_per_mib", "sz3", "decompress")

	cc := perMiB("core.compress_us_per_mib", "core", "compress")
	perMiB("core.decompress_us_per_mib", "core", "decompress")
	diff("core.self_us_per_mib", cc, fc)
	cc4, _ := rec.us("core", "compress_4k")
	diff("core.self_us_4k", cc4, fc4)
	res.set("core.virtual_us_per_mib", ratio(float64(p.coreVirtual.Nanoseconds())/1e3, float64(p.coreVirtualBytes)/mib), p.coreVirtualBytes/kib)

	pc, _ := rec.usPerMiB("pipeline", "compress")
	serial, _ := rec.usPerMiB("core", "compress_serial_bf3")
	perMiB("pipeline.compress_us_per_mib", "pipeline", "compress")
	perMiB("pipeline.decompress_us_per_mib", "pipeline", "decompress")
	res.set("pipeline.wall_speedup", ratio(serial, pc), 0)
	res.set("pipeline.virtual_speedup", ratio(float64(p.serialVirtual), float64(p.pipelinedVirtual)), p.pipelinedOps)
	res.set("pipeline.chunks_per_op", ratio(float64(p.chunks), float64(p.pipelinedOps)), p.pipelinedOps)

	us("service.ping_us", "service", "ping")
	sc4 := us("service.rtt_us_4k", "service", "compress_4k")
	diff("service.self_us_4k", sc4, cc4)
	sc := perMiB("service.rtt_us_per_mib", "service", "compress")
	diff("service.self_us_per_mib", sc, cc)
	fl4 := us("fleet.call_us_4k", "fleet", "compress_4k")
	diff("fleet.self_us_4k", fl4, sc4)

	perMiB("transport.inproc_us_per_mib", "transport", "inproc")
	perMiB("transport.tcp_us_per_mib", "transport", "tcp")
	// A ping-pong span carries both directions' bytes, so its time per
	// MiB already is the one-way time per MiB.
	ow := perMiB("mpi.oneway_us_per_mib", "mpi", "pingpong_serial")
	owp, _ := rec.usPerMiB("mpi", "pingpong_pipelined")
	ec, _ := rec.usPerMiB("core", "compress_cengine")
	ed, _ := rec.usPerMiB("core", "decompress_cengine")
	diff("mpi.self_us_per_mib", ow, ec+ed)
	res.set("mpi.virtual_oneway_us", ratio(float64(p.mpiVirtual.Nanoseconds())/1e3, float64(p.mpiOneways)), p.mpiOneways)
	res.set("mpi.pipelined_wall_gain", ratio(ow, owp), 0)

	commit, n := rec.mibPerS("ckpt", "commit")
	res.set("ckpt.commit_mb_s", commit, n)
	restore, n := rec.mibPerS("ckpt", "restore")
	res.set("ckpt.restore_mb_s", restore, n)

	res.set("dpu.engine_share", ratio(float64(p.engineServed), float64(p.engineAsked)), p.engineAsked)
	res.set("dpu.fallbacks", float64(p.fallbacks), p.engineAsked)
	res.set("dpu.degraded", float64(p.degraded), p.engineAsked)
	res.set("dpu.engine_resets", float64(p.lib2.EngineHealth().Resets+p.lib3.EngineHealth().Resets), 1)
}

// oneOffs are the probes that are not a rung of any input's ladder:
// allocation counts, the bare pool, Init itself, connection scaling.
func (p *probes) oneOffs(res *result) error {
	in, small := p.big[0], p.small[0]
	// Allocation counts repeat almost exactly, so a few rounds do; big
	// inputs get fewer because each round costs a full compress.
	rounds, pairs, scaling := 4*mib/len(in.Data), 200000, 500*time.Millisecond
	if rounds > 8 {
		rounds = 8
	}
	if p.smoke || rounds < 1 {
		rounds = 1
	}
	if p.smoke {
		pairs, scaling = 1000, 0
	}
	a, _ := allocsPer(rounds, func() { p.buf = flate.AppendCompress(p.buf[:0], in.Data, flate.DefaultLevel)[:0] })
	res.set("flate.allocs_per_op", a, rounds)
	a, _ = allocsPer(rounds, func() {
		if m, _, err := p.lib2.Compress(pedal.DesignSoCDeflate, pedal.TypeBytes, in.Data); err == nil {
			p.lib2.Release(m)
		}
	})
	res.set("core.allocs_per_op", a, rounds)
	a, _ = allocsPer(rounds, func() {
		if m, _, err := p.lib3.CompressPipelined(pedal.DesignSoCDeflate, pedal.TypeBytes, in.Data); err == nil {
			p.lib3.Release(m)
		}
	})
	res.set("pipeline.allocs_per_op", a, rounds)
	a, _ = allocsPer(8*rounds, func() { p.direct.Compress(pedal.DesignSoCDeflate, pedal.TypeBytes, small.Data) })
	res.set("service.allocs_per_op", a, 8*rounds)
	a, k := allocsPer(rounds, func() { sz3.CompressFloat32(p.floats, sz3Config) })
	res.set("sz3.allocs_per_op", a, rounds)
	res.set("sz3.alloc_kib_per_op", k, rounds)

	res.set("mempool.get_put_ns", getPutNs(1, pairs), pairs)
	res.set("mempool.get_put_ns_contended", getPutNs(p.nproc, pairs), pairs*p.nproc)

	scale, err := p.connScaling(scaling)
	if err != nil {
		return fmt.Errorf("conn scaling: %w", err)
	}
	res.set("service.conn_scaling", scale, 2)

	// Counters the servers and the router kept while the rungs ran.
	var sheds uint64
	var most, sum float64
	for i, s := range p.shards {
		sheds += s.srv.Stats().Count(stats.CounterSheds)
		sum += float64(p.routed[i])
		most = math.Max(most, float64(p.routed[i]))
	}
	res.set("service.sheds", float64(sheds), int(sum))
	imbalance := 0.0
	if sum > 0 {
		imbalance = most / (sum / float64(len(p.routed)))
	}
	res.set("fleet.shard_imbalance", imbalance, int(sum))
	rs := p.router.Stats()
	res.set("fleet.failovers", float64(rs.Count(stats.CounterFailovers)), 1)
	res.set("fleet.hedges", float64(rs.Count(stats.CounterHedges)), 1)
	res.set("fleet.sheds", float64(rs.Count(stats.CounterFleetSheds)+rs.Count(stats.CounterQuotaSheds)), 1)
	return nil
}
