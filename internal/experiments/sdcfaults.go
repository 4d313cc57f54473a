package experiments

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"pedal/internal/ckpt"
	"pedal/internal/core"
	"pedal/internal/datasets"
	"pedal/internal/faults"
	"pedal/internal/fleet"
	"pedal/internal/hwmodel"
	"pedal/internal/integrity"
	"pedal/internal/service"
	"pedal/internal/stats"
)

// ExtSDCFaults is the chaos soak for the compute fault domain: silent
// data corruption injected into the compression kernels themselves
// (bit flips, quantizer drift, stale-buffer stomps), on the serial and
// pipelined paths, on the fleet hop and on the checkpoint-compressor
// hop. The corruption is applied *before* any checksum is taken, so
// every post-hoc digest is "valid" — only verified compression (decode
// against the source, or the scalar differential referee) and the
// hop-carried source digests can tell. The headline properties: zero
// data errors delivered to any caller, zero untyped errors (every
// detection surfaces as integrity.ErrCorrupt or succeeds via scalar
// re-execution), 100% of injected corruptions detected under
// VerifyFull, repeat offenders quarantined and clean units readmitted,
// and VerifySampled's steady-state screening staying under a 10%
// throughput overhead.
func ExtSDCFaults(o Options) (Table, error) {
	t := Table{
		ID: "ext-sdcfaults", Title: "Silent-data-corruption resilience: verified compression + hop-carried checksums",
		Columns: []string{"Scenario", "Ops", "Injected", "Detected", "Fallbacks",
			"DataErr", "Untyped", "Quar", "Readmit", "Ovh%"},
		Metrics: map[string]float64{},
	}
	for _, sc := range sdcScenarios(o) {
		if err := runSDCCompute(sc, &t); err != nil {
			return t, fmt.Errorf("scenario %s: %w", sc.name, err)
		}
	}
	if err := runSDCFleetHop(o, &t); err != nil {
		return t, fmt.Errorf("scenario fleet-hop: %w", err)
	}
	if err := runSDCCkptHop(o, &t); err != nil {
		return t, fmt.Errorf("scenario ckpt-hop: %w", err)
	}
	if err := runSDCOverhead(o, &t); err != nil {
		return t, fmt.Errorf("scenario sampled-overhead: %w", err)
	}
	return t, nil
}

// sdcRow records one scenario's tallies into the table.
func sdcRow(t *Table, name string, ops, injected, detected, fallbacks, dataErrs, untyped, quar, readmit int, ovh string) {
	t.Rows = append(t.Rows, []string{
		name, fmt.Sprint(ops), fmt.Sprint(injected), fmt.Sprint(detected),
		fmt.Sprint(fallbacks), fmt.Sprint(dataErrs), fmt.Sprint(untyped),
		fmt.Sprint(quar), fmt.Sprint(readmit), ovh,
	})
	key := func(s string) string { return "sdc_" + name + "_" + s }
	t.Metrics[key("ops")] = float64(ops)
	t.Metrics[key("injected")] = float64(injected)
	t.Metrics[key("detected")] = float64(detected)
	t.Metrics[key("fallbacks")] = float64(fallbacks)
	t.Metrics[key("data_errors")] = float64(dataErrs)
	t.Metrics[key("untyped_errors")] = float64(untyped)
	t.Metrics[key("quarantines")] = float64(quar)
	t.Metrics[key("readmits")] = float64(readmit)
}

// sdcBytes is the lossless workload: compressible structured text with
// a deterministic noise tail, so DEFLATE has real matches to find.
func sdcBytes(n int) []byte {
	out := make([]byte, n)
	x := uint64(0x9e3779b97f4a7c15)
	pattern := []byte("record=%08d level=INFO unit=c-engine queue=deflate payload checksum ok | ")
	pos := 0
	rec := 0
	for pos < n {
		line := fmt.Sprintf(string(pattern), rec)
		rec++
		k := copy(out[pos:], line)
		pos += k
		// Every eighth record carries a short pseudo-random field so the
		// stream is not pathologically compressible.
		if rec%8 == 0 && pos+8 <= n {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			binary.LittleEndian.PutUint64(out[pos:], x)
			pos += 8
		}
	}
	return out
}

// sdcFloats is the lossy workload: a smooth multi-tone float64 field,
// the shape SZ3's predictor is built for.
func sdcFloats(elems int) []byte {
	out := make([]byte, elems*8)
	for i := 0; i < elems; i++ {
		v := math.Sin(float64(i)*0.01) + 0.25*math.Sin(float64(i)*0.103) + 1e-4*float64(i%97)
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

// sdcScenario is one compute-path soak configuration. Every scenario
// runs VerifyFull — the mode whose contract is "no corrupt byte ever
// leaves the library" — with a seeded injector schedule.
type sdcScenario struct {
	name string
	ops  int
	// kind selects the op mix: "serial-bytes" (DEFLATE, engine design),
	// "serial-float" (SZ3 on the SoC), "pipelined" (chunked DEFLATE) or
	// "mixed" (round-robin over all three).
	kind string
	cfg  faults.ComputeFaultConfig
	// wantQuarantine scenarios assert the engine quarantine went through a
	// full quarantine + readmission cycle.
	wantQuarantine bool
}

func sdcScenarios(o Options) []sdcScenario {
	ops := 48
	if o.Quick {
		ops = 20
	}
	return []sdcScenario{
		{name: "serial-flip", ops: ops, kind: "serial-bytes",
			cfg: faults.ComputeFaultConfig{Seed: 21, PKernelFlip: 0.35}},
		{name: "serial-drift", ops: ops, kind: "serial-float",
			cfg: faults.ComputeFaultConfig{Seed: 22, PQuantDrift: 0.35}},
		{name: "pipelined-stomp", ops: ops / 4, kind: "pipelined",
			cfg: faults.ComputeFaultConfig{Seed: 23, PBufferStomp: 0.25}},
		{name: "mixed", ops: ops, kind: "mixed",
			cfg: faults.ComputeFaultConfig{Seed: 24, PKernelFlip: 0.12, PQuantDrift: 0.12, PBufferStomp: 0.12}},
		// A unit that goes hard-bad and then recovers: every kernel
		// execution corrupts until the injection budget runs out, which
		// must drive quarantine, scalar service during the outage, and a
		// half-open readmission once the unit proves itself clean.
		{name: "quarantine-readmit", ops: ops * 2, kind: "serial-bytes", wantQuarantine: true,
			cfg: faults.ComputeFaultConfig{Seed: 25, PKernelFlip: 1.0, MaxInjections: 4}},
	}
}

func runSDCCompute(sc sdcScenario, t *Table) error {
	inj := faults.NewComputeInjector(sc.cfg)
	lib, err := core.Init(core.Options{
		Generation:    hwmodel.BlueField2,
		Verify:        integrity.VerifyFull,
		ComputeFaults: inj,
		ErrorBound:    1e-3,
	})
	if err != nil {
		return err
	}
	defer lib.Finalize()

	text := sdcBytes(192 * 1024)
	big := sdcBytes(1 << 20)
	floats := sdcFloats(48 * 1024)
	var dataErrs, untyped int

	serialBytes := func() {
		d := core.Design{Algo: core.AlgoDeflate, Engine: hwmodel.CEngine}
		msg, _, err := lib.Compress(d, core.TypeBytes, text)
		if err != nil {
			if !errors.Is(err, integrity.ErrCorrupt) {
				untyped++
			}
			return
		}
		out, _, err := lib.Decompress(hwmodel.CEngine, core.TypeBytes, msg, len(text)+64)
		if err != nil || !bytes.Equal(out, text) {
			dataErrs++
		}
	}
	serialFloat := func() {
		d := core.Design{Algo: core.AlgoSZ3, Engine: hwmodel.SoC}
		msg, _, err := lib.Compress(d, core.TypeFloat64, floats)
		if err != nil {
			if !errors.Is(err, integrity.ErrCorrupt) {
				untyped++
			}
			return
		}
		out, _, err := lib.Decompress(hwmodel.SoC, core.TypeFloat64, msg, len(floats)+64)
		if err != nil || len(out) != len(floats) {
			dataErrs++
			return
		}
		// Lossy correctness is the error bound, not byte equality.
		for i := 0; i < len(out); i += 8 {
			want := math.Float64frombits(binary.LittleEndian.Uint64(floats[i:]))
			got := math.Float64frombits(binary.LittleEndian.Uint64(out[i:]))
			if math.Abs(want-got) > 1e-3*1.0000001 {
				dataErrs++
				return
			}
		}
	}
	pipelined := func() {
		d := core.Design{Algo: core.AlgoDeflate, Engine: hwmodel.CEngine}
		msg, _, err := lib.CompressPipelined(d, core.TypeBytes, big)
		if err != nil {
			if !errors.Is(err, integrity.ErrCorrupt) {
				untyped++
			}
			return
		}
		out, _, err := lib.DecompressPipelined(hwmodel.CEngine, msg, len(big)+64)
		if err != nil || !bytes.Equal(out, big) {
			dataErrs++
		}
	}

	for i := 0; i < sc.ops; i++ {
		switch sc.kind {
		case "serial-bytes":
			serialBytes()
		case "serial-float":
			serialFloat()
		case "pipelined":
			pipelined()
		case "mixed":
			switch i % 3 {
			case 0:
				serialBytes()
			case 1:
				serialFloat()
			default:
				pipelined()
			}
		}
	}

	_, injected := inj.Counts()
	bd := lib.TotalBreakdown()
	h := lib.EngineHealth()
	sdcRow(t, sc.name, sc.ops, int(injected),
		int(bd.Count(stats.CounterVerifyMismatches)),
		int(bd.Count(stats.CounterScalarFallbacks)),
		dataErrs, untyped, int(h.Quarantines), int(h.Readmits), "-")
	t.Metrics["sdc_"+sc.name+"_quarantined_end"] = b2f(h.Quarantined)
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// sdcFleetBackend wraps a live pedald client. While armed, its checked
// ops report the typed digest rejection that a response damaged on the
// wire produces client-side (the rejection mechanics themselves are
// pinned by the service-layer unit tests); disarmed, it is transparent.
type sdcFleetBackend struct {
	*service.Client
	armed      *atomic.Bool
	rejections *atomic.Uint64
}

func (b *sdcFleetBackend) corrupt(segment string) ([]byte, error) {
	b.rejections.Add(1)
	return nil, &integrity.CorruptError{Hop: "service.response", Segment: segment, Index: -1, Want: 1, Got: 2}
}

func (b *sdcFleetBackend) CompressChecked(d core.Design, dt core.DataType, data []byte) ([]byte, error) {
	if b.armed.Load() {
		return b.corrupt("compress")
	}
	return b.Client.CompressChecked(d, dt, data)
}

func (b *sdcFleetBackend) DecompressChecked(engine hwmodel.Engine, dt core.DataType, msg []byte, maxOut int) ([]byte, error) {
	if b.armed.Load() {
		return b.corrupt("decompress")
	}
	return b.Client.DecompressChecked(engine, dt, msg, maxOut)
}

// runSDCFleetHop soaks the fleet hop: one shard of a live three-daemon
// fleet starts answering checked requests with damaged bytes. Idempotent
// requests must fail over to a clean shard (no data error delivered),
// the repeat offender must be ejected from routing, and the health
// plane must readmit it once its answers verify clean again.
func runSDCFleetHop(o Options, t *Table) error {
	lib, err := core.Init(core.Options{Generation: hwmodel.BlueField2})
	if err != nil {
		return err
	}
	defer lib.Finalize()

	procs := make([]*fleetShardProc, 3)
	for i := range procs {
		procs[i] = &fleetShardProc{lib: lib}
		if err := procs[i].listen("127.0.0.1:0"); err != nil {
			return err
		}
	}
	defer func() {
		for _, p := range procs {
			p.crash()
		}
	}()

	var armed atomic.Bool
	var rejections atomic.Uint64
	corruptAddr := procs[0].addr
	r := fleet.NewRouter(fleet.Config{
		EjectAfter: 2,
		Dial: func(addr string, _ time.Duration) (fleet.Backend, error) {
			c, derr := service.Dial(addr)
			if derr != nil {
				return nil, derr
			}
			if addr == corruptAddr {
				return &sdcFleetBackend{Client: c, armed: &armed, rejections: &rejections}, nil
			}
			return c, nil
		},
	})
	defer r.Close()
	for i, p := range procs {
		r.AddShard(fmt.Sprintf("s%d", i), p.addr)
	}

	// Keys whose primary is the corruptible shard, so requests hit it
	// first and must win by failover.
	var hotKeys []string
	for i := 0; i < 64 && len(hotKeys) < 4; i++ {
		k := fmt.Sprintf("object-%d", i)
		if r.Primary(k) == "s0" {
			hotKeys = append(hotKeys, k)
		}
	}
	if len(hotKeys) < 2 {
		return fmt.Errorf("no keys route to the corruptible shard")
	}

	data := sdcBytes(96 * 1024)
	design := core.Design{Algo: core.AlgoDeflate, Engine: hwmodel.CEngine}
	var ops, dataErrs, untyped int
	run := func(key string) {
		ops++
		req := fleet.Request{Tenant: "t", Key: key, Class: fleet.Gold, Idempotent: true}
		msg, err := r.CompressChecked(req, design, core.TypeBytes, data)
		if err != nil {
			if !errors.Is(err, integrity.ErrCorrupt) {
				untyped++
			}
			return
		}
		out, _, derr := lib.Decompress(hwmodel.CEngine, core.TypeBytes, msg, len(data)+64)
		if derr != nil || !bytes.Equal(out, data) {
			dataErrs++
		}
	}

	// Phase 1: the shard answers garbage. Every request must still
	// deliver verified-clean bytes (failover), and after EjectAfter
	// consecutive corrupt answers the shard leaves the ring.
	armed.Store(true)
	for i := 0; i < 6; i++ {
		run(hotKeys[i%len(hotKeys)])
	}
	armed.Store(false)
	// Phase 2: the shard is healthy again; the health plane's probe
	// readmits it, and post-readmission traffic is rejection-free.
	r.Poll()
	before := rejections.Load()
	for i := 0; i < 4; i++ {
		run(hotKeys[i%len(hotKeys)])
	}
	if rejections.Load() != before {
		// A readmitted shard answering corrupt again would be a soak bug.
		untyped++
	}

	bd := r.Stats()
	sdcRow(t, "fleet-hop", ops, int(rejections.Load()),
		int(bd.Count(stats.CounterHopsRejected)), 0, dataErrs, untyped,
		int(bd.Count(stats.CounterCoresQuarantined)),
		int(bd.Count(stats.CounterShardReadmits)), "-")
	return nil
}

// sdcCkptCompressor wraps a checked checkpoint compressor and, when
// armed, damages the compressed shard after the source digest was
// taken — the compressor-hop corruption Commit must catch before
// anything reaches disk. Each arming injects exactly once.
type sdcCkptCompressor struct {
	inner ckpt.CheckedCompressor

	mu       sync.Mutex
	armed    bool
	injected int
}

func (c *sdcCkptCompressor) Compress(key string, data []byte) ([]byte, error) {
	return c.inner.Compress(key, data)
}

func (c *sdcCkptCompressor) Decompress(key string, msg []byte, maxOut int) ([]byte, error) {
	return c.inner.Decompress(key, msg, maxOut)
}

func (c *sdcCkptCompressor) CompressChecked(key string, data []byte) ([]byte, uint32, error) {
	msg, crc, err := c.inner.CompressChecked(key, data)
	if err != nil {
		return nil, 0, err
	}
	c.mu.Lock()
	fire := c.armed && len(msg) > 0
	if fire {
		c.armed = false
		c.injected++
	}
	c.mu.Unlock()
	if fire {
		mut := append([]byte(nil), msg...)
		mut[len(mut)/2] ^= 0x10
		return mut, crc, nil
	}
	return msg, crc, nil
}

// runSDCCkptHop soaks the checkpoint-compressor hop: on a subset of
// epochs the compressor hands Commit damaged bytes under a stale source
// digest. The commit must abort typed before staging anything, a clean
// retry must land, and every restore must reproduce the snapshot
// byte-identically.
func runSDCCkptHop(o Options, t *Table) error {
	cycles := 8
	if o.Quick {
		cycles = 4
	}
	lib, err := core.Init(core.Options{Generation: hwmodel.BlueField2})
	if err != nil {
		return err
	}
	defer lib.Finalize()

	design := core.Design{Algo: core.AlgoDeflate, Engine: hwmodel.SoC}
	comp := &sdcCkptCompressor{
		inner: &ckpt.LibraryCompressor{Lib: lib, Design: design, Type: core.TypeBytes},
	}
	fs := ckpt.NewMemFS()
	bd := stats.NewBreakdown()
	st, err := ckpt.Open(fs, ckpt.Config{
		Compressor: comp, Replicas: 1, Retain: cycles + 1,
		Algo: uint8(design.Algo), Stats: bd,
	})
	if err != nil {
		return err
	}

	snap := datasets.Snapshots{Seed: 31, Ranks: 3, Elems: 8 * 1024}
	var ops, detected, commits, dataErrs, untyped int
	for e := uint64(1); e <= uint64(cycles); e++ {
		if e%3 == 2 {
			comp.mu.Lock()
			comp.armed = true
			comp.mu.Unlock()
		}
		ops++
		_, err := st.Commit(e, snap.Epoch(e))
		if err != nil {
			if !errors.Is(err, integrity.ErrCorrupt) {
				untyped++
				continue
			}
			detected++
			// The corruption was transient (one injection per arming): the
			// retry must commit cleanly.
			ops++
			if _, rerr := st.Commit(e, snap.Epoch(e)); rerr != nil {
				untyped++
				continue
			}
		}
		commits++

		// Restart: a fresh store over the same bytes restores and the
		// state matches the snapshot exactly.
		st2, oerr := ckpt.Open(fs, ckpt.Config{Compressor: comp, Replicas: 1, Retain: cycles + 1,
			Algo: uint8(design.Algo)})
		if oerr != nil {
			untyped++
			continue
		}
		cp, rerr := st2.Restore()
		if rerr != nil {
			if !ckpt.IsTyped(rerr) {
				untyped++
			}
			continue
		}
		want := snap.Epoch(cp.Epoch)
		if len(cp.Shards) != len(want) {
			dataErrs++
			continue
		}
		for r := range want {
			if !bytes.Equal(cp.Shards[r], want[r]) {
				dataErrs++
			}
		}
	}

	comp.mu.Lock()
	injected := comp.injected
	comp.mu.Unlock()
	sdcRow(t, "ckpt-hop", ops, injected, detected, 0, dataErrs, untyped, 0, 0, "-")
	t.Metrics["sdc_ckpt-hop_commits"] = float64(commits)
	t.Metrics["sdc_ckpt-hop_hops_rejected"] = float64(bd.Count(stats.CounterHopsRejected))
	return nil
}

// runSDCOverhead measures what VerifySampled's steady-state screening
// costs on the serial DEFLATE hot path: wall-clock throughput with
// verification off versus sampled (1-in-8), best of three trials each
// so scheduler noise does not masquerade as overhead.
func runSDCOverhead(o Options, t *Table) error {
	ops := 24
	if o.Quick {
		ops = 8
	}
	data := sdcBytes(1 << 20)
	d := core.Design{Algo: core.AlgoDeflate, Engine: hwmodel.SoC}
	newLib := func(mode integrity.VerifyMode) (*core.Library, error) {
		return core.Init(core.Options{Generation: hwmodel.BlueField2, Verify: mode})
	}
	libOff, err := newLib(integrity.VerifyOff)
	if err != nil {
		return err
	}
	defer libOff.Finalize()
	libSampled, err := newLib(integrity.VerifySampled)
	if err != nil {
		return err
	}
	defer libSampled.Finalize()
	run := func(lib *core.Library) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < ops; i++ {
			msg, _, err := lib.Compress(d, core.TypeBytes, data)
			if err != nil {
				return 0, err
			}
			lib.Release(msg)
		}
		return time.Since(start), nil
	}
	// Warm both libraries (pools + code paths hot), then interleave the
	// timed trials off/sampled/off/sampled and keep each side's best:
	// ambient load on a shared box (the soak runs all fault domains in
	// one process) drifts over seconds, and interleaving exposes both
	// modes to the same drift instead of letting it land on one side of
	// the ratio. The minimum is the right estimator here — noise only
	// ever adds time.
	if _, err := run(libOff); err != nil {
		return err
	}
	if _, err := run(libSampled); err != nil {
		return err
	}
	off := time.Duration(math.MaxInt64)
	sampled := time.Duration(math.MaxInt64)
	for trial := 0; trial < 5; trial++ {
		el, err := run(libOff)
		if err != nil {
			return err
		}
		if el < off {
			off = el
		}
		if el, err = run(libSampled); err != nil {
			return err
		}
		if el < sampled {
			sampled = el
		}
	}
	pct := (sampled.Seconds() - off.Seconds()) / off.Seconds() * 100
	sdcRow(t, "sampled-overhead", 2*4*ops, 0, 0, 0, 0, 0, 0, 0, fmt.Sprintf("%.1f", pct))
	t.Metrics["sdc_sampled_overhead_pct"] = pct
	return nil
}
