package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	"pedal/internal/core"
	"pedal/internal/dpu"
	"pedal/internal/hwmodel"
	"pedal/internal/integrity"
	"pedal/internal/service"
)

type opKind uint8

const (
	kindCompress opKind = iota
	kindDecompress
	kindMessage // one MPI ping-pong
)

func (k opKind) String() string {
	return [...]string{"compress", "decompress", "pingpong"}[k]
}

// sample is what one executed op reports back to the loop.
type sample struct {
	// op is the index of the op in the instance's cycle.
	op int
	// lat is the caller-observed latency of the unit op. For a message
	// it is half the ping-pong; send is then the part rank 0 spent
	// blocked in Send.
	lat, send time.Duration
}

// op is one element of a workload's cycle. run executes it against the
// program, times only the program call, and verifies the output.
type op struct {
	kind  opKind
	label string
	// bytes is the uncompressed payload the op verifies when it
	// succeeds (both directions for a ping-pong).
	bytes int
	run   func(caller int) (sample, error)
}

// instance is one set-up of a workload: inputs generated, program
// initialised, reference cycle run, ready to measure.
type instance struct {
	inputs  []input
	cycle   []op
	callers int
	// ratio is sum(original)/sum(compressed) over the reference cycle.
	ratio float64
	// link says what the bytes crossed.
	link string
	// float32Inputs marks inputs that are little-endian float32 arrays.
	float32Inputs bool
	// libs are the libraries the workload's ops run in; virtualNow sums
	// the modelled DPU time they (or the MPI ranks) have accumulated.
	libs       []*core.Library
	virtualNow func() time.Duration
	// order draws the op order of each cycle (see drawOrder), the same
	// way in every run of one seed.
	order *rand.Rand
	// close drains and releases everything the set-up started.
	close func() error
}

// errMismatch marks an output the benchmark's own check rejected.
var errMismatch = errors.New("benchmark: output mismatch")

// failClasses are the typed-error buckets failures are counted in.
var failClasses = []string{"busy", "deadline", "peer", "remote", "corrupt", "mismatch", "other"}

func classify(err error) string {
	var netErr net.Error
	switch {
	case errors.Is(err, errMismatch):
		return "mismatch"
	case errors.Is(err, integrity.ErrCorrupt):
		return "corrupt"
	case errors.Is(err, service.ErrBusy):
		return "busy"
	case errors.Is(err, dpu.ErrDeadline):
		return "deadline"
	case errors.Is(err, service.ErrRemote):
		return "remote"
	case errors.Is(err, service.ErrPeerDead), errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, net.ErrClosed), errors.As(err, &netErr):
		return "peer"
	}
	return "other"
}

// target is the surface a codec workload drives: a Library, a pipelined
// Library, direct service clients, or the fleet router.
type target interface {
	compress(caller int, key string, d core.Design, dt core.DataType, data []byte) ([]byte, error)
	decompress(caller int, key string, eng hwmodel.Engine, dt core.DataType, msg []byte, maxOut int) ([]byte, error)
	// release hands a compress result back once it has been checked.
	release(msg []byte)
	// digest fingerprints a compress result for the fast-path check.
	digest(msg []byte) uint32
}

// pair is one (input, design) combination of a codec workload; each
// contributes one compress op and one decompress op to the cycle.
type pair struct {
	in     input
	design core.Design
	dt     core.DataType
	// decEngine is the engine the decompress request prefers.
	decEngine hwmodel.Engine
	key       string
}

// sz3Bound is the absolute error bound the lossy designs run at
// (core.Options.ErrorBound zero value).
const sz3Bound = 1e-4

// checkOutput is the full check of a decompressed buffer against the
// original: byte equality, or the per-value bound for SZ3.
func checkOutput(p pair, out []byte) error {
	if p.design.Algo != core.AlgoSZ3 {
		if !bytes.Equal(out, p.in.Data) {
			return fmt.Errorf("%w: %s %v: decompressed bytes differ", errMismatch, p.in.Name, p.design)
		}
		return nil
	}
	if len(out) != len(p.in.Data) {
		return fmt.Errorf("%w: %s %v: %d bytes back, want %d", errMismatch, p.in.Name, p.design, len(out), len(p.in.Data))
	}
	// The bound is checked in float64 with half a float32 ulp of slack
	// for the final rounding of the reconstructed value.
	for i := 0; i+4 <= len(out); i += 4 {
		a := float64(math.Float32frombits(binary.LittleEndian.Uint32(p.in.Data[i:])))
		b := float64(math.Float32frombits(binary.LittleEndian.Uint32(out[i:])))
		if d := math.Abs(a - b); !(d <= sz3Bound+math.Abs(a)*6e-8) {
			return fmt.Errorf("%w: %s %v: value %d off by %g", errMismatch, p.in.Name, p.design, i/4, d)
		}
	}
	return nil
}

// buildCodecCycle runs the reference cycle — every pair compressed,
// decompressed and fully checked through t — and returns the measured
// cycle: one compress and one decompress op per pair. The reference
// cycle doubles as the warm-up: it crosses exactly the calls the
// measured ops cross.
func buildCodecCycle(t target, pairs []pair) ([]op, float64, error) {
	var cycle []op
	var orig, comp int
	for _, p := range pairs {
		p := p
		msg, err := t.compress(0, p.key, p.design, p.dt, p.in.Data)
		if err != nil {
			return nil, 0, fmt.Errorf("reference compress %s %v: %w", p.in.Name, p.design, err)
		}
		out, err := t.decompress(0, p.key, p.decEngine, p.dt, msg, len(p.in.Data))
		if err != nil {
			return nil, 0, fmt.Errorf("reference decompress %s %v: %w", p.in.Name, p.design, err)
		}
		if err := checkOutput(p, out); err != nil {
			return nil, 0, err
		}
		ref := append([]byte(nil), msg...)
		msgDigest := t.digest(ref)
		t.release(msg)
		inDigest := crc32.ChecksumIEEE(p.in.Data)
		orig += len(p.in.Data)
		comp += len(ref)
		label := fmt.Sprintf("%s %v", p.in.Name, p.design)

		cycle = append(cycle, op{
			kind: kindCompress, label: label + " compress", bytes: len(p.in.Data),
			run: func(c int) (sample, error) {
				t0 := time.Now()
				msg, err := t.compress(c, p.key, p.design, p.dt, p.in.Data)
				s := sample{lat: time.Since(t0)}
				if err != nil {
					return s, err
				}
				defer t.release(msg)
				if t.digest(msg) == msgDigest {
					return s, nil
				}
				// The message differs from the reference: it is still
				// right if it decodes to the input.
				out, err := t.decompress(c, p.key, p.decEngine, p.dt, msg, len(p.in.Data))
				if err != nil {
					return s, fmt.Errorf("%w: %s: changed message does not decode: %v", errMismatch, label, err)
				}
				return s, checkOutput(p, out)
			},
		}, op{
			kind: kindDecompress, label: label + " decompress", bytes: len(p.in.Data),
			run: func(c int) (sample, error) {
				t0 := time.Now()
				out, err := t.decompress(c, p.key, p.decEngine, p.dt, ref, len(p.in.Data))
				s := sample{lat: time.Since(t0)}
				if err != nil {
					return s, err
				}
				if p.design.Algo != core.AlgoSZ3 && crc32.ChecksumIEEE(out) == inDigest {
					return s, nil
				}
				return s, checkOutput(p, out)
			},
		})
	}
	return cycle, float64(orig) / float64(comp), nil
}

// drawOrder draws the next cycle's op order into perm: compress and
// decompress requests alternate (1 : 1 by request), each kind in a
// freshly drawn order; ping-pongs, which have no kinds, are simply
// shuffled. Alternating keeps the traffic mix the same from one moment
// to the next: with callers queueing on one library, whether a request
// waits behind a compress (35 ms) or a decompress (8 ms) would otherwise
// be luck of the draw and would dominate its latency.
func (in *instance) drawOrder(perm []int) []int {
	var byKind [3][]int
	for i, o := range in.cycle {
		byKind[o.kind] = append(byKind[o.kind], i)
	}
	for _, list := range byKind {
		in.order.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	}
	perm = perm[:0]
	comp, dec := byKind[kindCompress], byKind[kindDecompress]
	for i := 0; i < len(comp) || i < len(dec); i++ {
		if i < len(comp) {
			perm = append(perm, comp[i])
		}
		if i < len(dec) {
			perm = append(perm, dec[i])
		}
	}
	return append(perm, byKind[kindMessage]...)
}

// loopStats is what one closed-loop measurement yields.
type loopStats struct {
	wall      time.Duration
	cycles    int
	samples   []sample // successful ops only
	attempted int
	failed    int
	failures  map[string]int
	firstErr  error
	goodBytes int64
	virtual   time.Duration
}

func (s loopStats) goodput() float64 {
	return float64(s.goodBytes) / mib / s.wall.Seconds()
}

// add folds o into s: the statistics of another caller of the same
// loop, or of another loop over the same instance.
func (s *loopStats) add(o loopStats) {
	s.wall += o.wall
	s.cycles += o.cycles
	s.samples = append(s.samples, o.samples...)
	s.attempted += o.attempted
	s.failed += o.failed
	if s.failures == nil {
		s.failures = map[string]int{}
	}
	for k, v := range o.failures {
		s.failures[k] += v
	}
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
	s.goodBytes += o.goodBytes
	s.virtual += o.virtual
}

// measure drives the instance closed-loop: each of its callers takes
// the next op of the cycle, waits for the reply, checks it, and takes
// the next. Once d has passed the loop runs on to the end of the cycle
// it is in, so every run executes whole cycles and nothing else. span,
// when non-nil, is told about every op (the traced run's top-level
// spans).
func (in *instance) measure(d time.Duration, span func(o *op, start time.Time, s sample, err error)) loopStats {
	n := len(in.cycle)
	var (
		mu     sync.Mutex
		next   int
		stopAt = math.MaxInt
		perm   []int
	)
	v0 := in.virtualNow()
	start := time.Now()
	deadline := start.Add(d)
	// take hands out the next op of the current cycle's order, or -1
	// once the cycle in which the deadline passed (at least one) is
	// complete.
	take := func() int {
		mu.Lock()
		defer mu.Unlock()
		if stopAt == math.MaxInt && next >= n && !time.Now().Before(deadline) {
			stopAt = (next + n - 1) / n * n
		}
		if next >= stopAt {
			return -1
		}
		if next%n == 0 {
			perm = in.drawOrder(perm)
		}
		next++
		return perm[(next-1)%n]
	}
	per := make([]loopStats, in.callers)
	var wg sync.WaitGroup
	for c := 0; c < in.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &per[c]
			st.failures = map[string]int{}
			for {
				i := take()
				if i < 0 {
					return
				}
				o := &in.cycle[i]
				t0 := time.Now()
				s, err := o.run(c)
				s.op = i
				if span != nil {
					span(o, t0, s, err)
				}
				if err != nil {
					st.failed++
					st.failures[classify(err)]++
					if st.firstErr == nil {
						st.firstErr = fmt.Errorf("%s: %w", o.label, err)
					}
					continue
				}
				st.samples = append(st.samples, s)
				st.goodBytes += int64(o.bytes)
			}
		}(c)
	}
	wg.Wait()
	out := loopStats{wall: time.Since(start), virtual: in.virtualNow() - v0, attempted: next, cycles: next / n}
	for _, st := range per {
		out.add(st)
	}
	return out
}

// librariesVirtual sums the modelled time the libraries have charged.
func librariesVirtual(libs []*core.Library) func() time.Duration {
	return func() time.Duration {
		var d time.Duration
		for _, l := range libs {
			d += l.TotalBreakdown().Total()
		}
		return d
	}
}
