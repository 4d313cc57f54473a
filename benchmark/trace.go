package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"pedal/internal/mempool"
)

// span is one timed call into an exported function of the program,
// recorded by the benchmark from outside. Rungs of one op share OpID;
// a rung's Parent is the span of the rung above it (0 at the top).
type span struct {
	ID      int    `json:"id"`
	OpID    int    `json:"op_id"`
	Parent  int    `json:"parent"`
	Layer   string `json:"layer"`
	Call    string `json:"call"`
	Input   string `json:"input,omitempty"`
	Bytes   int    `json:"bytes"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Err     string `json:"err,omitempty"`
}

func (s span) us() float64 { return float64(s.EndNs-s.StartNs) / 1e3 }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	ops   int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) newOp() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops
}

func (r *recorder) add(op, parent int, layer, call, input string, bytes int, start, end time.Time, err error) int {
	s := span{OpID: op, Parent: parent, Layer: layer, Call: call, Input: input, Bytes: bytes,
		StartNs: start.Sub(r.epoch).Nanoseconds(), EndNs: end.Sub(r.epoch).Nanoseconds()}
	if err != nil {
		s.Err = err.Error()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// rung times f as one span and returns the span's id for the rung below
// to name as its parent.
func (r *recorder) rung(op, parent int, layer, call, input string, bytes int, f func() error) (int, error) {
	t0 := time.Now()
	err := f()
	return r.add(op, parent, layer, call, input, bytes, t0, time.Now(), err), err
}

// each calls f for every error-free span of (layer, call).
func (r *recorder) each(layer, call string, f func(span)) {
	for _, s := range r.spans {
		if s.Layer == layer && s.Call == call && s.Err == "" {
			f(s)
		}
	}
}

// usPerMiB is the median duration per MiB over the spans of a rung.
func (r *recorder) usPerMiB(layer, call string) (float64, int) {
	var v []float64
	r.each(layer, call, func(s span) { v = append(v, s.us()/(float64(s.Bytes)/mib)) })
	return median(v), len(v)
}

// us is the median duration over the spans of a rung.
func (r *recorder) us(layer, call string) (float64, int) {
	var v []float64
	r.each(layer, call, func(s span) { v = append(v, s.us()) })
	return median(v), len(v)
}

// mibPerS is total bytes over total time of a rung.
func (r *recorder) mibPerS(layer, call string) (float64, int) {
	var bytes, us float64
	n := 0
	r.each(layer, call, func(s span) { bytes += float64(s.Bytes); us += s.us(); n++ })
	if us == 0 {
		return 0, 0
	}
	return bytes / mib / (us / 1e6), n
}

func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// procSample is the process accounting read around the spanned phase.
type procSample struct {
	cpu   time.Duration
	pause time.Duration
	alloc uint64
}

func readProc() procSample {
	var ru syscall.Rusage
	var p procSample
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.pause = time.Duration(m.PauseTotalNs)
	p.alloc = m.TotalAlloc
	return p
}

// allocsPer runs f n times and reports heap allocations and KiB per
// call. Everything in the process counts, which is what a round trip
// through an in-process server needs.
func allocsPer(n int, f func()) (allocs, kib float64) {
	f() // warm pools and lazy state
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / 1024 / float64(n)
}

// tracedRun is the -trace 1 run. It measures the workload twice for a
// quarter of the time each, first without and then with a top-level
// span around every op (the ratio of the two goodputs is the tracing
// overhead), and spends the rest walking the workload's inputs down
// the ladder of layers. The merged loop statistics are returned so the
// caller can report attempts and failures.
func tracedRun(cfg config, in *instance, d time.Duration, nproc int, res *result) (loopStats, error) {
	rec := newRecorder()
	plain := in.measure(d/4, nil)

	p0 := readProc()
	spanned := in.measure(d/4, func(o *op, start time.Time, s sample, err error) {
		call := s.lat
		if o.kind == kindMessage {
			call *= 2 // lat is half the ping-pong the span covers
		}
		rec.add(rec.newOp(), 0, "workload", o.kind.String(), o.label, o.bytes, start, start.Add(call), err)
	})
	p1 := readProc()

	pr, err := newProbes(rec, in, cfg, nproc)
	if err != nil {
		return loopStats{}, err
	}
	if err = pr.walk(d / 2); err == nil {
		err = pr.oneOffs(res)
	}
	if cerr := pr.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return loopStats{}, err
	}
	pr.metrics(res)

	wall := spanned.wall.Seconds()
	res.set("proc.cpu_cores_busy", (p1.cpu-p0.cpu).Seconds()/wall, 1)
	res.set("proc.gc_pause_ms", float64(p1.pause-p0.pause)/1e6, 1)
	res.set("proc.alloc_mb_per_s", float64(p1.alloc-p0.alloc)/mib/wall, 1)
	res.set("proc.tracing_overhead", plain.goodput()/spanned.goodput(), len(spanned.samples))
	var lats []float64
	for _, s := range spanned.samples {
		lats = append(lats, float64(s.lat)/float64(time.Millisecond))
	}
	res.set("lat_p90_ms", quantile(lats, 0.90), len(lats))
	res.set("lat_p99_ms", quantile(lats, 0.99), len(lats))

	total := plain
	total.add(spanned)
	res.set("fail_ratio", float64(total.failed)/float64(total.attempted), total.attempted)
	for _, class := range failClasses {
		res.set("fail."+class, float64(total.failures[class]), total.attempted)
	}
	if cfg.spans != "" {
		if err := rec.write(cfg.spans); err != nil {
			return loopStats{}, err
		}
	}
	return total, nil
}

// drainMetrics reports what the workload's own pools and goroutines
// looked like after the drain.
func drainMetrics(pools []mempool.Snapshot, leaked int, res *result) {
	var hits, gets uint64
	var peak, outstanding int64
	for _, p := range pools {
		hits += p.Hits
		gets += p.Hits + p.Misses
		outstanding += p.Outstanding
		if p.PeakBytes > peak {
			peak = p.PeakBytes
		}
	}
	ratio := 0.0
	if gets > 0 {
		ratio = float64(hits) / float64(gets)
	}
	res.set("mempool.hit_ratio", ratio, int(gets))
	res.set("mempool.peak_bytes", float64(peak), len(pools))
	res.set("mempool.outstanding_end", float64(outstanding), len(pools))
	res.set("leak.goroutines", float64(leaked), 1)
}
