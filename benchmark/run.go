package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"pedal"
	"pedal/internal/mempool"
)

// setupRepeats is how many times an untraced run sets the workload up;
// setup_s is the median, and the first set-up is the one measured.
const setupRepeats = 3

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// smoke shrinks inputs 16× and runs one cycle: the self-test's mode.
	smoke bool
	// spans, when set, receives the traced run's spans as JSON lines.
	spans string
}

// metricValue is one reported number. Only Value and Unit go into the
// driver's result line; the rest is for people and for -compare.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Clock string  `json:"clock,omitempty"`
	N     int     `json:"n,omitempty"`
}

// provenance records what produced a result.
type provenance struct {
	Seed        int64   `json:"seed"`
	InputDigest string  `json:"input_digest"`
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	Link        string  `json:"link"`
	Callers     int     `json:"callers"`
	Seconds     float64 `json:"seconds_asked"`
	MeasuredS   float64 `json:"seconds_measured"`
	Cycles      int     `json:"cycles"`
	CycleOps    int     `json:"cycle_ops"`
}

// result is one run of one workload.
type result struct {
	Workload   string                 `json:"workload"`
	Trace      int                    `json:"trace"`
	Provenance provenance             `json:"provenance"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Failures   map[string]int         `json:"failures,omitempty"`
	Notes      []string               `json:"notes,omitempty"`
	Metrics    map[string]metricValue `json:"metrics"`
}

// commit is stamped by run.sh (-ldflags -X main.commit=...).
var commit = "unknown"

func (c config) scale() int {
	if c.smoke {
		return 16
	}
	return 1
}

func setupWorkload(name string, seed int64, scale, nproc int) (*instance, error) {
	switch name {
	case "lib-mixed-1m":
		return setupLibMixed(seed, scale)
	case "lib-bulk-8m":
		return setupLibBulk(seed, scale)
	case "lib-lossy-4m":
		return setupLibLossy(seed, scale)
	case "svc-rpc-4k":
		return setupSvcRPC(seed, scale, nproc)
	case "svc-conc-1m":
		return setupSvcConc(seed, scale, nproc)
	case "mpi-pingpong-1m":
		return setupMPI(seed, scale)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
}

func workloadNames() []string {
	names := make([]string, len(workloadSpecs))
	for i, w := range workloadSpecs {
		names[i] = w.Name
	}
	return names
}

// run executes one workload once and returns its result. An error means
// the run could not be made at all; failed ops and leaks are reported in
// the result instead.
func run(cfg config) (*result, error) {
	nproc := runtime.NumCPU()
	baseGoroutines := runtime.NumGoroutine()

	res := &result{Workload: cfg.workload, Metrics: map[string]metricValue{}}
	if cfg.trace {
		// Init costs most in a process that has allocated nothing yet,
		// which is where set-up pays for it; so it is timed first.
		t0 := time.Now()
		lib, err := pedal.Init(pedal.Options{})
		if err != nil {
			return nil, err
		}
		lib.Finalize()
		res.set("core.init_ms", float64(time.Since(t0))/float64(time.Millisecond), 1)
	}

	t0 := time.Now()
	in, err := setupWorkload(cfg.workload, cfg.seed, cfg.scale(), nproc)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setups := []float64{time.Since(t0).Seconds()}
	runtime.GC()

	res.Provenance = provenance{
		Seed: cfg.seed, InputDigest: inputDigest(in.inputs),
		NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Link: in.link, Callers: in.callers,
		Seconds: cfg.seconds, CycleOps: len(in.cycle),
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.smoke {
		d = 0
	}

	var total loopStats
	if cfg.trace {
		res.Trace = 1
		if total, err = tracedRun(cfg, in, d, nproc, res); err != nil {
			in.close()
			return nil, err
		}
	} else {
		total = in.measure(d, nil)
		endToEndMetrics(in, total, res)
	}
	res.Provenance.MeasuredS = total.wall.Seconds()
	res.Provenance.Cycles = total.cycles
	res.Attempted = total.attempted
	res.Failed = total.failed
	res.Failures = total.failures
	if total.firstErr != nil {
		res.Notes = append(res.Notes, "first failure: "+total.firstErr.Error())
	}

	// Drain: everything the set-up started must stop, every pooled
	// buffer must be back, and no goroutine may outlive the close.
	if err := in.close(); err != nil {
		res.Failed++
		res.Notes = append(res.Notes, "drain: "+err.Error())
	}
	pools := poolSnapshots(in)
	if !cfg.trace {
		// setup_s is the median of setupRepeats set-ups, each in a fresh
		// process like the one a user starts: this process's own, and
		// the rest in children that set up, report the time and exit.
		for len(setups) < setupRepeats && !cfg.smoke {
			s, err := setupInChild(cfg)
			if err != nil {
				return nil, fmt.Errorf("repeated set-up: %w", err)
			}
			setups = append(setups, s)
		}
		res.set("setup_s", median(setups), len(setups))
	}
	var outstanding int64
	for _, p := range pools {
		outstanding += p.Outstanding
	}
	// More draws than returns is a leak and fails the run. The reverse
	// happens at the seed on every C-Engine compress (core hands the
	// engine's heap-allocated output to Pool.Put) and is only noted.
	if outstanding > 0 {
		res.Failed++
		res.Notes = append(res.Notes, fmt.Sprintf("mempool: %d buffers leaked (still outstanding after drain)", outstanding))
	} else if outstanding < 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("mempool: outstanding is %d after drain (more Puts than Gets; not a leak)", outstanding))
	}
	leaked := leakedGoroutines(baseGoroutines)
	if leaked > 0 {
		res.Failed++
		res.Notes = append(res.Notes, fmt.Sprintf("%d goroutines still running after drain", leaked))
	}
	if cfg.trace {
		drainMetrics(pools, leaked, res)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// setupOnly is the child side of setupInChild: one set-up, its time in
// seconds on standard output, drain, exit.
func setupOnly(cfg config, stdout io.Writer) error {
	t0 := time.Now()
	in, err := setupWorkload(cfg.workload, cfg.seed, cfg.scale(), runtime.NumCPU())
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, time.Since(t0).Seconds())
	return in.close()
}

// setupInChild times one set-up of the workload in a fresh process and
// waits for that process to end.
func setupInChild(cfg config) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-workload", cfg.workload, "-seed", strconv.FormatInt(cfg.seed, 10), "-setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

func poolSnapshots(in *instance) []mempool.Snapshot {
	out := make([]mempool.Snapshot, len(in.libs))
	for i, l := range in.libs {
		out[i] = l.PoolSnapshot()
	}
	return out
}

// leakedGoroutines waits for the goroutine count to return to base and
// reports how many are left over.
func leakedGoroutines(base int) int {
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine() - base
		if n <= 0 {
			return 0
		}
		if time.Now().After(deadline) {
			return n
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (r *result) set(name string, v float64, n int) {
	spec, ok := findSpec(endToEnd, name)
	if !ok {
		if spec, ok = findSpec(perLayer, name); !ok {
			panic("benchmark: metric " + name + " is not in spec.go")
		}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // nothing was measured; JSON has no spelling for these
	}
	r.Metrics[name] = metricValue{Value: v, Unit: spec.Unit, Clock: spec.Clock, N: n}
}

// endToEndMetrics fills the -trace 0 metric set, bar setup_s, from one
// measurement.
func endToEndMetrics(in *instance, s loopStats, res *result) {
	// Each op of the cycle has one latency per cycle; the median over
	// cycles is that op's latency. A GC pause or a scheduler hiccup in
	// one cycle then moves nothing, which it would in a sum of all
	// samples. For a ping-pong, send is the sender's share of the
	// one-way latency and the rest is the receiver's.
	lat := make([][]float64, len(in.cycle))
	send := make([][]float64, len(in.cycle))
	for _, x := range s.samples {
		lat[x.op] = append(lat[x.op], float64(x.lat)/float64(time.Millisecond))
		send[x.op] = append(send[x.op], float64(x.send)/float64(time.Millisecond))
	}
	var compMs, decMs, latMs, compMiB, decMiB, allMiB float64
	for i, o := range in.cycle {
		m := median(lat[i])
		latMs += m / float64(len(in.cycle))
		opMiB := float64(o.bytes) / mib
		allMiB += opMiB
		switch o.kind {
		case kindCompress:
			compMs += m
			compMiB += opMiB
		case kindDecompress:
			decMs += m
			decMiB += opMiB
		case kindMessage:
			// bytes counts both directions; one way moves half.
			sm := median(send[i])
			compMs += sm
			decMs += m - sm
			compMiB += opMiB / 2
			decMiB += opMiB / 2
		}
	}
	res.set("goodput_mb_s", s.goodput(), len(s.samples))
	res.set("compress_ms_per_mib", compMs/compMiB, len(s.samples))
	res.set("decompress_ms_per_mib", decMs/decMiB, len(s.samples))
	res.set("lat_p50_ms", latMs, len(s.samples))
	res.set("compress_ratio", in.ratio, len(in.cycle))
	res.set("virtual_us_per_mib", float64(s.virtual.Nanoseconds())/1e3/(allMiB*float64(s.cycles)), s.attempted)
	res.set("peak_rss_mb", peakRSSMiB(), 1)
}

// peakRSSMiB reads the process's high-water resident set size.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	// No procfs: fall back to what the Go runtime has obtained from the
	// OS, an upper bound on the heap's share of RSS.
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / mib
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the linear-interpolation quantile of v (v is not kept in
// order). It returns 0 for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
