// Command benchmark is PEDAL's wall-clock benchmark: six workloads from
// codec to fleet, measured end to end (-trace 0) and layer by layer
// (-trace 1). See README.md in this directory for the workloads, the
// metrics and what each is expected to move.
//
//	benchmark -workload lib-mixed-1m -seed 1 -seconds 10 -trace 0
//	benchmark -compare base.jsonl new.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for slice offsets, op order, shard keys and the random block")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "seconds to measure after set-up (the run ends at the next cycle boundary)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	fs.BoolVar(&cfg.smoke, "smoke", false, "shrink inputs 16x and run one cycle (self-test)")
	artifacts := fs.String("artifacts", "", "directory to append the full result to (results.jsonl) and write spans into")
	compare := fs.Bool("compare", false, "compare two result sets: -compare BASE.jsonl NEW.jsonl")
	setupChild := fs.Bool("setup-only", false, "set the workload up once, print the seconds it took, and exit (used by the benchmark itself)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare BASE.jsonl NEW.jsonl")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if cfg.workload == "" || fs.NArg() != 0 || *trace < 0 || *trace > 1 || cfg.seconds <= 0 {
		fs.Usage()
		return 2
	}
	if *setupChild {
		if err := setupOnly(cfg, stdout); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	cfg.trace = *trace == 1
	if *artifacts != "" {
		if err := os.MkdirAll(*artifacts, 0o777); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if cfg.trace {
			cfg.spans = filepath.Join(*artifacts, "spans-"+cfg.workload+".jsonl")
		}
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *artifacts != "" {
		if err := appendResult(filepath.Join(*artifacts, "results.jsonl"), res); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if err := report(stdout, res); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func appendResult(path string, res *result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o666)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints the result for people, then the driver's one-line JSON
// object as the last line.
func report(w io.Writer, res *result) error {
	p := res.Provenance
	why := ""
	for _, ws := range workloadSpecs {
		if ws.Name == res.Workload {
			why = ws.Why
		}
	}
	fmt.Fprintf(w, "# workload %s: %s\n", res.Workload, why)
	fmt.Fprintf(w, "# seed=%d input_digest=%s nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		p.Seed, p.InputDigest, p.NProc, p.GOMAXPROCS, p.GoVersion, p.Commit)
	fmt.Fprintf(w, "# load: closed loop, %d caller(s), cycle of %d ops; %d cycles in %.3f s measured (%g s asked); %s\n",
		p.Callers, p.CycleOps, p.Cycles, p.MeasuredS, p.Seconds, p.Link)
	fmt.Fprintln(w, "# clocks: wall = host time around calls into the program; virtual = hwmodel/simclock modelled DPU time;")
	fmt.Fprintln(w, "#         exact = fixed by inputs and code; proc = OS and Go runtime accounting")
	specs := endToEnd
	if res.Trace == 1 {
		specs = perLayer
	}
	for _, m := range specs {
		v, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		bound := ""
		if m.Bound > 0 {
			bound = fmt.Sprintf("  may worsen by %g%%", 100*m.Bound)
		}
		fmt.Fprintf(w, "%-30s %16.6g %-7s [%s] n=%d%s\n", m.Name, v.Value, v.Unit, v.Clock, v.N, bound)
	}
	classes := make([]string, 0, len(res.Failures))
	for k, n := range res.Failures {
		classes = append(classes, fmt.Sprintf("%s=%d", k, n))
	}
	sort.Strings(classes)
	fmt.Fprintf(w, "# ops: %d attempted, %d failed %s\n", res.Attempted, res.Failed, strings.Join(classes, " "))
	for _, n := range res.Notes {
		fmt.Fprintln(w, "# note:", n)
	}
	type driverMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]driverMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]driverMetric{}}
	for _, m := range specs {
		v := res.Metrics[m.Name]
		line.Metrics[m.Name] = driverMetric{v.Value, v.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}
