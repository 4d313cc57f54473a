package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// driverLine is the last line of a run's standard output.
type driverLine struct {
	Correct   *bool `json:"correct"`
	Attempted *int  `json:"attempted"`
	Failed    *int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// TestMain lets the test binary stand in for the benchmark command:
// with the marker set it runs realMain on its arguments and exits.
func TestMain(m *testing.M) {
	if os.Getenv(childMarker) != "" {
		os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

const childMarker = "PEDAL_BENCHMARK_TEST_CHILD"

// smoke runs one workload in smoke mode, in a process of its own as the
// driver does, and returns its parsed result line. One process per run
// is also what keeps this fast: pedal.Init pre-warms ~292 MiB of pool
// buffers per library, and a process that has already freed one such
// set pays for the page faults of the next.
func smoke(t *testing.T, workload, trace string) driverLine {
	t.Helper()
	cmd := exec.Command(os.Args[0], "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace, "-smoke")
	cmd.Env = append(os.Environ(), childMarker+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s trace=%s: %v\n%s%s", workload, trace, err, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	var line driverLine
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("%s trace=%s: last line is not the result object: %v\n%s", workload, trace, err, lines[len(lines)-1])
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil || line.Metrics == nil {
		t.Fatalf("%s trace=%s: result object lacks a key: %s", workload, trace, lines[len(lines)-1])
	}
	if !*line.Correct || *line.Failed != 0 || *line.Attempted < 1 {
		t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", workload, trace, *line.Correct, *line.Attempted, *line.Failed)
	}
	return line
}

func checkMetrics(t *testing.T, what string, line driverLine, specs []metricSpec) {
	t.Helper()
	if len(line.Metrics) != len(specs) {
		t.Errorf("%s: %d metrics, want %d", what, len(line.Metrics), len(specs))
	}
	for _, m := range specs {
		got, ok := line.Metrics[m.Name]
		switch {
		case !ok || got.Value == nil:
			t.Errorf("%s: metric %s missing", what, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", what, m.Name, got.Unit, m.Unit)
		case math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0):
			t.Errorf("%s: metric %s is %v", what, m.Name, *got.Value)
		case m.Bound > 0 && *got.Value <= 0:
			t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", what, m.Name, *got.Value)
		}
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloadSpecs {
		checkMetrics(t, w.Name+" end-to-end", smoke(t, w.Name, "0"), endToEnd)
	}
	// The traced run walks the same ladder whatever the workload; one
	// byte workload and the float one cover its input handling.
	for _, w := range []string{"svc-rpc-4k", "lib-lossy-4m"} {
		checkMetrics(t, w+" per-layer", smoke(t, w, "1"), perLayer)
	}
}

func TestSpecWithinContract(t *testing.T) {
	if n := len(workloadSpecs); n < 2 || n > 8 {
		t.Errorf("%d workloads, contract allows 2 to 8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, contract allows 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1 to 128", n)
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloadSpecs {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		check(m.Name)
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if m, ok := findSpec(endToEnd, "setup_s"); !ok || m.Unit != "s" || m.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better")
	}
}

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json and spec.go one
// contract: the driver reads the first, the program prints the second.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []workloadSpec
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloadSpecs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(doc.Workloads), len(workloadSpecs))
	}
	for i, w := range workloadSpecs {
		if doc.Workloads[i] != w {
			t.Errorf("workload %d: BENCHMARK.json has %+v, spec.go %+v", i, doc.Workloads[i], w)
		}
	}
	same := func(what string, got []jsonMetric, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", what, len(got), len(want))
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, spec.go %s %s %s %v", what, i, g, m.Name, m.Unit, m.Better, m.Bound)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

func TestSeedFixesInputs(t *testing.T) {
	gen := func(seed int64) []input { return mixedCorpora(rand.New(rand.NewSource(seed)), 64*kib) }
	a, b, c := gen(3), gen(3), gen(4)
	if inputDigest(a) != inputDigest(b) {
		t.Errorf("seed 3 gave two digests: %s and %s", inputDigest(a), inputDigest(b))
	}
	if inputDigest(a) == inputDigest(c) {
		t.Errorf("seeds 3 and 4 gave the same digest %s", inputDigest(a))
	}
	sameOffsets := 0
	for i := range a {
		if a[i].Name == c[i].Name {
			sameOffsets++
		}
	}
	// Only the random block has no offset in its name.
	if sameOffsets > 1 {
		t.Errorf("seeds 3 and 4 chose the same offset for %d of %d inputs", sameOffsets, len(a))
	}
}

func TestSpreadIsPythonsQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{3}); got != 0 {
		t.Errorf("spread of one value = %v", got)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, goodput ...float64) string {
		var buf bytes.Buffer
		for _, g := range goodput {
			r := result{Workload: "lib-mixed-1m", Correct: true, Attempted: 1, Metrics: map[string]metricValue{
				"goodput_mb_s": {Value: g, Unit: "MiB/s"},
				"lat_p50_ms":   {Value: 2, Unit: "ms"},
			}}
			if err := json.NewEncoder(&buf).Encode(r); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o666); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.jsonl", 100, 101, 99, 100)
	for _, tc := range []struct {
		name, cur string
		code      int
		verdict   string
	}{
		{"itself", base, 0, "ok"},
		{"within the bound", write("near.jsonl", 95, 96, 94, 95), 0, "ok"},
		{"slower than the bound", write("slow.jsonl", 80, 81, 79, 80), 1, "regressed"},
		{"spread wider than the bound", write("wide.jsonl", 70, 130, 95, 105), 0, "unresolved"},
	} {
		var stdout, stderr bytes.Buffer
		code := compareFiles(base, tc.cur, &stdout, &stderr)
		if code != tc.code {
			t.Errorf("%s: exit %d, want %d\n%s%s", tc.name, code, tc.code, stdout.String(), stderr.String())
		}
		rows := 0
		for _, line := range strings.Split(stdout.String(), "\n") {
			f := strings.Fields(line)
			if len(f) < 3 || f[1] != "lib-mixed-1m" {
				continue
			}
			rows++
			want := "ok"
			if f[0] == "goodput_mb_s" {
				want = tc.verdict
			}
			if f[2] != want {
				t.Errorf("%s: %s is %q, want %q", tc.name, f[0], f[2], want)
			}
		}
		if rows != 2 {
			t.Errorf("%s: %d rows, want 2\n%s", tc.name, rows, stdout.String())
		}
	}
}
