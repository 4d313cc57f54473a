package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readResults loads a result set: one JSON result per line, as run.sh
// appends them to results.jsonl.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// values collects one metric's values on one workload across a set.
func values(set []result, workload, metric string) []float64 {
	var v []float64
	for _, r := range set {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
			v = append(v, m.Value)
		}
	}
	return v
}

// spread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(v, n=4) gives — the rule the driver applies.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// verdict applies one metric's bound to a base and a new set of values.
// worse is the share of the base median by which the new median is
// worse (negative when it is better).
func verdict(m metricSpec, base, cur []float64) (v string, worse, wide float64) {
	b, c := median(base), median(cur)
	if b != 0 {
		worse = (c - b) / b
		if m.Better == "higher" {
			worse = -worse
		}
	}
	wide = spread(base)
	if s := spread(cur); s > wide {
		wide = s
	}
	switch {
	case m.Bound == 0:
		v = "-"
	case worse > m.Bound && worse > wide:
		v = "regressed"
	case wide > m.Bound:
		v = "unresolved"
	default:
		v = "ok"
	}
	return v, worse, wide
}

// compareFiles prints one row per (metric, workload) present in both
// sets and returns 1 when any row regressed.
func compareFiles(basePath, curPath string, stdout, stderr io.Writer) int {
	base, err := readResults(basePath)
	if err == nil && len(base) == 0 {
		err = fmt.Errorf("%s: no results", basePath)
	}
	var cur []result
	if err == nil {
		cur, err = readResults(curPath)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%-30s %-16s %-10s %14s %14s %9s %8s %7s  %s\n",
		"metric", "workload", "verdict", "base median", "new median", "new/base", "spread", "bound", "runs")
	regressed := 0
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			for _, w := range workloadSpecs {
				b, c := values(base, w.Name, m.Name), values(cur, w.Name, m.Name)
				if len(b) == 0 || len(c) == 0 {
					continue
				}
				v, _, wide := verdict(m, b, c)
				if v == "regressed" {
					regressed++
				}
				ratio := 0.0
				if mb := median(b); mb != 0 {
					ratio = median(c) / mb
				}
				bound := "-"
				if m.Bound > 0 {
					sign := "+"
					if m.Better == "higher" {
						sign = "-"
					}
					bound = fmt.Sprintf("%s%g%%", sign, 100*m.Bound)
				}
				fmt.Fprintf(stdout, "%-30s %-16s %-10s %14.6g %14.6g %9.4f %7.2f%% %7s  %d/%d %s [%s]\n",
					m.Name, w.Name, v, median(b), median(c), ratio, 100*wide, bound, len(b), len(c), m.Unit, m.Clock)
			}
		}
	}
	if regressed > 0 {
		fmt.Fprintf(stdout, "# %d regressed\n", regressed)
		return 1
	}
	return 0
}
