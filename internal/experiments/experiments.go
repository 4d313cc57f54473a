// Package experiments regenerates every table and figure of the paper's
// evaluation (§V): per-experiment runners produce the same rows/series
// the paper reports, from the same workloads (synthetic dataset
// equivalents), through the full PEDAL stack. cmd/pedalbench prints
// them; the root bench_test.go wraps each in a testing.B benchmark;
// EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Options tunes experiment execution.
type Options struct {
	// Quick caps dataset sizes (2 MiB prefixes) and iteration counts so
	// the whole suite runs in seconds; the CLI defaults to full sizes.
	Quick bool
}

// capBytes returns the dataset prefix size limit.
func (o Options) capBytes() int {
	if o.Quick {
		return 2 << 20
	}
	return math.MaxInt
}

func (o Options) iters() int {
	if o.Quick {
		return 1
	}
	return 3
}

// Table is one regenerated table or figure: rows of formatted cells plus
// machine-readable metrics for tests and EXPERIMENTS.md.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	// Metrics holds named scalar results (speedups, fractions) keyed by
	// a stable identifier; tests assert the paper's shapes on these.
	Metrics map[string]float64
}

// String renders the table as aligned text.
func (t Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	if len(t.Metrics) > 0 {
		keys := make([]string, 0, len(t.Metrics))
		for k := range t.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sb.WriteString("-- metrics --\n")
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s = %.3f\n", k, t.Metrics[k])
		}
	}
	return sb.String()
}

// Runner executes one experiment.
type Runner struct {
	ID    string
	Title string
	Run   func(Options) (Table, error)
}

// Runners lists every experiment in the paper's order.
func Runners() []Runner {
	return []Runner{
		{"table4", "Datasets (Table IV)", func(o Options) (Table, error) { return Table4(o), nil }},
		{"fig7a", "Lossless time distribution on BlueField-2 (Fig. 7a)", func(o Options) (Table, error) { return Fig7(o, false) }},
		{"fig7b", "Lossless time distribution on BlueField-3 (Fig. 7b)", func(o Options) (Table, error) { return Fig7(o, true) }},
		{"fig8", "Compression/decompression time, BF2 vs BF3 (Fig. 8)", Fig8},
		{"fig9", "Lossy (SZ3) time distribution (Fig. 9)", Fig9},
		{"table5a", "Lossless compression ratios (Table V-a)", Table5a},
		{"table5b", "Lossy compression ratios (Table V-b)", Table5b},
		{"fig10", "MPI point-to-point latency, lossless designs (Fig. 10a-e)", Fig10},
		{"fig10f", "MPI point-to-point latency, SZ3 (Fig. 10f)", Fig10f},
		{"fig11", "MPI broadcast with four nodes (Fig. 11)", Fig11},
		{"ext-deploy", "Extension: §VI deployment scenarios (host vs DPU offload)", ExtDeploy},
		{"ext-hybrid", "Extension: hybrid parallel SoC+C-Engine design (§V-C.2)", ExtHybrid},
		{"ext-ablation", "Extension: ablation of PEDAL optimisations", ExtAblation},
		{"ext-pipeline", "Extension: pipelined chunked compression–communication overlap", ExtPipeline},
		{"ext-faults", "Extension: availability under injected C-Engine faults", ExtFaults},
		{"ext-netfaults", "Extension: chaos soak — lossy fabric + overloaded daemon", ExtNetFaults},
		{"ext-enginefaults", "Extension: chaos soak — self-healing C-Engine fault domain", ExtEngineFaults},
		{"ext-rankfaults", "Extension: chaos soak — rank-failure tolerance in the MPI runtime", ExtRankFaults},
		{"ext-fleetfaults", "Extension: chaos soak — resilient sharded pedald fleet", ExtFleetFaults},
		{"ext-ckptfaults", "Extension: chaos soak — crash-consistent compressed checkpoint store", ExtCkptFaults},
		{"ext-sdcfaults", "Extension: chaos soak — silent-data-corruption detection and quarantine", ExtSDCFaults},
		{"ext-overloadfaults", "Extension: chaos soak — overload fault domain (budgets, deadlines, brownout)", ExtOverloadFaults},
	}
}

// ByID returns the runner with the given experiment id, or nil.
func ByID(id string) *Runner {
	for _, r := range Runners() {
		if r.ID == id {
			return &r
		}
	}
	return nil
}

// ms formats a duration in milliseconds with 3 significant decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d)/float64(time.Millisecond))
}

func mb(n int) string {
	return fmt.Sprintf("%.2f", float64(n)/(1<<20))
}
