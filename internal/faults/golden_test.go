package faults

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/schedules.txt from this run")

// TestFaultSchedulesGolden pins every injector's and schedule's decision
// sequence: one line per configuration holds the SHA-256 of the decisions
// it draws and its final counts, compared byte for byte with
// testdata/schedules.txt. The configurations cover every seed the chaos
// soaks and the fault sweep use, so a refactor of the fault machinery
// that moves a single draw of any soak shows up here. `go test -run
// FaultSchedulesGolden -update` re-pins after an intended change.
func TestFaultSchedulesGolden(t *testing.T) {
	var lines []string
	line := func(kind string, cfg any, n int, h hash.Hash, counts string) {
		lines = append(lines, fmt.Sprintf("%s %+v n=%d sha256=%s counts=%s",
			kind, cfg, n, hex.EncodeToString(h.Sum(nil)), counts))
	}

	// Engine job injectors: the engine soak, the fault sweep, every class
	// at once, and a budgeted run; every fifth draw is a reset attempt.
	engine := []Config{
		{Seed: 52, PStall: 0.03},
		{Seed: 53, PWedge: 0.004, MaxInjections: 3},
		{Seed: 54, PTransient: 0.05, PStall: 0.02, PWedge: 0.003, MaxInjections: 12},
		{Seed: 55, PWedge: 0.012, PResetFail: 0.4, MaxInjections: 2},
		{Seed: 56, PWedge: 0.05, PResetFail: 1.0, MaxInjections: 1},
		{Seed: 42, PTransient: 0.30},
		{Seed: 43, PCorrupt: 0.10},
		{Seed: 44, PPersistent: 1.0, MaxInjections: 10},
		{Seed: 45, PPersistent: 1.0},
		{Seed: 0, PTransient: 0.1, PPersistent: 0.1, PCorrupt: 0.1, PQueueFull: 0.1, PHang: 0.1, PStall: 0.1, PWedge: 0.1, PResetFail: 0.5},
		{Seed: 7, PTransient: 0.1, PPersistent: 0.1, PCorrupt: 0.1, PQueueFull: 0.1, PHang: 0.1, PStall: 0.1, PWedge: 0.1, PResetFail: 0.5, HangDelay: time.Millisecond, MaxInjections: 40},
	}
	for _, cfg := range engine {
		inj, h, n := NewInjector(cfg), sha256.New(), 4000
		for i := 0; i < n; i++ {
			if i%5 == 4 {
				fmt.Fprintf(h, "r%d;", inj.NextReset().Class)
				continue
			}
			d := inj.Next()
			fmt.Fprintf(h, "%d/%d;", d.Class, d.Delay)
		}
		jobs, injected := inj.Counts()
		line("engine", cfg, n, h, fmt.Sprintf("%d/%d", jobs, injected))
	}

	// Network injectors: the network soak's seeds, both as given and as
	// the per-rank streams the MPI world derives from them.
	net := []NetConfig{
		{Seed: 301, PDrop: 0.10},
		{Seed: 302, PDuplicate: 0.12},
		{Seed: 303, PReorder: 0.15},
		{Seed: 304, PCorrupt: 0.10},
		{Seed: 305, PDelay: 0.25},
		{Seed: 306, PDrop: 0.04, PDuplicate: 0.04, PReorder: 0.04, PCorrupt: 0.04, PDelay: 0.04},
	}
	for _, base := range append([]NetConfig(nil), net...) {
		for rank := uint64(0); rank < 4; rank++ {
			cfg := base
			cfg.Seed = DeriveSeed(base.Seed, rank)
			net = append(net, cfg)
		}
	}
	net = append(net, NetConfig{Seed: 9, PDrop: 0.2, PDuplicate: 0.2, PReorder: 0.2, PCorrupt: 0.2, PDelay: 0.2, DelayMax: time.Millisecond, MaxInjections: 25})
	for _, cfg := range net {
		inj, h, n := NewNetInjector(cfg), sha256.New(), 4000
		for i := 0; i < n; i++ {
			d := inj.Next()
			fmt.Fprintf(h, "%d/%d/%x;", d.Class, d.Delay, d.Bits)
		}
		frames, injected := inj.Counts()
		line("net", cfg, n, h, fmt.Sprintf("%d/%d", frames, injected))
	}

	// Disk injectors: the checkpoint soak's steady write paths, its
	// single-shot crash injectors over every kill index, and budgets.
	disk := []DiskFaultConfig{
		{Seed: 11, Stall: 200 * time.Microsecond},
		{Seed: 12, PTear: 0.15, Stall: 200 * time.Microsecond},
		{Seed: 13, Stall: 200 * time.Microsecond},
		{Seed: 14, Stall: 200 * time.Microsecond},
		{Seed: 15, PStall: 0.3, Stall: 200 * time.Microsecond},
		{Seed: 16, PTear: 0.08, PRot: 0.05, PStall: 0.1, Stall: 200 * time.Microsecond},
		{Seed: 17, Stall: 200 * time.Microsecond},
		{Seed: 3, PTear: 0.3, PRot: 0.3, PStall: 0.3, MaxInjections: 20},
		{Seed: 4, PTear: 0.3, PRot: 0.3, PStall: 0.3, MaxInjections: 20, CrashAfterOps: 60},
	}
	for seed := uint64(12); seed <= 30; seed++ {
		for k := 1; k <= 20; k += 3 {
			disk = append(disk, DiskFaultConfig{Seed: seed, CrashAfterOps: k})
		}
	}
	for _, cfg := range disk {
		inj, h, n := NewDiskInjector(cfg), sha256.New(), 400
		for i := 0; i < n; i++ {
			d := inj.Next()
			fmt.Fprintf(h, "%d/%d/%x/%d;", d.Class, d.Stall, math.Float64bits(d.Frac), d.Bit)
		}
		ops, injected := inj.Counts()
		line("disk", cfg, n, h, fmt.Sprintf("%d/%d crashed=%v", ops, injected, inj.Crashed()))
	}

	// Compute injectors: the SDC soak's seeds drawn round-robin over
	// cores 0-4 and applied to a buffer, plus a core filter and a budget.
	compute := []ComputeFaultConfig{
		{Seed: 21, PKernelFlip: 0.35},
		{Seed: 22, PQuantDrift: 0.35},
		{Seed: 23, PBufferStomp: 0.25},
		{Seed: 24, PKernelFlip: 0.12, PQuantDrift: 0.12, PBufferStomp: 0.12},
		{Seed: 25, PKernelFlip: 1.0, MaxInjections: 4},
		{Seed: 0, PKernelFlip: 0.2, PQuantDrift: 0.2, PBufferStomp: 0.2, StompSpan: 5},
		{Seed: 26, PKernelFlip: 0.3, PQuantDrift: 0.3, PBufferStomp: 0.3, Cores: []int{1, 3}},
		{Seed: 27, PKernelFlip: 0.3, PQuantDrift: 0.3, PBufferStomp: 0.3, MaxInjections: 30},
	}
	for _, cfg := range compute {
		inj, h, n := NewComputeInjector(cfg), sha256.New(), 4000
		buf := make([]byte, 40)
		for i := 0; i < n; i++ {
			d := inj.Next(i % 5)
			for j := range buf {
				buf[j] = byte(i + j)
			}
			applied := inj.Apply(d, buf[:1+i%len(buf)])
			fmt.Fprintf(h, "%d/%x/%d/%d/%d/%v/%x;", d.Class, d.Off, d.Bit, d.Span, d.Drift, applied, buf)
		}
		ops, injected := inj.Counts()
		line("compute", cfg, n, h, fmt.Sprintf("%d/%d", ops, injected))
	}

	// Per-unit schedules: seeds 0-39 over worlds and fleets of 2-8, for a
	// general configuration and (ranks) the rank soak's.
	for _, cfg := range []RankFaultConfig{
		{PCrash: 0.3, PHang: 0.3, PRestart: 0.2, MinOps: 1, MaxOps: 9},
		{PCrash: 0.45, PHang: 0.3, PRestart: 0.25, MinOps: 1, MaxOps: 3, MaxFailures: 2, Pause: 900 * time.Millisecond},
	} {
		for _, base := range []uint64{0, 700} {
			for seed := base; seed < base+40; seed++ {
				cfg.Seed = seed
				h, total := sha256.New(), 0
				for n := 2; n <= 8; n++ {
					s := NewRankSchedule(cfg, n)
					total += len(s)
					for _, f := range s {
						fmt.Fprintf(h, "%d:%d/%d/%d/%d;", n, f.Rank, f.Class, f.AfterOps, f.Pause)
					}
				}
				line("rank", cfg, 7, h, fmt.Sprint(total))
			}
		}
	}
	for _, cfg := range []ShardFaultConfig{
		{PCrash: 0.3, PStall: 0.3, PRestart: 0.2, MinOps: 5, MaxOps: 40},
		{PCrash: 0.5, PStall: 0.2, PRestart: 0.2, MinOps: 7, MaxFailures: 3, Stall: time.Millisecond, Down: time.Second},
	} {
		for seed := uint64(0); seed < 40; seed++ {
			cfg.Seed = seed
			h, total := sha256.New(), 0
			for n := 2; n <= 8; n++ {
				s := NewShardSchedule(cfg, n)
				total += len(s)
				for _, f := range s {
					fmt.Fprintf(h, "%d:%d/%d/%d/%d/%d;", n, f.Shard, f.Class, f.AfterOps, f.Stall, f.Down)
				}
			}
			line("shard", cfg, 7, h, fmt.Sprint(total))
		}
	}
	for _, cfg := range []OverloadFaultConfig{
		{PMemPressure: 0.3, PSlowConsumer: 0.3, PDeadlineStorm: 0.2, MinOps: 5, MaxOps: 40},
		{PMemPressure: 0.5, PSlowConsumer: 0.2, PDeadlineStorm: 0.2, MinOps: 3, MaxFailures: 9, Ops: 7, Budget: 4096, Stall: time.Millisecond, Deadline: time.Second},
	} {
		for seed := uint64(0); seed < 40; seed++ {
			cfg.Seed = seed
			h, total := sha256.New(), 0
			for n := 2; n <= 8; n++ {
				s := NewOverloadSchedule(cfg, n)
				total += len(s)
				for _, f := range s {
					fmt.Fprintf(h, "%d:%d/%d/%d/%d/%d/%d/%d;", n, f.Shard, f.Class, f.AfterOps, f.Ops, f.Budget, f.Stall, f.Deadline)
				}
			}
			line("overload", cfg, 7, h, fmt.Sprint(total))
		}
	}

	names := make([]string, 120)
	for c := range names {
		names[c] = Class(c).String()
	}
	lines = append(lines, "class "+strings.Join(names, ","))

	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "schedules.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(lines) {
		t.Errorf("%d schedule lines, %s pins %d", len(lines), path, len(want))
	}
	for i := 0; i < len(lines) && i < len(want); i++ {
		if lines[i] != want[i] {
			t.Errorf("line %d differs:\n got  %s\n want %s", i+1, lines[i], want[i])
		}
	}
}
