package experiments

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"pedal/internal/core"
	"pedal/internal/dpu"
	"pedal/internal/faults"
	"pedal/internal/hwmodel"
	"pedal/internal/stats"
)

// ExtEngineFaults soaks the self-healing engine fault domain: a
// stall/wedge/reset-fail scenario matrix over both the serial
// compress/decompress path and the chunked pipeline, on the BlueField-2
// DEFLATE C-Engine design with the stall watchdog armed at test-scale
// budgets. The headline properties: zero data errors in every scenario,
// every operation either succeeds (possibly via journaled SoC replay)
// or returns a typed error, the engine returns to live after every
// successful hot-reset, and exhausted resets degrade it permanently
// while traffic keeps flowing on the SoC.
func ExtEngineFaults(o Options) (Table, error) {
	t := Table{
		ID: "ext-enginefaults", Title: "Chaos soak: self-healing C-Engine fault domain (BF2, DEFLATE, watchdog armed)",
		Columns: []string{"Scenario", "Ops", "OK", "DataErr", "Stalls", "Wedges", "Resets", "RstFail", "Replayed", "Lost", "State", "Virtual(ms)"},
		Metrics: map[string]float64{},
	}
	serialOps, pipeOps := 160, 40
	if o.Quick {
		serialOps, pipeOps = 40, 10
	}
	scenarios := []struct {
		name string
		cfg  *faults.Config
	}{
		{"clean", nil},
		// Individual jobs vanish into the engine; the watchdog must fail
		// each one past its latency budget and the journal replays it on
		// the SoC.
		{"stall-3%", &faults.Config{Seed: 52, PStall: 0.03}},
		// The engine wedges outright a few times: consecutive overdue
		// jobs cross WedgeAfter, the watchdog hot-resets, and the engine
		// must come back live every time (resets always succeed here).
		{"wedge-burst", &faults.Config{Seed: 53, PWedge: 0.004, MaxInjections: 3}},
		// Everything at once: transient submit errors, stalled jobs and
		// wedges interleaved across serial and pipelined traffic.
		{"stall-wedge-mix", &faults.Config{Seed: 54, PTransient: 0.05, PStall: 0.02, PWedge: 0.003, MaxInjections: 12}},
		// Resets themselves are flaky: attempts fail half the time and
		// the watchdog must keep retrying within its bounded budget.
		{"reset-flaky", &faults.Config{Seed: 55, PWedge: 0.012, PResetFail: 0.4, MaxInjections: 2}},
		// Every reset attempt fails: after MaxResetAttempts the engine is
		// declared permanently degraded and all traffic runs SoC-only.
		{"reset-exhaust", &faults.Config{Seed: 56, PWedge: 0.05, PResetFail: 1.0, MaxInjections: 1}},
	}
	design := core.Design{Algo: core.AlgoDeflate, Engine: hwmodel.CEngine}
	serialPayload := bytes.Repeat([]byte("pedal engine fault soak payload: compressible text / "), 78)   // ≈4 KiB
	pipePayload := bytes.Repeat([]byte("pedal engine fault soak pipelined chunk payload text / "), 4800) // ≈256 KiB → 4 chunks
	for _, sc := range scenarios {
		var inj *faults.Injector
		if sc.cfg != nil {
			inj = faults.NewInjector(*sc.cfg)
		}
		lib, err := core.Init(core.Options{
			Generation:    hwmodel.BlueField2,
			FaultInjector: inj,
			Resilience: &core.ResilienceOptions{
				BreakerThreshold:  3,
				BreakerProbeEvery: 8,
				// Near-default watchdog budgets: tight enough to declare
				// injected stalls in tens of milliseconds, loose enough
				// that genuinely-executing jobs (including queue wait
				// behind sibling chunks, and the race detector's
				// slowdown) never misfire. Resets retry fast so the
				// soak's wall clock stays bounded.
				Watchdog: &dpu.WatchdogConfig{
					Interval:         time.Millisecond,
					BudgetFloor:      50 * time.Millisecond,
					BudgetSlack:      8,
					WedgeAfter:       3,
					MaxResetAttempts: 4,
					ResetBackoff:     500 * time.Microsecond,
				},
			},
		})
		if err != nil {
			return t, err
		}
		ops := serialOps + pipeOps
		dataErrs, opErrs := 0, 0
		for i := 0; i < serialOps; i++ {
			binary.LittleEndian.PutUint64(serialPayload[:8], uint64(i))
			msg, _, err := lib.Compress(design, core.TypeBytes, serialPayload)
			if err != nil {
				opErrs++
				continue
			}
			out, _, err := lib.Decompress(hwmodel.CEngine, core.TypeBytes, msg, len(serialPayload)+64)
			if err != nil {
				opErrs++
			} else if !bytes.Equal(out, serialPayload) {
				dataErrs++
			}
			lib.Release(msg)
		}
		for i := 0; i < pipeOps; i++ {
			binary.LittleEndian.PutUint64(pipePayload[:8], uint64(serialOps+i))
			msg, _, err := lib.CompressPipelined(design, core.TypeBytes, pipePayload)
			if err != nil {
				opErrs++
				continue
			}
			out, _, err := lib.DecompressPipelined(hwmodel.CEngine, msg, len(pipePayload)+64)
			if err != nil {
				opErrs++
			} else if !bytes.Equal(out, pipePayload) {
				dataErrs++
			}
			lib.Release(msg)
		}
		h := lib.EngineHealth()
		tb := lib.TotalBreakdown()
		t.Rows = append(t.Rows, []string{
			sc.name, fmt.Sprint(ops), fmt.Sprint(ops - opErrs - dataErrs), fmt.Sprint(dataErrs),
			fmt.Sprint(h.Stalls), fmt.Sprint(h.Wedges), fmt.Sprint(h.Resets),
			fmt.Sprint(h.ResetFailures), fmt.Sprint(tb.Count(stats.CounterJobsReplayed)),
			fmt.Sprint(h.LostJobs), h.State.String(),
			ms(tb.Get(stats.PhaseCompress) + tb.Get(stats.PhaseDecompress) + tb.Get(stats.PhaseRetry) + tb.Get(stats.PhaseReset)),
		})
		key := func(s string) string { return sc.name + "_" + s }
		t.Metrics[key("ops")] = float64(ops)
		t.Metrics[key("data_errors")] = float64(dataErrs)
		t.Metrics[key("op_errors")] = float64(opErrs)
		t.Metrics[key("stalls")] = float64(h.Stalls)
		t.Metrics[key("wedges")] = float64(h.Wedges)
		t.Metrics[key("resets")] = float64(h.Resets)
		t.Metrics[key("reset_failures")] = float64(h.ResetFailures)
		t.Metrics[key("lost_jobs")] = float64(h.LostJobs)
		t.Metrics[key("jobs_replayed")] = float64(tb.Count(stats.CounterJobsReplayed))
		t.Metrics[key("degraded_ops")] = float64(tb.Count(stats.CounterDegradedOps))
		t.Metrics[key("state_live")] = boolMetric(h.State == dpu.EngineLive)
		t.Metrics[key("state_degraded")] = boolMetric(h.State == dpu.EngineDegraded)
		t.Metrics[key("virtual_ms")] = float64(tb.Get(stats.PhaseCompress)+tb.Get(stats.PhaseDecompress)+tb.Get(stats.PhaseRetry)+tb.Get(stats.PhaseReset)) / 1e6
		lib.Finalize()
	}
	return t, nil
}

// boolMetric encodes a boolean assertion outcome as a 0/1 metric.
func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
