package experiments

import "testing"

// TestExtEngineFaultsSoak runs the engine fault-domain chaos soak at
// full scale and asserts the PR's acceptance criteria: ≥1000 operations
// across serial and pipelined paths under stall/wedge/reset-fail
// injection, zero data corruption, every operation succeeding (possibly
// via journaled SoC replay) or returning a typed error, the engine
// returning to live after every successful hot-reset, exhausted resets
// degrading it permanently, and bounded virtual-time overhead.
func TestExtEngineFaultsSoak(t *testing.T) {
	tb, err := ExtEngineFaults(Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenIn(t, "soak", tb)
	t.Logf("\n%s", tb)
	m := tb.Metrics

	scenarios := []string{"clean", "stall-3%", "wedge-burst", "stall-wedge-mix", "reset-flaky", "reset-exhaust"}
	total := 0.0
	for _, sc := range scenarios {
		key := func(s string) string { return sc + "_" + s }
		total += m[key("ops")]
		// The headline property: zero data errors and zero op errors
		// everywhere — every operation survived, via the engine or via
		// journal replay on the SoC.
		if got := m[key("data_errors")]; got != 0 {
			t.Errorf("%s: %v data errors", sc, got)
		}
		if got := m[key("op_errors")]; got != 0 {
			t.Errorf("%s: %v op errors", sc, got)
		}
		// Every watchdog-failed job must have been replayed: lost jobs
		// and SoC replays balance.
		if m[key("lost_jobs")] != m[key("jobs_replayed")] {
			t.Errorf("%s: %v lost jobs but %v replays (dropped work)",
				sc, m[key("lost_jobs")], m[key("jobs_replayed")])
		}
	}
	if total < 1000 {
		t.Errorf("total soak ops %v < 1000", total)
	}

	// Clean baseline: the armed watchdog must not misfire.
	if m["clean_stalls"] != 0 || m["clean_wedges"] != 0 {
		t.Errorf("clean scenario misfired: %v stalls, %v wedges",
			m["clean_stalls"], m["clean_wedges"])
	}

	// Stall scenario: the watchdog actually detected stalls and the
	// journal replayed them, with bounded virtual-time overhead versus
	// the clean baseline (recovery must not wreck the cost model).
	if m["stall-3%_stalls"] == 0 {
		t.Error("stall scenario detected no stalls")
	}
	if m["stall-3%_jobs_replayed"] == 0 {
		t.Error("stall scenario replayed no jobs")
	}
	if clean := m["clean_virtual_ms"]; m["stall-3%_virtual_ms"] > 3*clean {
		t.Errorf("stall recovery virtual time %vms > 3x clean baseline %vms",
			m["stall-3%_virtual_ms"], clean)
	}

	// Wedge scenario: wedges were declared, every hot-reset succeeded,
	// and the engine ended live.
	if m["wedge-burst_wedges"] == 0 {
		t.Error("wedge scenario declared no wedges")
	}
	if m["wedge-burst_resets"] != m["wedge-burst_wedges"] {
		t.Errorf("wedge scenario: %v wedges but %v resets",
			m["wedge-burst_wedges"], m["wedge-burst_resets"])
	}
	if m["wedge-burst_state_live"] != 1 {
		t.Error("wedge scenario: engine did not return to live after hot-reset")
	}

	// Flaky resets: the recovery machinery was exercised and the engine
	// still ended in a well-defined state (live after retried resets, or
	// degraded if an unlucky attempt run exhausted the budget — never
	// wedged or lost).
	if m["reset-flaky_wedges"] == 0 {
		t.Error("reset-flaky scenario declared no wedges")
	}
	if m["reset-flaky_state_live"]+m["reset-flaky_state_degraded"] != 1 {
		t.Error("reset-flaky scenario ended in an undefined engine state")
	}

	// Exhausted resets: every attempt failed, the engine was declared
	// permanently degraded, and traffic kept flowing on the SoC.
	if m["reset-exhaust_reset_failures"] == 0 {
		t.Error("reset-exhaust scenario recorded no reset failures")
	}
	if m["reset-exhaust_state_degraded"] != 1 {
		t.Error("reset-exhaust scenario did not degrade the engine permanently")
	}
	if m["reset-exhaust_degraded_ops"] == 0 {
		t.Error("reset-exhaust scenario routed no SoC-degraded operations")
	}
}
