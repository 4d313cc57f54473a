package experiments

import "testing"

// TestExtCkptFaultsSoak runs the storage chaos soak at full scale and
// asserts the PR's acceptance criteria: multi-rank checkpoint/restart
// cycles under torn writes, bit rot, injected stalls and mid-commit
// kills — zero data errors, zero untyped errors, restart reaching a
// verified checkpoint every time, 100% of injected rot detected, and
// unrecoverable epochs condemned with typed errors rather than
// half-restored.
func TestExtCkptFaultsSoak(t *testing.T) {
	tb, err := ExtCkptFaults(Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenIn(t, "soak", tb)
	t.Logf("\n%s", tb)
	m := tb.Metrics

	scenarios := []string{"clean", "torn-write", "bit-rot", "crash-commit", "disk-stall", "combined", "remote"}
	for _, sc := range scenarios {
		key := func(s string) string { return "ckpt_" + sc + "_" + s }
		if m[key("cycles")] == 0 {
			t.Errorf("%s: no cycles ran", sc)
		}
		if got := m[key("data_errors")]; got != 0 {
			t.Errorf("%s: %v data errors (restored shard != checkpointed snapshot)", sc, got)
		}
		if got := m[key("untyped_errors")]; got != 0 {
			t.Errorf("%s: %v untyped errors (every storage failure must carry a typed class)", sc, got)
		}
		if m[key("restores_ok")] == 0 {
			t.Errorf("%s: no successful restores", sc)
		}
		if ok, att := m[key("restores_ok")], m[key("restores_attempted")]; ok != att {
			t.Errorf("%s: %v/%v restores reached a verified state — restart must ALWAYS land on a complete checkpoint", sc, ok, att)
		}
	}

	// Clean baseline over a real on-disk store: every cycle commits,
	// nothing rots, nothing repairs.
	if m["ckpt_clean_commits"] != m["ckpt_clean_cycles"] {
		t.Errorf("clean: commits %v != cycles %v", m["ckpt_clean_commits"], m["ckpt_clean_cycles"])
	}
	for _, c := range []string{"rot_detected", "repairs", "crashes", "condemned"} {
		if got := m["ckpt_clean_"+c]; got != 0 {
			t.Errorf("clean: %s = %v, want 0", c, got)
		}
	}

	// Torn writes: the schedule genuinely fired and every tear was
	// absorbed — detected at commit read-back (typed abort) or healed by
	// replica/source repair at restore.
	if m["ckpt_torn-write_faults_injected"] == 0 {
		t.Error("torn-write: schedule injected nothing")
	}

	// Bit rot: detection is exact — every explicitly flipped copy was
	// caught by digest verification; repairable damage was repaired and
	// the one unrecoverable epoch was condemned, not half-restored.
	if inj, det := m["ckpt_bit-rot_rot_injected"], m["ckpt_bit-rot_rot_detected"]; inj == 0 || det < inj {
		t.Errorf("bit-rot: %v injected, %v detected — scrub+restore must catch 100%%", inj, det)
	}
	if m["ckpt_bit-rot_repairs"] == 0 {
		t.Error("bit-rot: nothing was repaired from surviving replicas")
	}
	if got := m["ckpt_bit-rot_condemned"]; got != 1 {
		t.Errorf("bit-rot: %v epochs condemned, want exactly 1", got)
	}

	// Crash-mid-commit: kills actually fired and every restart still
	// found a complete verified checkpoint (the per-scenario checks
	// above prove the latter).
	if m["ckpt_crash-commit_crashes"] == 0 {
		t.Error("crash-commit: the kill switch never fired")
	}
	if m["ckpt_crash-commit_commits"] == 0 {
		t.Error("crash-commit: no commit ever survived")
	}

	// Stalls: injected and harmless.
	if m["ckpt_disk-stall_faults_injected"] == 0 {
		t.Error("disk-stall: schedule injected nothing")
	}
	if m["ckpt_disk-stall_commits"] != m["ckpt_disk-stall_cycles"] {
		t.Errorf("disk-stall: commits %v != cycles %v (stalls must not fail commits)",
			m["ckpt_disk-stall_commits"], m["ckpt_disk-stall_cycles"])
	}

	// Combined: everything at once, kills included.
	if m["ckpt_combined_crashes"] == 0 {
		t.Error("combined: no mid-commit kill fired")
	}

	// Remote: checkpoint shards compressed through the fleet router over
	// live pedald daemons, cleanly.
	if m["ckpt_remote_commits"] != m["ckpt_remote_cycles"] {
		t.Errorf("remote: commits %v != cycles %v", m["ckpt_remote_commits"], m["ckpt_remote_cycles"])
	}
}
