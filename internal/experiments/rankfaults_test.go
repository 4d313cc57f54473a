package experiments

import "testing"

// TestExtRankFaultsSoak runs the rank fault-domain chaos soak at full
// scale and asserts the PR's acceptance criteria: seeded crash, hang
// and restart faults mid-bcast, mid-reduce and mid-pipelined-rendezvous
// on BF2 and BF3 worlds; every survivor observes ErrRankFailed,
// completes Shrink onto one agreed epoch, and re-runs the collective on
// the shrunk world with zero data errors — with zero leaked goroutines
// and zero leaked mempool buffers after teardown.
func TestExtRankFaultsSoak(t *testing.T) {
	tb, err := ExtRankFaults(Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenIn(t, "soak", tb)
	t.Logf("\n%s", tb)
	m := tb.Metrics

	scenarios := []string{
		"bf2-bcast", "bf2-reduce", "bf2-pipelined",
		"bf3-bcast", "bf3-reduce", "bf3-pipelined",
	}
	for _, sc := range scenarios {
		key := func(s string) string { return sc + "_" + s }
		if m[key("faults")] == 0 {
			t.Errorf("%s: schedule injected no rank faults", sc)
		}
		// Membership arithmetic: every non-faulted rank survived.
		if want := m[key("ranks")] - m[key("faults")]; m[key("survivors")] != want {
			t.Errorf("%s: %v survivors, want %v", sc, m[key("survivors")], want)
		}
		// Every survivor observed the failure as a typed revocation and
		// completed the shrink agreement.
		if m[key("all_survivors_revoked")] != 1 {
			t.Errorf("%s: a survivor never observed ErrRankFailed", sc)
		}
		if m[key("shrinks")] != m[key("survivors")] {
			t.Errorf("%s: %v of %v survivors completed Shrink",
				sc, m[key("shrinks")], m[key("survivors")])
		}
		// All survivors agree on the post-recovery epoch, and it moved.
		if m[key("epoch_agreed")] != 1 {
			t.Errorf("%s: survivors disagree on the final epoch", sc)
		}
		if m[key("epoch")] == 0 {
			t.Errorf("%s: epoch never advanced despite faults", sc)
		}
		// The re-run collective on the shrunk world succeeded everywhere
		// with correct bytes.
		if m[key("reruns_ok")] != m[key("survivors")] {
			t.Errorf("%s: post-shrink re-run succeeded on %v of %v survivors",
				sc, m[key("reruns_ok")], m[key("survivors")])
		}
		if m[key("data_errors")] != 0 {
			t.Errorf("%s: %v data errors", sc, m[key("data_errors")])
		}
		// Resource hygiene: no pooled buffer left checked out — aborted
		// streams and revoked rendezvous included.
		if m[key("leaked_buffers")] != 0 {
			t.Errorf("%s: %v mempool buffers leaked", sc, m[key("leaked_buffers")])
		}
	}
	if m["leaked_goroutines"] != 0 {
		t.Errorf("%v goroutines leaked across the soak", m["leaked_goroutines"])
	}
}
