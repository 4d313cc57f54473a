package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var quick = Options{Quick: true}

var update = flag.Bool("update", false, "rewrite testdata/{quick,soak}/<id>.txt from this run")

// checkGolden compares the rendered quick-mode table with the committed
// testdata/quick/<id>.txt. These fourteen experiments run wholly on the
// virtual clock over seeded data, so their output is a byte gate: a
// refactor that moves one modelled microsecond or one compressed byte
// shows up here. `go test -run Shape -update` re-pins after an intended
// change.
func checkGolden(t *testing.T, tab Table) {
	t.Helper()
	checkGoldenIn(t, "quick", tab)
}

// checkGoldenIn compares tab with the committed testdata/<dir>/<id>.txt,
// or rewrites that file under -update. The seeded chaos soaks whose tables
// carry no wall-clock column pin themselves under testdata/soak.
func checkGoldenIn(t *testing.T, dir string, tab Table) {
	t.Helper()
	path := filepath.Join("testdata", dir, tab.ID+".txt")
	got := tab.String()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from %s:\n--- got ---\n%s--- want ---\n%s", tab.ID, path, got, want)
	}
}

func TestRunnersComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, r := range Runners() {
		if r.ID == "" || r.Title == "" || r.Run == nil {
			t.Fatalf("incomplete runner %+v", r)
		}
		if ids[r.ID] {
			t.Fatalf("duplicate id %s", r.ID)
		}
		ids[r.ID] = true
	}
	// Every table and figure of the paper's evaluation must be covered.
	for _, want := range []string{"table4", "fig7a", "fig7b", "fig8", "fig9", "table5a", "table5b", "fig10", "fig10f", "fig11"} {
		if !ids[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
	if ByID("fig8") == nil || ByID("nope") != nil {
		t.Error("ByID lookup broken")
	}
}

func TestTable4(t *testing.T) {
	tab := Table4(quick)
	checkGolden(t, tab)
	if len(tab.Rows) != 8 {
		t.Fatalf("%d rows, want 8", len(tab.Rows))
	}
	if tab.Rows[0][1] != "silesia/xml" || tab.Rows[7][1] != "exaalt-dataset2" {
		t.Fatal("dataset order wrong")
	}
	if !strings.Contains(tab.String(), "silesia/mozilla") {
		t.Fatal("String() missing rows")
	}
}

func TestFig7aShape(t *testing.T) {
	tab, err := Fig7(quick, false)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tab)
	// 2 engines × 3 algos × 5 datasets.
	if len(tab.Rows) != 30 {
		t.Fatalf("%d rows, want 30", len(tab.Rows))
	}
	// §V-C: init+prep dominate the small-dataset C-Engine run (≈94%).
	frac := tab.Metrics["xml_deflate_cengine_initprep_frac"]
	if frac < 0.85 || frac > 0.995 {
		t.Fatalf("init+prep fraction = %.3f, want ≈0.94", frac)
	}
	// C-Engine must reduce total lossless time on BF2 (paper: up to
	// 9.67×; with quick-mode caps the aggregate ratio is smaller but must
	// exceed 1).
	if r := tab.Metrics["soc_over_cengine_total"]; r <= 1 {
		t.Fatalf("BF2 C-Engine aggregate speedup = %.2f, want > 1", r)
	}
}

func TestFig7bShape(t *testing.T) {
	tab, err := Fig7(quick, true)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tab)
	// BF3: C-Engine totals comparable to SoC (no compression offload).
	r := tab.Metrics["soc_over_cengine_total"]
	if r < 0.5 || r > 2.5 {
		t.Fatalf("BF3 SoC/C-Engine total ratio = %.2f, want ≈1 (comparable)", r)
	}
}

func TestFig8HeadlineMetrics(t *testing.T) {
	tab, err := Fig8(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tab)
	m := tab.Metrics
	// Paper: 101.8× compression, 11.2× decompression on xml (quick mode
	// uses a 2 MiB prefix, so fixed costs weigh slightly differently —
	// assert the right regime, not the exact value).
	if v := m["bf2_deflate_xml_compress_speedup"]; v < 50 || v > 200 {
		t.Errorf("bf2 deflate xml compress speedup = %.1f, want ≈101.8", v)
	}
	if v := m["bf2_deflate_xml_decompress_speedup"]; v < 4 || v > 25 {
		t.Errorf("bf2 deflate xml decompress speedup = %.1f, want ≈11.2", v)
	}
	if v := m["bf2_zlib_mozilla_compress_speedup"]; v < 40 || v > 200 {
		t.Errorf("bf2 zlib mozilla compress speedup = %.1f, want ≈84.6", v)
	}
	// Quick mode caps datasets at 2 MiB, where the engines' fixed job
	// latencies weigh more than at the full 5.1 MB — the ratio lands
	// near 2.4 here and at ≈1.78 in the full-size pedalbench run.
	if v := m["bf3_over_bf2_cengine_deflate_decompress_xml"]; v < 1.3 || v > 2.6 {
		t.Errorf("bf3/bf2 C-Engine xml decompress = %.2f, want 1.78-2.4 regime", v)
	}
	// The small-message BF3 advantage must exceed the large-message one.
	if m["bf3_over_bf2_cengine_deflate_decompress_xml"] <= m["bf3_over_bf2_cengine_deflate_decompress_mozilla"]-0.05 {
		t.Errorf("BF3 advantage should shrink with size: %.2f vs %.2f",
			m["bf3_over_bf2_cengine_deflate_decompress_xml"],
			m["bf3_over_bf2_cengine_deflate_decompress_mozilla"])
	}
}

func TestFig9Shape(t *testing.T) {
	tab, err := Fig9(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tab)
	// BF2: C-Engine SZ3 comparable to SoC SZ3 (backend off the critical
	// path).
	if r := tab.Metrics["bf2_ce_over_soc_small"]; r < 0.6 || r > 1.4 {
		t.Errorf("BF2 SZ3 C-Engine/SoC = %.2f, want ≈1", r)
	}
	// BF3: the C-Engine design redirects its backend to slow SoC DEFLATE
	// → slower than the SoC design (paper: up to 1.58×).
	if r := tab.Metrics["bf3_ce_over_soc_small"]; r < 1.1 || r > 3.0 {
		t.Errorf("BF3 SZ3 C-Engine/SoC = %.2f, want ≈1.58", r)
	}
}

func TestTable5aShape(t *testing.T) {
	tab, err := Table5a(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tab)
	m := tab.Metrics
	// DEFLATE == zlib ratio (same algorithm, 6-byte framing difference),
	// and LZ4 always below DEFLATE (Table V-a).
	for _, ds := range []string{"obs_error", "silesia/mozilla", "silesia/mr", "silesia/samba", "silesia/xml"} {
		df := m[ds+"/DEFLATE"]
		lz := m[ds+"/LZ4"]
		zl := m[ds+"/zlib"]
		if lz >= df {
			t.Errorf("%s: LZ4 %.3f not below DEFLATE %.3f", ds, lz, df)
		}
		if zl < df*0.98 || zl > df*1.02 {
			t.Errorf("%s: zlib %.3f should track DEFLATE %.3f", ds, zl, df)
		}
	}
	// Ascending ratio order as the paper prints it.
	if !(m["obs_error/DEFLATE"] < m["silesia/mr/DEFLATE"] &&
		m["silesia/mr/DEFLATE"] < m["silesia/xml/DEFLATE"]) {
		t.Error("Table V(a) ratio ordering broken")
	}
}

func TestTable5bShape(t *testing.T) {
	tab, err := Table5b(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tab)
	// SZ3 and SZ3(C-Engine) ratios must be close (paper: 2.941 vs 2.940
	// etc. — the backend swap barely moves the ratio).
	for _, ds := range []string{"exaalt-dataset1", "exaalt-dataset3", "exaalt-dataset2"} {
		soc := tab.Metrics[ds+"/SoC"]
		ce := tab.Metrics[ds+"/C-Engine"]
		if soc < 1.5 {
			t.Errorf("%s: SZ3 ratio %.2f too low", ds, soc)
		}
		if ce < soc*0.7 || ce > soc*1.3 {
			t.Errorf("%s: C-Engine ratio %.2f far from SoC %.2f", ds, ce, soc)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	tab, err := Fig10(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tab)
	// Baseline + 6 designs × 2 generations.
	if len(tab.Rows) != 13 {
		t.Fatalf("%d rows, want 13", len(tab.Rows))
	}
	if v := tab.Metrics["bf2_cengine_deflate_speedup_vs_baseline"]; v < 5 {
		t.Errorf("BF2 C-Engine speedup vs baseline = %.1f, want large (≤88x)", v)
	}
	if v := tab.Metrics["bf3_soc_reduction_vs_bf2_soc"]; v < 0.15 || v > 0.60 {
		t.Errorf("BF3 SoC reduction vs BF2 SoC = %.2f, want ≈0.40", v)
	}
}

func TestFig10fShape(t *testing.T) {
	tab, err := Fig10f(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tab)
	// Paper: latency reductions up to 47.3% (BF2) and 48% (BF3), at
	// sizes where SZ3 compute dominates. Quick mode caps messages at
	// 2 MiB, where the baseline's fixed init still dominates and the
	// reduction runs high; the full-size pedalbench run lands in the
	// paper's regime.
	if v := tab.Metrics["bf2_sz3_latency_reduction_vs_baseline"]; v < 0.10 || v > 0.97 {
		t.Errorf("BF2 SZ3 reduction = %.2f, want (0.10, 0.97)", v)
	}
	if v := tab.Metrics["bf3_sz3_latency_reduction_vs_baseline"]; v < 0.10 || v > 0.98 {
		t.Errorf("BF3 SZ3 reduction = %.2f, want (0.10, 0.98)", v)
	}
}

func TestFig11Shape(t *testing.T) {
	tab, err := Fig11(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tab)
	if len(tab.Rows) != 13 {
		t.Fatalf("%d rows, want 13", len(tab.Rows))
	}
	if v := tab.Metrics["bf2_cengine_bcast_speedup_vs_baseline"]; v < 4 {
		t.Errorf("BF2 C-Engine bcast speedup = %.1f, want large (≤68x)", v)
	}
	if v := tab.Metrics["bf3_soc_bcast_reduction_vs_bf2_soc"]; v < 0.10 || v > 0.70 {
		t.Errorf("BF3 SoC bcast reduction = %.2f, want ≈0.49", v)
	}
}
