package experiments

import "testing"

func TestExtDeployShape(t *testing.T) {
	tab, err := ExtDeploy(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tab)
	// 4 scenarios × 2 generations.
	if len(tab.Rows) != 8 {
		t.Fatalf("%d rows, want 8", len(tab.Rows))
	}
	// BF2: the C-Engine pays for the PCIe crossing many times over.
	if v := tab.Metrics["BlueField-2_offload_direct_speedup_vs_host"]; v < 3 {
		t.Errorf("BF2 offload speedup vs host = %.2f, want large", v)
	}
	// BF3: no hardware compression → offload to the slower SoC loses.
	if v := tab.Metrics["BlueField-3_offload_direct_speedup_vs_host"]; v > 1 {
		t.Errorf("BF3 offload speedup vs host = %.2f, want < 1 (SoC slower than host)", v)
	}
}

func TestExtHybridShape(t *testing.T) {
	tab, err := ExtHybrid(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tab)
	if len(tab.Rows) != 6 {
		t.Fatalf("%d rows, want 6", len(tab.Rows))
	}
	// The hybrid design's big win is on BF3, where it parallelises the
	// 16 SoC cores; on BF2 it must at least beat the serial SoC design.
	if v := tab.Metrics["BlueField-3_hybrid_speedup_vs_serial_soc"]; v < 4 {
		t.Errorf("BF3 hybrid speedup vs serial SoC = %.2f, want ≥ 4 (16 cores)", v)
	}
	if v := tab.Metrics["BlueField-2_hybrid_speedup_vs_serial_soc"]; v < 10 {
		t.Errorf("BF2 hybrid speedup vs serial SoC = %.2f, want large (C-Engine inside)", v)
	}
}

func TestExtPipelineShape(t *testing.T) {
	tab, err := ExtPipeline(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tab)
	// 2 sizes × 2 generations.
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(tab.Rows))
	}
	// Acceptance: at ≥1 MiB the pipelined end-to-end latency is strictly
	// below the serial compress-then-send path on BOTH generations.
	for _, gen := range []string{"BlueField-2", "BlueField-3"} {
		if v := tab.Metrics[gen+"_pipelined_speedup"]; v <= 1 {
			t.Errorf("%s pipelined end-to-end speedup = %.2f, want > 1", gen, v)
		}
		if v := tab.Metrics[gen+"_compress_makespan_speedup"]; v <= 1 {
			t.Errorf("%s compress makespan speedup = %.2f, want > 1", gen, v)
		}
	}
}

func TestExtAblationShape(t *testing.T) {
	tab, err := ExtAblation(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tab)
	if len(tab.Rows) < 5 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	if v := tab.Metrics["hoisting_speedup"]; v < 5 {
		t.Errorf("hoisting speedup = %.2f, want large", v)
	}
}
