package osu

import (
	"testing"

	"pedal/internal/core"
	"pedal/internal/hwmodel"
	"pedal/internal/mpi"
)

func TestLatencySweepShape(t *testing.T) {
	res, err := RunLatency(P2PConfig{
		Sizes:      []int{4 << 10, 256 << 10, 4 << 20},
		Iterations: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("%d results", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Latency <= res[i-1].Latency {
			t.Fatalf("latency not increasing with size: %v then %v", res[i-1].Latency, res[i].Latency)
		}
	}
}

func TestLatencyCEngineBeatsSoCOnBF2(t *testing.T) {
	design := func(e hwmodel.Engine) mpi.WorldOptions {
		return mpi.WorldOptions{
			Generation: hwmodel.BlueField2,
			Compression: &mpi.CompressionConfig{
				Design: core.Design{Algo: core.AlgoDeflate, Engine: e},
			},
		}
	}
	soc, err := RunLatency(P2PConfig{World: design(hwmodel.SoC), Sizes: []int{5 << 20}, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	ce, err := RunLatency(P2PConfig{World: design(hwmodel.CEngine), Sizes: []int{5 << 20}, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(soc[0].Latency) / float64(ce[0].Latency); ratio < 10 {
		t.Fatalf("C-Engine vs SoC latency ratio = %.1f, want large (Fig. 10)", ratio)
	}
}

func TestBaselineVsPedalP2P(t *testing.T) {
	world := func(baseline bool) mpi.WorldOptions {
		return mpi.WorldOptions{
			Generation: hwmodel.BlueField2,
			Baseline:   baseline,
			Compression: &mpi.CompressionConfig{
				Design: core.Design{Algo: core.AlgoDeflate, Engine: hwmodel.CEngine},
			},
		}
	}
	base, err := RunLatency(P2PConfig{World: world(true), Sizes: []int{5 << 20}, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	ped, err := RunLatency(P2PConfig{World: world(false), Sizes: []int{5 << 20}, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(base[0].Latency) / float64(ped[0].Latency)
	t.Logf("PEDAL speedup over baseline at 5 MiB: %.1fx", speedup)
	if speedup < 20 {
		t.Fatalf("speedup %.1f too small (paper: up to 88x)", speedup)
	}
}

func TestBcastSweep(t *testing.T) {
	res, err := RunBcast(BcastConfig{
		Nodes:      4,
		Sizes:      []int{1 << 20, 8 << 20},
		Iterations: 2,
		World: mpi.WorldOptions{
			Compression: &mpi.CompressionConfig{
				Design: core.Design{Algo: core.AlgoDeflate, Engine: hwmodel.CEngine},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[1].Latency <= res[0].Latency {
		t.Fatalf("bcast sweep shape wrong: %+v", res)
	}
}

func TestBcastBaselineSlower(t *testing.T) {
	cfgFor := func(baseline bool) BcastConfig {
		return BcastConfig{
			Nodes:      4,
			Sizes:      []int{5 << 20},
			Iterations: 2,
			World: mpi.WorldOptions{
				Baseline: baseline,
				Compression: &mpi.CompressionConfig{
					Design: core.Design{Algo: core.AlgoDeflate, Engine: hwmodel.CEngine},
				},
			},
		}
	}
	base, err := RunBcast(cfgFor(true))
	if err != nil {
		t.Fatal(err)
	}
	ped, err := RunBcast(cfgFor(false))
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(base[0].Latency) / float64(ped[0].Latency)
	t.Logf("Bcast PEDAL speedup over baseline: %.1fx", speedup)
	if speedup < 10 {
		t.Fatalf("bcast speedup %.1f too small (paper: up to 68x)", speedup)
	}
}

func TestDefaultPayloadCompressible(t *testing.T) {
	p := DefaultPayload(1 << 20)
	if len(p) != 1<<20 {
		t.Fatal("size wrong")
	}
}
