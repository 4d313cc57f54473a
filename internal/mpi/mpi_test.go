package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"pedal/internal/core"
	"pedal/internal/hwmodel"
	"pedal/internal/stats"
)

func textPayload(n int) []byte {
	unit := []byte("<msg seq=\"9\"><body>on-the-fly compression over mpi</body></msg>\n")
	return bytes.Repeat(unit, n/len(unit)+1)[:n]
}

func closeWorld(comms []*Comm) {
	for _, c := range comms {
		c.Close()
	}
}

// run spawns one goroutine per rank and waits; any rank error fails the
// test.
func run(t *testing.T, comms []*Comm, body func(c *Comm) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, len(comms))
	for _, c := range comms {
		wg.Add(1)
		go func(c *Comm) {
			defer wg.Done()
			if err := body(c); err != nil {
				errs <- fmt.Errorf("rank %d: %w", c.Rank(), err)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestEagerSendRecv(t *testing.T) {
	comms, err := NewWorld(2, WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer closeWorld(comms)
	want := []byte("small eager message")
	run(t, comms, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 42, want)
		}
		got, err := c.Recv(0, 42, 1024)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return errors.New("payload mismatch")
		}
		return nil
	})
}

func TestRendezvousSendRecv(t *testing.T) {
	comms, err := NewWorld(2, WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer closeWorld(comms)
	want := textPayload(1 << 20) // > threshold → RNDV
	run(t, comms, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 7, want)
		}
		got, err := c.Recv(0, 7, len(want)+64)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return errors.New("rendezvous payload mismatch")
		}
		return nil
	})
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	comms, err := NewWorld(2, WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer closeWorld(comms)
	run(t, comms, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 1, []byte("first-tag-1")); err != nil {
				return err
			}
			return c.Send(1, 2, []byte("second-tag-2"))
		}
		// Receive in reverse tag order: tag 2 first.
		got2, err := c.Recv(0, 2, 256)
		if err != nil {
			return err
		}
		got1, err := c.Recv(0, 1, 256)
		if err != nil {
			return err
		}
		if string(got2) != "second-tag-2" || string(got1) != "first-tag-1" {
			return fmt.Errorf("matching wrong: %q %q", got2, got1)
		}
		return nil
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	comms, err := NewWorld(3, WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer closeWorld(comms)
	run(t, comms, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			seen := 0
			for i := 0; i < 2; i++ {
				got, err := c.Recv(AnySource, AnyTag, 256)
				if err != nil {
					return err
				}
				if len(got) > 0 {
					seen++
				}
			}
			if seen != 2 {
				return errors.New("missing wildcard messages")
			}
			return nil
		default:
			return c.Send(0, 10+c.Rank(), []byte{byte(c.Rank())})
		}
	})
}

func TestTruncationError(t *testing.T) {
	comms, err := NewWorld(2, WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer closeWorld(comms)
	run(t, comms, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, make([]byte, 4096))
		}
		_, err := c.Recv(0, 0, 128)
		if !errors.Is(err, ErrTruncate) {
			return fmt.Errorf("want ErrTruncate, got %v", err)
		}
		return nil
	})
}

func TestCompressedPointToPoint(t *testing.T) {
	for _, d := range []core.Design{
		{Algo: core.AlgoDeflate, Engine: hwmodel.CEngine},
		{Algo: core.AlgoZlib, Engine: hwmodel.CEngine},
		{Algo: core.AlgoLZ4, Engine: hwmodel.SoC},
	} {
		comms, err := NewWorld(2, WorldOptions{
			Compression: &CompressionConfig{Design: d},
		})
		if err != nil {
			t.Fatal(err)
		}
		want := textPayload(2 << 20)
		run(t, comms, func(c *Comm) error {
			if c.Rank() == 0 {
				return c.Send(1, 3, want)
			}
			got, err := c.Recv(0, 3, len(want)+64)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("%v: payload mismatch", d)
			}
			return nil
		})
		closeWorld(comms)
	}
}

func TestLossyPointToPoint(t *testing.T) {
	comms, err := NewWorld(2, WorldOptions{
		Compression: &CompressionConfig{
			Design:   core.Design{Algo: core.AlgoSZ3, Engine: hwmodel.SoC},
			DataType: core.TypeFloat64,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeWorld(comms)
	vals := make([]float64, 1<<17)
	for i := range vals {
		vals[i] = math.Sin(float64(i) * 0.001)
	}
	want := make([]byte, len(vals)*8)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(want[i*8:], math.Float64bits(v))
	}
	run(t, comms, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 5, want)
		}
		got, err := c.Recv(0, 5, len(want)+64)
		if err != nil {
			return err
		}
		if len(got) != len(want) {
			return fmt.Errorf("length %d != %d", len(got), len(want))
		}
		for i := range vals {
			g := math.Float64frombits(binary.LittleEndian.Uint64(got[i*8:]))
			if math.Abs(g-vals[i]) > 1e-4*(1+1e-9) {
				return fmt.Errorf("element %d error %g", i, math.Abs(g-vals[i]))
			}
		}
		return nil
	})
}

func TestSmallMessagesSkipCompression(t *testing.T) {
	comms, err := NewWorld(2, WorldOptions{
		Compression: &CompressionConfig{Design: core.Design{Algo: core.AlgoDeflate, Engine: hwmodel.SoC}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeWorld(comms)
	run(t, comms, func(c *Comm) error {
		if c.Rank() == 0 {
			// Below the rendezvous threshold: must go eager, uncompressed
			// (paper §IV: PEDAL operates on RNDV only).
			return c.Send(1, 1, textPayload(1024))
		}
		got, err := c.Recv(0, 1, 4096)
		if err != nil {
			return err
		}
		if len(got) != 1024 {
			return fmt.Errorf("got %d bytes", len(got))
		}
		return nil
	})
	// The sender's phase breakdown must show no compression activity.
	if comms[0].Breakdown().Get(stats.PhaseCompress) != 0 {
		t.Fatal("eager message was compressed")
	}
}

func TestBcastAllSizes(t *testing.T) {
	for _, n := range []int{3, 4, 5, 8} {
		comms, err := NewWorld(n, WorldOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := textPayload(300000)
		run(t, comms, func(c *Comm) error {
			var in []byte
			if c.Rank() == 2%n {
				in = want
			}
			got, err := c.Bcast(2%n, in)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("rank %d bcast mismatch", c.Rank())
			}
			return nil
		})
		closeWorld(comms)
	}
}

func TestBcastCompressed(t *testing.T) {
	comms, err := NewWorld(4, WorldOptions{
		Compression: &CompressionConfig{Design: core.Design{Algo: core.AlgoDeflate, Engine: hwmodel.CEngine}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeWorld(comms)
	want := textPayload(5 << 20)
	run(t, comms, func(c *Comm) error {
		var in []byte
		if c.Rank() == 0 {
			in = want
		}
		got, err := c.Bcast(0, in)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return errors.New("compressed bcast mismatch")
		}
		return nil
	})
}

func TestBarrier(t *testing.T) {
	comms, err := NewWorld(5, WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer closeWorld(comms)
	run(t, comms, func(c *Comm) error {
		for i := 0; i < 3; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestGather(t *testing.T) {
	comms, err := NewWorld(4, WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer closeWorld(comms)
	var got [][]byte
	var mu sync.Mutex
	run(t, comms, func(c *Comm) error {
		data := []byte{byte(c.Rank()), byte(c.Rank() * 2)}
		res, err := c.Gather(0, data)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			mu.Lock()
			got = res
			mu.Unlock()
		}
		return nil
	})
	if len(got) != 4 {
		t.Fatalf("gather result size %d", len(got))
	}
	for r, d := range got {
		if len(d) != 2 || d[0] != byte(r) || d[1] != byte(r*2) {
			t.Fatalf("rank %d data %v", r, d)
		}
	}
}

func TestVirtualClockAdvances(t *testing.T) {
	comms, err := NewWorld(2, WorldOptions{
		Compression: &CompressionConfig{Design: core.Design{Algo: core.AlgoDeflate, Engine: hwmodel.CEngine}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeWorld(comms)
	payload := textPayload(5 << 20)
	run(t, comms, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, payload)
		}
		_, err := c.Recv(0, 0, len(payload)+64)
		return err
	})
	recvClock := comms[1].Clock().Now()
	if recvClock <= 0 {
		t.Fatal("receiver clock did not advance")
	}
	// The receiver's completion must include compression + wire +
	// decompression, i.e., at least the wire time of the compressed data.
	if recvClock < hwmodel.WireLatency(hwmodel.BlueField2, 1<<20) {
		t.Fatalf("receiver clock %v implausibly small", recvClock)
	}
}

func TestCEngineDesignBeatsSoCDesign(t *testing.T) {
	// Fig. 10's central comparison on BF2: the C-Engine DEFLATE design
	// must have far lower communication latency than the SoC DEFLATE
	// design (the paper never compares against uncompressed transfers —
	// all six designs A-F compress).
	payload := textPayload(20 << 20)
	latency := func(engine hwmodel.Engine) time.Duration {
		comms, err := NewWorld(2, WorldOptions{
			Compression: &CompressionConfig{Design: core.Design{Algo: core.AlgoDeflate, Engine: engine}},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer closeWorld(comms)
		run(t, comms, func(c *Comm) error {
			if c.Rank() == 0 {
				return c.Send(1, 0, payload)
			}
			_, err := c.Recv(0, 0, len(payload)+64)
			return err
		})
		return comms[1].Clock().Now()
	}
	soc := latency(hwmodel.SoC)
	ce := latency(hwmodel.CEngine)
	if ratio := float64(soc) / float64(ce); ratio < 10 {
		t.Fatalf("C-Engine design speedup over SoC design = %.1f, want large", ratio)
	}
}

func TestBaselineWorldSlower(t *testing.T) {
	payload := textPayload(5 << 20)
	latency := func(baseline bool) time.Duration {
		comms, err := NewWorld(2, WorldOptions{
			Baseline:    baseline,
			Compression: &CompressionConfig{Design: core.Design{Algo: core.AlgoDeflate, Engine: hwmodel.CEngine}},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer closeWorld(comms)
		run(t, comms, func(c *Comm) error {
			if c.Rank() == 0 {
				return c.Send(1, 0, payload)
			}
			_, err := c.Recv(0, 0, len(payload)+64)
			return err
		})
		return comms[1].Clock().Now()
	}
	base := latency(true)
	pedal := latency(false)
	speedup := float64(base) / float64(pedal)
	if speedup < 3 {
		t.Fatalf("PEDAL speedup over baseline = %.2f, want substantial (paper: up to 88x)", speedup)
	}
}

func TestTCPWorld(t *testing.T) {
	comms, err := NewWorld(2, WorldOptions{TCP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer closeWorld(comms)
	want := textPayload(1 << 20)
	run(t, comms, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, want)
		}
		got, err := c.Recv(0, 0, len(want)+64)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return errors.New("tcp payload mismatch")
		}
		return nil
	})
}

func TestClosedCommRejects(t *testing.T) {
	comms, err := NewWorld(2, WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	comms[0].Close()
	if err := comms[0].Send(1, 0, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if _, err := comms[0].Recv(1, 0, 10); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	comms[1].Close()
}

func TestWorldValidation(t *testing.T) {
	if _, err := NewWorld(0, WorldOptions{}); err == nil {
		t.Fatal("zero-size world accepted")
	}
}

func TestPingPongManyIterations(t *testing.T) {
	comms, err := NewWorld(2, WorldOptions{
		Compression: &CompressionConfig{Design: core.Design{Algo: core.AlgoLZ4, Engine: hwmodel.SoC}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeWorld(comms)
	payload := textPayload(256 << 10)
	const iters = 20
	run(t, comms, func(c *Comm) error {
		for i := 0; i < iters; i++ {
			if c.Rank() == 0 {
				if err := c.Send(1, i, payload); err != nil {
					return err
				}
				if _, err := c.Recv(1, i, len(payload)+64); err != nil {
					return err
				}
			} else {
				got, err := c.Recv(0, i, len(payload)+64)
				if err != nil {
					return err
				}
				if err := c.Send(0, i, got); err != nil {
					return err
				}
			}
		}
		return nil
	})
}
