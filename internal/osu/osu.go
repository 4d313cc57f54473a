// Package osu implements benchmark loops modelled on the OSU
// Micro-Benchmarks the paper uses in §V-D and §V-E: point-to-point
// latency (osu_latency) and broadcast latency (osu_bcast), run over the
// simulated MPI runtime with PEDAL compression designs.
//
// Latencies are virtual-time results from the calibrated hardware model:
// the shape of the paper's Figs. 10-11 (who wins, by what factor) is the
// reproduction target, not absolute silicon numbers.
package osu

import (
	"fmt"
	"sync"
	"time"

	"pedal/internal/mpi"
)

// P2PConfig parameterises a point-to-point latency run.
type P2PConfig struct {
	// World configures the runtime (generation, compression design,
	// baseline mode).
	World mpi.WorldOptions
	// Sizes are the message sizes to sweep.
	Sizes []int
	// Iterations per size (after one warmup); zero means 4.
	Iterations int
	// Payload generates the message content for a size; nil means
	// moderately compressible text.
	Payload func(size int) []byte
}

// P2PResult is one point of an osu_latency sweep.
type P2PResult struct {
	Size int
	// Latency is the modelled one-way latency (virtual time).
	Latency time.Duration
	// Wall is the real wall-clock per iteration (sanity signal only).
	Wall time.Duration
}

// DefaultPayload produces text-like compressible data.
func DefaultPayload(size int) []byte {
	unit := []byte("<packet seq=\"0017\"><payload>bench data for the latency sweep</payload></packet>\n")
	out := make([]byte, size)
	for i := 0; i < size; i += len(unit) {
		copy(out[i:], unit)
	}
	return out
}

// RunLatency executes the osu_latency ping-pong for every size and
// returns per-size one-way latencies.
func RunLatency(cfg P2PConfig) ([]P2PResult, error) {
	iters := cfg.Iterations
	if iters == 0 {
		iters = 4
	}
	payloadFn := cfg.Payload
	if payloadFn == nil {
		payloadFn = DefaultPayload
	}
	results := make([]P2PResult, 0, len(cfg.Sizes))
	for _, size := range cfg.Sizes {
		comms, err := mpi.NewWorld(2, cfg.World)
		if err != nil {
			return nil, err
		}
		payload := payloadFn(size)
		wallStart := time.Now()
		if err := pingPong(comms, payload, iters); err != nil {
			for _, c := range comms {
				c.Close()
			}
			return nil, fmt.Errorf("osu: size %d: %w", size, err)
		}
		wall := time.Since(wallStart)
		// One-way latency: rank 0's virtual clock accumulated the full
		// ping-pong round trips.
		total := comms[0].Clock().Now()
		results = append(results, P2PResult{
			Size:    size,
			Latency: total / time.Duration(2*iters),
			Wall:    wall / time.Duration(iters),
		})
		for _, c := range comms {
			c.Close()
		}
	}
	return results, nil
}

func pingPong(comms []*mpi.Comm, payload []byte, iters int) error {
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, c := range comms {
		wg.Add(1)
		go func(c *mpi.Comm) {
			defer wg.Done()
			max := len(payload) + 1024
			for i := 0; i < iters; i++ {
				if c.Rank() == 0 {
					if err := c.Send(1, i, payload); err != nil {
						errs <- err
						return
					}
					if _, err := c.Recv(1, i, max); err != nil {
						errs <- err
						return
					}
				} else {
					got, err := c.Recv(0, i, max)
					if err != nil {
						errs <- err
						return
					}
					if err := c.Send(0, i, got); err != nil {
						errs <- err
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// BcastConfig parameterises an osu_bcast run.
type BcastConfig struct {
	World mpi.WorldOptions
	// Nodes is the number of ranks (the paper uses four).
	Nodes int
	// Sizes are the broadcast payload sizes.
	Sizes []int
	// Iterations per size; zero means 3.
	Iterations int
	// Payload as in P2PConfig.
	Payload func(size int) []byte
}

// BcastResult is one point of an osu_bcast sweep.
type BcastResult struct {
	Size int
	// Latency is the modelled time until the slowest rank completed the
	// broadcast.
	Latency time.Duration
	Wall    time.Duration
}

// RunBcast executes MPI_Bcast sweeps and reports the completion time of
// the slowest rank per iteration (osu_bcast's max-latency metric).
func RunBcast(cfg BcastConfig) ([]BcastResult, error) {
	iters := cfg.Iterations
	if iters == 0 {
		iters = 3
	}
	nodes := cfg.Nodes
	if nodes == 0 {
		nodes = 4
	}
	payloadFn := cfg.Payload
	if payloadFn == nil {
		payloadFn = DefaultPayload
	}
	results := make([]BcastResult, 0, len(cfg.Sizes))
	for _, size := range cfg.Sizes {
		comms, err := mpi.NewWorld(nodes, cfg.World)
		if err != nil {
			return nil, err
		}
		payload := payloadFn(size)
		wallStart := time.Now()
		var wg sync.WaitGroup
		errs := make(chan error, nodes)
		for _, c := range comms {
			wg.Add(1)
			go func(c *mpi.Comm) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					var in []byte
					if c.Rank() == 0 {
						in = payload
					}
					if _, err := c.Bcast(0, in); err != nil {
						errs <- err
						return
					}
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			for _, c := range comms {
				c.Close()
			}
			return nil, fmt.Errorf("osu: bcast size %d: %w", size, err)
		}
		wall := time.Since(wallStart)
		var slowest time.Duration
		for _, c := range comms {
			if t := c.Clock().Now(); t > slowest {
				slowest = t
			}
		}
		results = append(results, BcastResult{
			Size:    size,
			Latency: slowest / time.Duration(iters),
			Wall:    wall / time.Duration(iters),
		})
		for _, c := range comms {
			c.Close()
		}
	}
	return results, nil
}
