package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"time"

	"pedal"
	"pedal/internal/core"
	"pedal/internal/datasets"
	"pedal/internal/mpi"
)

// pingWorld is a 2-rank world with rank 1 echoing whatever rank 0 sends
// until a 1-byte message tells it to stop. Rank 0 is driven by the
// measuring goroutine.
type pingWorld struct {
	comms []*mpi.Comm
	echo  chan error
	// maxLen is the receive buffer both ranks post.
	maxLen int
}

func startPingWorld(pipelined bool, maxLen int) (*pingWorld, error) {
	comms, err := mpi.NewWorld(2, mpi.WorldOptions{
		Generation:  pedal.BlueField2,
		Compression: &mpi.CompressionConfig{Design: pedal.DesignCEngineDeflate, Pipelined: pipelined},
	})
	if err != nil {
		return nil, err
	}
	w := &pingWorld{comms: comms, echo: make(chan error, 1), maxLen: maxLen}
	go func() {
		r := comms[1]
		for {
			got, err := r.Recv(0, mpi.AnyTag, maxLen)
			if err != nil || len(got) == 1 {
				w.echo <- err
				return
			}
			if err := r.Send(0, 0, got); err != nil {
				w.echo <- err
				return
			}
		}
	}()
	return w, nil
}

// pingPong sends data to rank 1 and waits for the echo. It returns the
// round-trip time and the part of it spent blocked in Send.
func (w *pingWorld) pingPong(data []byte) (echo []byte, rtt, send time.Duration, err error) {
	r := w.comms[0]
	t0 := time.Now()
	if err = r.Send(1, 0, data); err != nil {
		return nil, 0, 0, err
	}
	send = time.Since(t0)
	echo, err = r.Recv(1, mpi.AnyTag, w.maxLen)
	return echo, time.Since(t0), send, err
}

func (w *pingWorld) stop() error {
	err := w.comms[0].Send(1, 0, []byte{0})
	if err == nil {
		err = <-w.echo
	}
	for _, c := range w.comms {
		c.Close()
	}
	return err
}

func (w *pingWorld) libs() []*core.Library {
	return []*core.Library{w.comms[0].Pedal(), w.comms[1].Pedal()}
}

func setupMPI(seed int64, scale int) (*instance, error) {
	rng := rand.New(rand.NewSource(seed))
	size := scaled(mib, scale)
	inputs := corpusSlices(rng, datasets.SilesiaSamba(), 8, size)
	worlds := make([]*pingWorld, 0, 2)
	closeAll := func() error {
		var err error
		for _, w := range worlds {
			if e := w.stop(); err == nil {
				err = e
			}
		}
		return err
	}
	for _, pipelined := range []bool{false, true} {
		w, err := startPingWorld(pipelined, size+kib)
		if err != nil {
			closeAll()
			return nil, err
		}
		worlds = append(worlds, w)
	}
	var cycle []op
	var libs []*core.Library
	var orig, comp int
	for wi, w := range worlds {
		w := w
		libs = append(libs, w.libs()...)
		name := [...]string{"serial", "pipelined"}[wi]
		for _, in := range inputs {
			in := in
			// Reference ping-pong with a full byte compare; it also warms
			// both ranks' pools and the rendezvous path.
			echo, _, _, err := w.pingPong(in.Data)
			if err == nil && !bytes.Equal(echo, in.Data) {
				err = fmt.Errorf("%w: %s %s world: echo differs", errMismatch, in.Name, name)
			}
			if err != nil {
				closeAll()
				return nil, fmt.Errorf("reference ping-pong: %w", err)
			}
			digest := crc32.ChecksumIEEE(in.Data)
			label := fmt.Sprintf("%s %s-world pingpong", in.Name, name)
			cycle = append(cycle, op{
				kind: kindMessage, label: label, bytes: 2 * len(in.Data),
				run: func(int) (sample, error) {
					echo, rtt, send, err := w.pingPong(in.Data)
					s := sample{lat: rtt / 2, send: send}
					if err != nil {
						return s, err
					}
					if crc32.ChecksumIEEE(echo) != digest && !bytes.Equal(echo, in.Data) {
						return s, fmt.Errorf("%w: %s: echo differs", errMismatch, label)
					}
					return s, nil
				},
			})
		}
	}
	// The wire payload is not visible from outside Send, so the ratio
	// comes from the same library and design the ranks compress with.
	lib := worlds[0].comms[0].Pedal()
	for _, in := range inputs {
		msg, _, err := lib.Compress(pedal.DesignCEngineDeflate, pedal.TypeBytes, in.Data)
		if err != nil {
			closeAll()
			return nil, err
		}
		orig += len(in.Data)
		comp += len(msg)
		lib.Release(msg)
	}
	return &instance{
		inputs: inputs, cycle: cycle, callers: 1, ratio: float64(orig) / float64(comp),
		link: "in-process channel transport, two rank goroutines per world",
		libs: libs, order: rng,
		virtualNow: func() time.Duration {
			var d time.Duration
			for _, w := range worlds {
				d += w.comms[0].Clock().Now()
			}
			return d
		},
		close: closeAll,
	}, nil
}
