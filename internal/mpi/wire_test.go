package mpi

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"pedal/internal/core"
	"pedal/internal/hwmodel"
	"pedal/internal/pipeline"
)

// socDeflateWorld is a world that compresses its Rendezvous messages
// with SoC_DEFLATE.
func socDeflateWorld(t *testing.T, n int) []*Comm {
	t.Helper()
	comms, err := NewWorld(n, WorldOptions{
		Compression: &CompressionConfig{Design: core.Design{Algo: core.AlgoDeflate, Engine: hwmodel.SoC}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeWorld(comms) })
	return comms
}

// pedalBlob returns a caller-owned copy of Library.Compress's SoC_DEFLATE
// output for src: a payload that carries a valid PEDAL header.
func pedalBlob(t *testing.T, src []byte) []byte {
	t.Helper()
	lib, err := core.Init(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lib.Finalize()
	msg, _, err := lib.Compress(core.Design{Algo: core.AlgoDeflate, Engine: hwmodel.SoC}, core.TypeBytes, src)
	if err != nil {
		t.Fatal(err)
	}
	blob := append([]byte(nil), msg...)
	lib.Release(msg)
	return blob
}

// roundTrips sends want from rank 0 to rank 1 with Send/Recv, then with
// Isend/Irecv, then broadcasts it from rank 0, and fails unless every
// receiver gets want byte for byte. Receives are unbounded, so a payload
// wrongly expanded shows as its expanded size.
func roundTrips(t *testing.T, comms []*Comm, want []byte) {
	t.Helper()
	check := func(how string, got []byte, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", how, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%s: %d bytes in, %d different bytes out", how, len(want), len(got))
		}
		return nil
	}
	run(t, comms, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			if err := c.Send(1, 1, want); err != nil {
				return err
			}
			r, err := c.Isend(1, 2, want)
			if err != nil {
				return err
			}
			if _, err := r.Wait(); err != nil {
				return err
			}
		case 1:
			got, err := c.Recv(0, 1, 0)
			if err := check("Send/Recv", got, err); err != nil {
				return err
			}
			r, err := c.Irecv(0, 2, 0)
			if err != nil {
				return err
			}
			got, err = r.Wait()
			if err := check("Isend/Irecv", got, err); err != nil {
				return err
			}
		}
		var in []byte
		if c.Rank() == 0 {
			in = want
		}
		got, err := c.Bcast(0, in)
		return check("Bcast", got, err)
	})
}

// An eager payload is never compressed, so the receiver must not decode
// it even when its first bytes spell a PEDAL header (ff <algo> ff).
func TestEagerHeaderLookalikeRoundTrips(t *testing.T) {
	want := append([]byte{0xff, byte(core.AlgoLZ4), 0xff}, textPayload(253)...)
	roundTrips(t, socDeflateWorld(t, 3), want)
}

// An eager payload that is itself a complete PEDAL message (an
// application forwarding compressed bytes) arrives as it was sent, not
// expanded.
func TestEagerPedalBlobRoundTrips(t *testing.T) {
	want := pedalBlob(t, textPayload(4000))
	if len(want) >= DefaultRendezvousThreshold {
		t.Fatalf("blob of %d bytes is not eager", len(want))
	}
	roundTrips(t, socDeflateWorld(t, 3), want)
}

// A PEDAL blob on the Rendezvous path arrives byte for byte, both where
// the world compresses it again and where it goes raw.
func TestRendezvousPedalBlobRoundTrips(t *testing.T) {
	raw := make([]byte, 96<<10)
	rand.New(rand.NewSource(19)).Read(raw)
	want := pedalBlob(t, raw)
	if len(want) < DefaultRendezvousThreshold {
		t.Fatalf("blob of %d bytes is not rendezvous", len(want))
	}
	t.Run("compressing", func(t *testing.T) {
		roundTrips(t, socDeflateWorld(t, 3), want)
	})
	t.Run("plain", func(t *testing.T) {
		comms, err := NewWorld(3, WorldOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer closeWorld(comms)
		roundTrips(t, comms, want)
	})
}

// TestEnvelopeGolden pins every frame the runtime puts on the wire:
// kind(1) epoch(4) tag(4) seq(8) origLen(8), all big-endian, then the
// payload. A change to any byte here is a wire-format change.
func TestEnvelopeGolden(t *testing.T) {
	desc := pipeline.AppendDescriptor(nil, pipeline.AlgoDeflate, 3, 256<<10, 600000, 0xdeadbeef)
	chunk := pipeline.AppendChunkFrame(nil, 2, 87856, 0x01020304, []byte("zz"))
	for _, tc := range []struct {
		name  string
		frame []byte
		want  string
	}{
		{"eager", encodeEnvelope(kindEager, 0, 42, 1, 5, []byte("hello")),
			"01" + "00000000" + "0000002a" + "0000000000000001" + "0000000000000005" + "68656c6c6f"},
		{"rts", encodeEnvelope(kindRTS, 2, 7, 9, 70000, nil),
			"02" + "00000002" + "00000007" + "0000000000000009" + "0000000000011170"},
		{"rts-descriptor", encodeEnvelope(kindRTS, 0, 1<<30, 10, 600000, desc),
			"02" + "00000000" + "40000000" + "000000000000000a" + "00000000000927c0" +
				"01" + "03" + "808010" + "c0cf24" + "efbeadde"},
		{"cts", encodeEnvelope(kindCTS, 0, -1, 9, 0, nil),
			"03" + "00000000" + "ffffffff" + "0000000000000009" + "0000000000000000"},
		{"data", encodeEnvelope(kindData, 1, 7, 9, 1<<20, []byte{0xff, 0x01, 0xff}),
			"04" + "00000001" + "00000007" + "0000000000000009" + "0000000000100000" + "ff01ff"},
		{"chunk", encodeEnvelope(kindChunk, 0, 1<<30, 10, 87856, chunk),
			"05" + "00000000" + "40000000" + "000000000000000a" + "0000000000015730" +
				"02" + "b0ae05" + "02" + "04030201" + "7a7a"},
		{"shrink-join", encodeEnvelope(kindShrinkJoin, 3, 0, 0, 0, nil),
			"06" + "00000003" + "00000000" + "0000000000000000" + "0000000000000000"},
		{"shrink-commit", encodeEnvelope(kindShrinkCommit, 3, 0, 0, 0, encodeShrinkCommit(4, []int{0, 2, 130})),
			"07" + "00000003" + "00000000" + "0000000000000000" + "0000000000000000" +
				"00000004" + "03" + "00" + "02" + "8201"},
	} {
		if got := hex.EncodeToString(tc.frame); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
