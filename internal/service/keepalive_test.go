package service

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"pedal/internal/core"
	"pedal/internal/hwmodel"
)

// TestKeepaliveHealthySession: against a live server, the keepalive
// stays quiet and real requests keep flowing alongside the probes. The
// interval and miss budget leave room for a loaded two-core box under
// -race; the loop's sleeps still span at least five intervals.
func TestKeepaliveHealthySession(t *testing.T) {
	addr, _ := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.StartKeepalive(20*time.Millisecond, 5)
	payload := []byte("keepalive does not disturb the data plane")
	for i := 0; i < 20; i++ {
		msg, err := c.Compress(core.Design{Algo: core.AlgoDeflate, Engine: hwmodel.SoC}, core.TypeBytes, payload)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if _, err := c.Decompress(hwmodel.SoC, core.TypeBytes, msg, len(payload)); err != nil {
			t.Fatalf("request %d decompress: %v", i, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if c.Dead() {
		t.Fatal("keepalive declared a live server dead")
	}
	if _, err := c.Health(); err != nil {
		t.Fatalf("health on live session: %v", err)
	}
}

// TestKeepaliveDeclaresPeerDead: when the daemon dies, the keepalive
// crosses its miss budget and every later call — Health included —
// fails fast with ErrPeerDead.
func TestKeepaliveDeclaresPeerDead(t *testing.T) {
	lib, err := core.Init(core.Options{Generation: hwmodel.BlueField2})
	if err != nil {
		t.Fatal(err)
	}
	defer lib.Finalize()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(lib)
	go s.Serve(ln)

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("ping against live server: %v", err)
	}
	c.StartKeepalive(2*time.Millisecond, 3)
	s.Close() // the daemon dies

	deadline := time.Now().Add(2 * time.Second)
	for !c.Dead() {
		if time.Now().After(deadline) {
			t.Fatal("keepalive never declared the dead server")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := c.Health(); !errors.Is(err, ErrPeerDead) {
		t.Fatalf("health after death: got %v, want ErrPeerDead", err)
	}
	if err := c.Ping(); !errors.Is(err, ErrPeerDead) {
		t.Fatalf("ping after death: got %v, want ErrPeerDead", err)
	}
	if _, err := c.Compress(core.Design{Algo: core.AlgoDeflate, Engine: hwmodel.SoC}, core.TypeBytes, []byte("x")); !errors.Is(err, ErrPeerDead) {
		t.Fatalf("compress after death: got %v, want ErrPeerDead", err)
	}
}

// TestPingBypassesAdmission: with every execution slot held and the
// wait queue disabled, data requests shed with ErrBusy while pings
// still answer — overload must not look like death to the keepalive.
func TestPingBypassesAdmission(t *testing.T) {
	addr, srv := startServerWith(t, func(s *Server) {
		s.MaxConcurrent = 1
		s.QueueDepth = -1 // shed the moment the slot is busy
		s.ExecDelay = 200 * time.Millisecond
	})
	_ = srv

	blocker, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer blocker.Close()
	started := make(chan struct{})
	blockDone := make(chan error, 1)
	go func() {
		close(started)
		blockDone <- compressReq(blocker, []byte("slot holder"))
	}()
	<-started
	time.Sleep(20 * time.Millisecond) // let the blocker claim the slot

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := compressReq(c, []byte("shed me")); !errors.Is(err, ErrBusy) {
		t.Fatalf("data request under overload: got %v, want ErrBusy", err)
	}
	for i := 0; i < 5; i++ {
		if err := c.Ping(); err != nil {
			t.Fatalf("ping %d under overload: %v", i, err)
		}
	}
	if err := <-blockDone; err != nil {
		t.Fatalf("slot holder: %v", err)
	}
}

// TestKeepaliveUnblocksInFlightRequest: a request wedged on a
// stopped-responding connection is unwound by the keepalive's teardown
// and reports ErrPeerDead rather than hanging.
func TestKeepaliveUnblocksInFlightRequest(t *testing.T) {
	// A listener that accepts and reads but never responds: the daemon
	// process is gone in all but the TCP handshake.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var sink atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				buf := make([]byte, 4096)
				for {
					n, err := conn.Read(buf)
					sink.Add(int64(n))
					if err != nil {
						return
					}
				}
			}()
		}
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.StartKeepalive(2*time.Millisecond, 3)
	done := make(chan error, 1)
	go func() {
		_, err := c.Health()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrPeerDead) {
			t.Fatalf("wedged request: got %v, want ErrPeerDead", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request never unblocked by the keepalive teardown")
	}
}

// TestStopKeepaliveKeepsSession: stopping the keepalive is not a death
// sentence — the session keeps working without probes.
func TestStopKeepaliveKeepsSession(t *testing.T) {
	addr, _ := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.StartKeepalive(time.Millisecond, 2)
	time.Sleep(5 * time.Millisecond)
	c.StopKeepalive()
	c.StopKeepalive() // idempotent
	if c.Dead() {
		t.Fatal("stop marked the peer dead")
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after stop: %v", err)
	}
}
