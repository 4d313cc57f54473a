package main

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net"
	"time"

	"pedal"
	"pedal/internal/core"
	"pedal/internal/datasets"
	"pedal/internal/fleet"
	"pedal/internal/hwmodel"
	"pedal/internal/service"
	"pedal/internal/stats"
)

// shard is one in-process pedald: its own Library and service.Server on
// a loopback listener, exactly what cmd/pedald assembles.
type shard struct {
	lib  *core.Library
	srv  *service.Server
	addr string
	done chan error
}

func startShard() (*shard, error) {
	lib, err := pedal.Init(pedal.Options{Generation: pedal.BlueField2})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		lib.Finalize()
		return nil, err
	}
	s := &shard{lib: lib, srv: service.NewServer(lib), addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop drains the server, waits for its accept loop and releases the
// library.
func (s *shard) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; err == nil && !errors.Is(serr, net.ErrClosed) {
		err = serr
	}
	s.lib.Finalize()
	return err
}

func stopShards(shards []*shard) error {
	var err error
	for _, s := range shards {
		if e := s.stop(); err == nil {
			err = e
		}
	}
	return err
}

// clientTarget drives one shard over one connection per caller.
type clientTarget struct{ clients []*service.Client }

func (t clientTarget) compress(c int, _ string, d core.Design, dt core.DataType, data []byte) ([]byte, error) {
	return t.clients[c].Compress(d, dt, data)
}

func (t clientTarget) decompress(c int, _ string, eng hwmodel.Engine, dt core.DataType, msg []byte, maxOut int) ([]byte, error) {
	return t.clients[c].Decompress(eng, dt, msg, maxOut)
}

func (clientTarget) release([]byte)           {}
func (clientTarget) digest(msg []byte) uint32 { return crc32.ChecksumIEEE(msg) }

// routerTarget drives the fleet router; the op's key picks the shard.
type routerTarget struct{ r *fleet.Router }

func (t routerTarget) compress(_ int, key string, d core.Design, dt core.DataType, data []byte) ([]byte, error) {
	return t.r.Compress(fleet.Request{Key: key, Idempotent: true}, d, dt, data)
}

func (t routerTarget) decompress(_ int, key string, eng hwmodel.Engine, dt core.DataType, msg []byte, maxOut int) ([]byte, error) {
	return t.r.Decompress(fleet.Request{Key: key, Idempotent: true}, eng, dt, msg, maxOut)
}

func (routerTarget) release([]byte)           {}
func (routerTarget) digest(msg []byte) uint32 { return crc32.ChecksumIEEE(msg) }

func dialAll(addr string, n int) ([]*service.Client, error) {
	clients := make([]*service.Client, 0, n)
	for i := 0; i < n; i++ {
		c, err := service.Dial(addr)
		if err != nil {
			closeClients(clients)
			return nil, err
		}
		clients = append(clients, c)
	}
	return clients, nil
}

func closeClients(clients []*service.Client) {
	for _, c := range clients {
		c.Close()
	}
}

func setupSvcConc(seed int64, scale, nproc int) (*instance, error) {
	rng := rand.New(rand.NewSource(seed))
	inputs := mixedCorpora(rng, scaled(mib, scale))
	sh, err := startShard()
	if err != nil {
		return nil, err
	}
	clients, err := dialAll(sh.addr, nproc)
	if err != nil {
		sh.stop()
		return nil, err
	}
	closeAll := func() error {
		closeClients(clients)
		return sh.stop()
	}
	pairs := crossPairs(inputs, pedal.TypeBytes, pedal.DesignSoCDeflate, pedal.DesignCEngineDeflate)
	cycle, ratio, err := buildCodecCycle(clientTarget{clients}, pairs)
	if err != nil {
		closeAll()
		return nil, err
	}
	libs := []*core.Library{sh.lib}
	return &instance{
		inputs: inputs, cycle: cycle, callers: nproc, ratio: ratio,
		link: "loopback TCP 127.0.0.1, server in-process",
		libs: libs, virtualNow: librariesVirtual(libs), order: rng, close: closeAll,
	}, nil
}

// balancedKeys draws one routing key per pair so that the two shards
// are primary for the same number of pairs: both serve, whatever the
// seed.
func balancedKeys(rng *rand.Rand, r *fleet.Router, n int) []string {
	keys := make([]string, 0, n)
	count := map[string]int{}
	for len(keys) < n {
		k := fmt.Sprintf("obj-%08x", rng.Uint32())
		if p := r.Primary(k); count[p] < (n+1)/2 {
			count[p]++
			keys = append(keys, k)
		}
	}
	return keys
}

func setupSvcRPC(seed int64, scale, nproc int) (*instance, error) {
	rng := rand.New(rand.NewSource(seed))
	// The requests are the 4 KiB blocks tiling a 1 MiB stretch of each
	// corpus: single blocks differ too much in compressibility for a few
	// dozen of them to give every seed the same kind of traffic.
	var inputs []input
	for _, d := range []*datasets.Dataset{datasets.SilesiaXML(), datasets.SilesiaSamba(), datasets.SilesiaMR()} {
		stretch := corpusSlices(rng, d, 1, scaled(mib, scale))[0]
		for off := 0; off < len(stretch.Data); off += 4 * kib {
			inputs = append(inputs, input{
				Name: fmt.Sprintf("%s[%d:+4096]", stretch.Name, off),
				Data: stretch.Data[off : off+4*kib : off+4*kib],
			})
		}
	}
	var shards []*shard
	router := fleet.NewRouter(fleet.Config{})
	closeAll := func() error {
		router.Close()
		return stopShards(shards)
	}
	for i := 0; i < 2; i++ {
		sh, err := startShard()
		if err != nil {
			closeAll()
			return nil, err
		}
		shards = append(shards, sh)
		router.AddShard(fmt.Sprintf("shard-%d", i), sh.addr)
	}
	// DEFLATE replies are decoded with the C-Engine preferred, so the
	// small-message path also crosses stage() and the engine queue; LZ4
	// has no BF2 engine path and stays on the SoC.
	var pairs []pair
	for _, in := range inputs {
		pairs = append(pairs,
			pair{in: in, design: pedal.DesignSoCDeflate, dt: pedal.TypeBytes, decEngine: pedal.CEngine},
			pair{in: in, design: pedal.DesignSoCLZ4, dt: pedal.TypeBytes, decEngine: pedal.SoC})
	}
	for i, k := range balancedKeys(rng, router, len(pairs)) {
		pairs[i].key = k
	}
	cycle, ratio, err := buildCodecCycle(routerTarget{router}, pairs)
	if err != nil {
		closeAll()
		return nil, err
	}
	libs := []*core.Library{shards[0].lib, shards[1].lib}
	return &instance{
		inputs: inputs, cycle: cycle, callers: nproc, ratio: ratio,
		link: "loopback TCP 127.0.0.1, two servers in-process behind fleet.Router",
		libs: libs, virtualNow: librariesVirtual(libs), order: rng, close: closeAll,
	}, nil
}

// shardRequests reads how many requests each shard answered.
func shardRequests(shards []*shard) []uint64 {
	out := make([]uint64, len(shards))
	for i, s := range shards {
		out[i] = s.srv.Stats().Count(stats.CounterRequests)
	}
	return out
}
