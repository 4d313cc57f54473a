package main

import (
	"hash/crc32"
	"math/rand"

	"pedal"
	"pedal/internal/core"
	"pedal/internal/datasets"
	"pedal/internal/hwmodel"
	"pedal/internal/pipeline"
)

// libTarget drives a Library in-process. Compress results go back to
// the pool; decompress results do not: at the seed they are plain heap
// buffers, and Release of one drives PoolOutstanding negative (see the
// README's findings).
type libTarget struct{ lib *core.Library }

func (t libTarget) compress(_ int, _ string, d core.Design, dt core.DataType, data []byte) ([]byte, error) {
	msg, _, err := t.lib.Compress(d, dt, data)
	return msg, err
}

func (t libTarget) decompress(_ int, _ string, eng hwmodel.Engine, dt core.DataType, msg []byte, maxOut int) ([]byte, error) {
	out, _, err := t.lib.Decompress(eng, dt, msg, maxOut)
	return out, err
}

func (t libTarget) release(msg []byte)       { t.lib.Release(msg) }
func (t libTarget) digest(msg []byte) uint32 { return crc32.ChecksumIEEE(msg) }

// pipelinedTarget drives the chunk pipeline of a Library.
type pipelinedTarget struct{ libTarget }

func (t pipelinedTarget) compress(_ int, _ string, d core.Design, dt core.DataType, data []byte) ([]byte, error) {
	msg, _, err := t.lib.CompressPipelined(d, dt, data)
	return msg, err
}

func (t pipelinedTarget) decompress(_ int, _ string, eng hwmodel.Engine, _ core.DataType, msg []byte, maxOut int) ([]byte, error) {
	out, _, err := t.lib.DecompressPipelined(eng, msg, maxOut)
	return out, err
}

// digest sums per-frame checksums: chunk frames land in completion
// order, so two correct messages for one input differ in frame order
// and nothing else.
func (t pipelinedTarget) digest(msg []byte) uint32 {
	whole := crc32.ChecksumIEEE(msg)
	_, body, err := core.ParseHeader(msg)
	if err != nil {
		return whole
	}
	_, count, _, _, _, rest, err := pipeline.ParseDescriptor(body)
	if err != nil {
		return whole
	}
	sum := crc32.ChecksumIEEE(body[:len(body)-len(rest)])
	for i := 0; i < count; i++ {
		_, _, _, _, after, err := pipeline.ParseChunkFrame(rest)
		if err != nil {
			return whole
		}
		sum += crc32.ChecksumIEEE(rest[:len(rest)-len(after)])
		rest = after
	}
	return sum
}

// libInstance finishes a single-library workload: reference cycle,
// op order drawn from rng, drain on close.
func libInstance(lib *core.Library, t target, inputs []input, pairs []pair, rng *rand.Rand) (*instance, error) {
	cycle, ratio, err := buildCodecCycle(t, pairs)
	if err != nil {
		lib.Finalize()
		return nil, err
	}
	libs := []*core.Library{lib}
	return &instance{
		inputs: inputs, cycle: cycle, callers: 1, ratio: ratio,
		link: "in-process calls, no socket",
		libs: libs, virtualNow: librariesVirtual(libs), order: rng,
		close: func() error { lib.Finalize(); return nil },
	}, nil
}

func crossPairs(inputs []input, dt core.DataType, designs ...core.Design) []pair {
	var pairs []pair
	for _, in := range inputs {
		for _, d := range designs {
			pairs = append(pairs, pair{in: in, design: d, dt: dt, decEngine: d.Engine})
		}
	}
	return pairs
}

func setupLibMixed(seed int64, scale int) (*instance, error) {
	rng := rand.New(rand.NewSource(seed))
	inputs := mixedCorpora(rng, scaled(mib, scale))
	lib, err := pedal.Init(pedal.Options{Generation: pedal.BlueField2})
	if err != nil {
		return nil, err
	}
	pairs := crossPairs(inputs, pedal.TypeBytes, pedal.DesignSoCDeflate, pedal.DesignCEngineDeflate, pedal.DesignSoCLZ4)
	return libInstance(lib, libTarget{lib}, inputs, pairs, rng)
}

func setupLibBulk(seed int64, scale int) (*instance, error) {
	rng := rand.New(rand.NewSource(seed))
	// 8 MiB less a seeded 0-4 KiB: the last chunk is uneven, as real
	// message sizes make it, and the modelled makespan (a function of
	// sizes alone on this path) differs from seed to seed.
	size := scaled(8*mib, scale) - 64*rng.Intn(64)
	var inputs []input
	for _, d := range []*datasets.Dataset{datasets.SilesiaSamba(), datasets.SilesiaMozilla()} {
		inputs = append(inputs, corpusSlices(rng, d, 1, size)...)
	}
	lib, err := pedal.Init(pedal.Options{Generation: pedal.BlueField3})
	if err != nil {
		return nil, err
	}
	// Compress on the SoC workers (BF3's engine cannot compress), decode
	// with the C-Engine preferred: the paper's BF3 pipelined design.
	var pairs []pair
	for _, in := range inputs {
		pairs = append(pairs, pair{in: in, design: pedal.DesignSoCDeflate, dt: pedal.TypeBytes, decEngine: pedal.CEngine})
	}
	return libInstance(lib, pipelinedTarget{libTarget{lib}}, inputs, pairs, rng)
}

func setupLibLossy(seed int64, scale int) (*instance, error) {
	rng := rand.New(rand.NewSource(seed))
	size := scaled(4*mib, scale)
	inputs := corpusSlices(rng, datasets.ExaaltDataset1(), 2, size)
	lib, err := pedal.Init(pedal.Options{Generation: pedal.BlueField2})
	if err != nil {
		return nil, err
	}
	pairs := crossPairs(inputs, pedal.TypeFloat32, pedal.DesignSoCSZ3, pedal.DesignCEngineSZ3)
	in, err := libInstance(lib, libTarget{lib}, inputs, pairs, rng)
	if err == nil {
		in.float32Inputs = true
	}
	return in, err
}
