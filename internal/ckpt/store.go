package ckpt

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"pedal/internal/checksum"
	"pedal/internal/integrity"
	"pedal/internal/stats"
	"pedal/internal/trace"
)

// On-disk layout, all under the FS root:
//
//	epoch-<16-hex>/            committed checkpoint (manifest + shards)
//	  MANIFEST
//	  shard-<5-dec>.<copy>
//	.staging-<16-hex>/         commit in progress; ignored by restore,
//	                           cleaned by Open and the next Commit
//	.condemned-<16-hex>/       epoch retired by Scrub
//	quarantine/                corrupt shard copies moved aside by repair
const (
	manifestName  = "MANIFEST"
	quarantineDir = "quarantine"
)

func epochDirName(e uint64) string     { return fmt.Sprintf("epoch-%016x", e) }
func stagingDirName(e uint64) string   { return fmt.Sprintf(".staging-%016x", e) }
func condemnedDirName(e uint64) string { return fmt.Sprintf(".condemned-%016x", e) }
func shardFileName(rank int, copy uint8) string {
	return fmt.Sprintf("shard-%05d.%d", rank, copy)
}

// ShardPath returns the path of one shard copy inside a committed
// epoch.
func ShardPath(e uint64, rank int, copy uint8) string {
	return epochDirName(e) + "/" + shardFileName(rank, copy)
}

// parseEpochDir recovers the epoch from a directory name with the given
// prefix.
func parseEpochDir(name, prefix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) {
		return 0, false
	}
	var e uint64
	if _, err := fmt.Sscanf(name[len(prefix):], "%016x", &e); err != nil {
		return 0, false
	}
	return e, true
}

// Source re-materialises a shard's original (uncompressed) content —
// the last rung of the repair ladder, used when every on-disk copy of a
// shard has rotted. Checkpoint writers that still hold (or can
// regenerate) the state they checkpointed install one with SetSource.
type Source func(epoch uint64, rank int) ([]byte, error)

// Config tunes a Store. Compressor is required.
type Config struct {
	// Compressor encodes and decodes shard payloads (local library,
	// fleet router, or nop).
	Compressor Compressor
	// Replicas is how many copies of each shard one epoch keeps; rot in
	// one copy read-repairs from a survivor. Zero means 1; max 4.
	Replicas int
	// Retain is how many committed epochs Commit keeps before removing
	// the oldest; zero means 2 (the new epoch and its predecessor).
	Retain int
	// MaxShardBytes bounds one decompressed shard at restore; zero
	// means 1 GiB.
	MaxShardBytes int
	// Algo, DataType, BoundMode, ErrorBound are recorded in the
	// manifest (error-bound config travels with the data it encoded).
	Algo       uint8
	DataType   uint8
	BoundMode  uint8
	ErrorBound float64
	// Stats receives the store's counters; nil allocates a private
	// breakdown.
	Stats *stats.Breakdown
	// Tracer, when set, records commit/repair/condemn events under
	// Engine "ckpt".
	Tracer *trace.Tracer
}

// Store is a crash-consistent checkpoint store over an FS. Safe for
// concurrent use; commits are serialised by the FS protocol itself
// (strictly increasing epochs).
type Store struct {
	fs     FS
	cfg    Config
	bd     *stats.Breakdown
	source Source
}

// Open builds a store over fs and sweeps leftovers of interrupted
// commits (stale staging directories) — the recovery half of the
// two-phase commit.
func Open(fs FS, cfg Config) (*Store, error) {
	if cfg.Compressor == nil {
		return nil, errors.New("ckpt: Config.Compressor is required")
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.Replicas > 4 {
		cfg.Replicas = 4
	}
	if cfg.Retain <= 0 {
		cfg.Retain = 2
	}
	if cfg.MaxShardBytes <= 0 {
		cfg.MaxShardBytes = 1 << 30
	}
	bd := cfg.Stats
	if bd == nil {
		bd = stats.NewBreakdown()
	}
	s := &Store{fs: fs, cfg: cfg, bd: bd}
	names, err := fs.ReadDir(".")
	if err != nil {
		// An empty root is fine; a broken FS is not.
		if mkErr := fs.MkdirAll("."); mkErr != nil {
			return nil, err
		}
	}
	for _, n := range names {
		if _, ok := parseEpochDir(n, ".staging-"); ok {
			// Best-effort: a crashed store (injected kill) refuses the
			// removal; the next healthy Open or Commit gets it.
			_ = fs.RemoveAll(n)
		}
	}
	return s, nil
}

// Stats exposes the store's counters.
func (s *Store) Stats() *stats.Breakdown { return s.bd }

// SetSource installs the re-materialisation callback for the repair
// ladder's last rung.
func (s *Store) SetSource(src Source) { s.source = src }

// Epochs lists committed epochs, ascending.
func (s *Store) Epochs() ([]uint64, error) {
	names, err := s.fs.ReadDir(".")
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, n := range names {
		if e, ok := parseEpochDir(n, "epoch-"); ok {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Commit persists one checkpoint under the two-phase protocol:
//
//  1. every shard is compressed, written (Replicas copies) into a
//     hidden staging directory, and fsync'd, its CRC digested during
//     the write;
//  2. the manifest (epoch, shard digests, compression config) is
//     written and fsync'd into staging;
//  3. the staging directory is atomically renamed to its epoch name
//     and the root directory fsync'd.
//
// A crash at any instant leaves either the previous complete
// checkpoint (rename not yet executed: restore ignores staging) or the
// new one (rename executed: everything inside was already durable).
// Epochs must be strictly increasing. Old epochs beyond Retain are
// removed best-effort after the rename — by then the commit stands.
func (s *Store) Commit(epoch uint64, shards [][]byte) (*Manifest, error) {
	if len(shards) == 0 {
		return nil, errors.New("ckpt: empty checkpoint")
	}
	if len(shards) > MaxShards {
		return nil, fmt.Errorf("ckpt: %d shards exceeds limit %d", len(shards), MaxShards)
	}
	existing, err := s.Epochs()
	if err != nil {
		return nil, err
	}
	if n := len(existing); n > 0 && existing[n-1] >= epoch {
		return nil, fmt.Errorf("ckpt: epoch %d not above committed epoch %d", epoch, existing[n-1])
	}

	staging := stagingDirName(epoch)
	_ = s.fs.RemoveAll(staging) // stale leftover from an interrupted run
	if err := s.fs.MkdirAll(staging); err != nil {
		return nil, err
	}
	m := &Manifest{
		Epoch:      epoch,
		Replicas:   uint8(s.cfg.Replicas),
		Algo:       s.cfg.Algo,
		DataType:   s.cfg.DataType,
		BoundMode:  s.cfg.BoundMode,
		ErrorBound: s.cfg.ErrorBound,
		Shards:     make([]ShardInfo, len(shards)),
	}
	dir := epochDirName(epoch)
	for rank, data := range shards {
		payload, crc, err := s.compressShard(dir+"/"+shardFileName(rank, 0), data)
		if err != nil {
			_ = s.fs.RemoveAll(staging)
			return nil, fmt.Errorf("ckpt: compress shard %d: %w", rank, err)
		}
		if got := checksum.CRC32(payload); got != crc {
			// The compressor's source digest disagrees with the bytes that
			// arrived here: the shard was damaged on the compressor hop.
			// Typed abort before anything reaches disk.
			s.bd.Inc(stats.CounterHopsRejected)
			_ = s.fs.RemoveAll(staging)
			return nil, &integrity.CorruptError{Hop: "ckpt.commit", Segment: "shard", Index: rank, Want: crc, Got: got}
		}
		m.Shards[rank] = ShardInfo{Size: uint64(len(payload)), CRC: crc}
		for c := uint8(0); c < m.Replicas; c++ {
			p := staging + "/" + shardFileName(rank, c)
			if err := s.fs.WriteFile(p, payload); err != nil {
				return nil, s.abortCommit(staging, err)
			}
			if err := s.fs.Sync(p); err != nil {
				return nil, s.abortCommit(staging, err)
			}
			// Read-back verification: a torn or rotten write is silent (the
			// syscall "succeeded"), so every copy is digest-checked before
			// the commit may proceed — the failure becomes a clean typed
			// abort instead of a committed epoch with a bad shard.
			if rb, rerr := s.fs.ReadFile(p); rerr != nil || !verifyPayload(rb, m.Shards[rank]) {
				return nil, s.abortCommit(staging,
					fmt.Errorf("ckpt: commit verification: %w: copy %s torn or rotten at write", ErrShardRot, p))
			}
		}
	}
	mp := staging + "/" + manifestName
	if err := s.fs.WriteFile(mp, m.Encode()); err != nil {
		return nil, s.abortCommit(staging, err)
	}
	if err := s.fs.Sync(mp); err != nil {
		return nil, s.abortCommit(staging, err)
	}
	// Same read-back check for the manifest: a torn manifest write would
	// otherwise commit an epoch that can never be opened.
	if rb, rerr := s.fs.ReadFile(mp); rerr != nil {
		return nil, s.abortCommit(staging, fmt.Errorf("ckpt: commit verification: %w: %v", ErrTornManifest, rerr))
	} else if rm, derr := DecodeManifest(rb); derr != nil || rm.Epoch != epoch {
		return nil, s.abortCommit(staging,
			fmt.Errorf("ckpt: commit verification: %w: manifest torn at write", ErrTornManifest))
	}
	if err := s.fs.Sync(staging); err != nil {
		return nil, s.abortCommit(staging, err)
	}
	// The commit point: one atomic rename.
	if err := s.fs.Rename(staging, dir); err != nil {
		return nil, s.abortCommit(staging, err)
	}
	_ = s.fs.Sync(".")
	s.bd.Inc(stats.CounterCkptCommits)
	s.trace("commit", dir, "")
	// Retention GC, best-effort: the new epoch is already durable.
	if keep := s.cfg.Retain; len(existing)+1 > keep {
		for _, old := range existing[:len(existing)+1-keep] {
			_ = s.fs.RemoveAll(epochDirName(old))
		}
	}
	return m, nil
}

// compressShard runs one shard through the compressor, preferring the
// checked path when the compressor offers it: the returned CRC is then
// the digest computed at the compression source, so Commit's
// verification spans the whole compressor hop. Plain compressors get
// their digest computed here (the pre-integrity behaviour).
func (s *Store) compressShard(key string, data []byte) ([]byte, uint32, error) {
	if cc, ok := s.cfg.Compressor.(CheckedCompressor); ok {
		return cc.CompressChecked(key, data)
	}
	payload, err := s.cfg.Compressor.Compress(key, data)
	if err != nil {
		return nil, 0, err
	}
	return payload, checksum.CRC32(payload), nil
}

// abortCommit tears down a failed staging directory. After an injected
// crash the RemoveAll fails too — by design: the dead process cannot
// clean up, Open does it on restart.
func (s *Store) abortCommit(staging string, err error) error {
	_ = s.fs.RemoveAll(staging)
	return err
}

// trace records a storage fault-domain event.
func (s *Store) trace(op, who, errText string) {
	s.cfg.Tracer.Record(trace.Event{Engine: "ckpt", Op: op, Algo: who, Err: errText})
}
