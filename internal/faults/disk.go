package faults

import "time"

// Storage-level failure classes. These model what a disk (or the kernel
// above it) does to a checkpoint store: writes that land only partially,
// bits that rot silently after a successful write, I/O that stalls, and
// the process dying mid-commit with the store in whatever state the last
// completed syscall left it.
const (
	// DiskTear truncates one write: only a prefix of the buffer reaches
	// the file, the way a power cut mid-write leaves a torn page. The
	// syscall still "succeeds", so only digest verification catches it.
	DiskTear Class = iota + 64
	// DiskRot flips one bit of a byte range after it was durably
	// written — silent media decay that no write-path check can see;
	// only a scrub or a read-time digest mismatch detects it.
	DiskRot
	// DiskStall delays one I/O operation, modelling a device that went
	// away for a queue flush or a remapped-sector retry.
	DiskStall
	// CrashMidCommit kills the writer at a syscall boundary: the
	// triggering write is torn and every later mutation fails with a
	// crashed-store error. Restart sees exactly the bytes that were
	// durable at the kill point — the invariant a two-phase commit must
	// survive at *every* possible kill point.
	CrashMidCommit
)

// DiskDecision is the injector's verdict for one storage operation.
type DiskDecision struct {
	Class Class
	// Stall is the injected delay (DiskStall only).
	Stall time.Duration
	// Frac is the fraction of the buffer that lands before a tear
	// (DiskTear and CrashMidCommit), in [0, 1).
	Frac float64
	// Bit selects the flipped bit for DiskRot, taken modulo the number
	// of bits in the target range.
	Bit uint64
}

// DiskFaultConfig draws a deterministic storage-failure schedule.
// Probabilities are per mutating operation and evaluated in struct
// order against one uniform draw, like Config.
type DiskFaultConfig struct {
	// Seed makes the schedule reproducible; zero selects the fixed
	// default seed.
	Seed uint64
	// PTear, PRot, PStall are the per-operation probabilities of each
	// class.
	PTear  float64
	PRot   float64
	PStall float64
	// CrashAfterOps, when positive, fires CrashMidCommit at the Nth
	// mutating operation (1-based): that op tears and every later one
	// fails. The crash-sweep test iterates this over every syscall index
	// of a commit to prove atomicity at all kill points.
	CrashAfterOps int
	// Stall is the delay injected by DiskStall; zero means 2ms.
	Stall time.Duration
	// MaxInjections bounds the number of injected tear/rot/stall faults
	// (the crash, once armed, always fires); zero means unlimited.
	MaxInjections int
}

// DiskInjector hands out per-operation storage fault decisions from a
// deterministic sequence. Safe for concurrent use.
type DiskInjector struct {
	stream
	cfg     DiskFaultConfig
	crashed bool
}

// NewDiskInjector builds an injector from cfg. A nil injector (or a
// zero config) injects nothing.
func NewDiskInjector(cfg DiskFaultConfig) *DiskInjector {
	if cfg.Stall <= 0 {
		cfg.Stall = 2 * time.Millisecond
	}
	return &DiskInjector{stream: newStream(cfg.Seed, cfg.MaxInjections), cfg: cfg}
}

// Next draws the fault decision for the next mutating storage operation.
func (i *DiskInjector) Next() DiskDecision {
	if i == nil {
		return DiskDecision{}
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.seen++
	if i.crashed || (i.cfg.CrashAfterOps > 0 && i.seen >= uint64(i.cfg.CrashAfterOps)) {
		d := DiskDecision{Class: CrashMidCommit}
		if !i.crashed {
			i.crashed = true
			i.injected++
			d.Frac = i.rng.Float64()
		}
		return d
	}
	switch i.draw(&i.rng, i.cfg.PTear, i.cfg.PRot, i.cfg.PStall) {
	case 0:
		i.injected++
		return DiskDecision{Class: DiskTear, Frac: i.rng.Float64()}
	case 1:
		i.injected++
		return DiskDecision{Class: DiskRot, Bit: i.rng.Uint64()}
	case 2:
		i.injected++
		return DiskDecision{Class: DiskStall, Stall: i.cfg.Stall}
	}
	return DiskDecision{}
}

// Crashed reports whether the CrashMidCommit trigger has fired.
func (i *DiskInjector) Crashed() bool {
	if i == nil {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.crashed
}

// Counts reports how many operations were seen and how many received a
// fault.
func (i *DiskInjector) Counts() (ops, injected uint64) {
	if i == nil {
		return 0, 0
	}
	return i.counts()
}
