package faults

// Compute-level failure classes: silent data corruption (SDC) in the
// compression kernels themselves. Unlike Corrupt (which flips a bit
// *after* the engine computed its output checksum, so CRC verification
// catches it), these classes corrupt the kernel's product *before* any
// checksum is taken — the corrupted bytes carry a perfectly valid
// digest, and only decode-verification against the source (or a
// scalar-vs-slab differential referee) can tell.
const (
	// KernelFlip flips one bit of a kernel's compressed output — the
	// classic SDC signature of a marginal ALU or a miscompiled SWAR
	// lane producing a single wrong word.
	KernelFlip Class = iota + 80
	// QuantDrift perturbs one byte of the output by ±1 — the
	// off-by-one quantizer-code drift a broken rounding path produces
	// in the SZ3 code stream (and a generic near-miss elsewhere).
	QuantDrift
	// BufferStomp overwrites a span of the output with stale bytes, as
	// if a recycled mempool buffer leaked its previous contents into
	// the result (a missing-barrier / premature-reuse bug).
	BufferStomp
)

// ComputeDecision is the injector's verdict for one kernel execution.
// Off/Bit/Span position the corruption; Apply interprets them modulo
// the actual output length.
type ComputeDecision struct {
	Class Class
	// Off selects the corrupted byte offset (modulo the output length).
	Off uint64
	// Bit selects the flipped bit within the byte (KernelFlip).
	Bit uint64
	// Span is the stale-byte run length (BufferStomp).
	Span int
	// Drift is +1 or -1 (QuantDrift).
	Drift int
}

// ComputeFaultConfig draws a deterministic SDC schedule. Probabilities
// are per kernel execution and evaluated in struct order against one
// uniform draw, like Config.
type ComputeFaultConfig struct {
	// Seed makes the schedule reproducible; zero selects the fixed
	// default seed. Each core derives its own independent stream from
	// it, so a fixed seed pins the whole per-core schedule matrix.
	Seed uint64
	// PKernelFlip, PQuantDrift, PBufferStomp are the per-execution
	// probabilities of each class.
	PKernelFlip  float64
	PQuantDrift  float64
	PBufferStomp float64
	// StompSpan is the stale run length for BufferStomp; zero means 16.
	StompSpan int
	// MaxInjections bounds the number of corruptions actually applied
	// across all cores, counting those drawn but not yet applied; zero
	// means unlimited. Quarantine/readmit soaks use this to model a unit
	// that goes bad and then recovers.
	MaxInjections int
	// Cores restricts injection to these core IDs when non-nil — a
	// single marginal complex instead of machine-wide decay.
	Cores []int
}

// ComputeInjector hands out per-kernel-execution SDC decisions from
// deterministic per-core schedules. Core IDs are small integers: 0 is
// the serial path / C-Engine complex, 1..N the pipeline worker cores.
// Safe for concurrent use; a nil injector injects nothing.
type ComputeInjector struct {
	stream
	cfg   ComputeFaultConfig
	cores map[int]*Rand
	// pending counts faults drawn but not yet applied. They count against
	// MaxInjections, so a caller that applies later than it draws (the
	// C-Engine draws at dispatch, its lanes apply) sees the budget a
	// caller applying at once would.
	pending uint64
}

// NewComputeInjector builds an injector from cfg.
func NewComputeInjector(cfg ComputeFaultConfig) *ComputeInjector {
	if cfg.StompSpan <= 0 {
		cfg.StompSpan = 16
	}
	// Each core draws from its own Rand (coreRNG); the stream's goes unused.
	return &ComputeInjector{stream: stream{max: cfg.MaxInjections}, cfg: cfg, cores: make(map[int]*Rand)}
}

// coreRNG returns core's private stream, derived from the seed so every
// core's schedule is independent yet pinned by one number.
func (i *ComputeInjector) coreRNG(core int) *Rand {
	r := i.cores[core]
	if r == nil {
		r = NewRand(i.cfg.Seed ^ (0x9e3779b97f4a7c15 * (uint64(core) + 1)))
		i.cores[core] = r
	}
	return r
}

func (i *ComputeInjector) coreArmed(core int) bool {
	if i.cfg.Cores == nil {
		return true
	}
	for _, c := range i.cfg.Cores {
		if c == core {
			return true
		}
	}
	return false
}

// Next draws the SDC decision for the next kernel execution on core.
// Drawing injects nothing yet: Apply counts the corruptions it makes,
// and every fault drawn must be handed to Apply.
func (i *ComputeInjector) Next(core int) ComputeDecision {
	if i == nil {
		return ComputeDecision{}
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.seen++
	if !i.coreArmed(core) || (i.max > 0 && i.injected+i.pending >= uint64(i.max)) {
		return ComputeDecision{}
	}
	var d ComputeDecision
	rng := i.coreRNG(core)
	switch i.draw(rng, i.cfg.PKernelFlip, i.cfg.PQuantDrift, i.cfg.PBufferStomp) {
	case 0:
		d = ComputeDecision{Class: KernelFlip, Off: rng.Uint64(), Bit: rng.Uint64() % 8}
	case 1:
		drift := 1
		if rng.Uint64()&1 == 1 {
			drift = -1
		}
		d = ComputeDecision{Class: QuantDrift, Off: rng.Uint64(), Drift: drift}
	case 2:
		d = ComputeDecision{Class: BufferStomp, Off: rng.Uint64(), Span: i.cfg.StompSpan}
	default:
		return d
	}
	i.pending++
	return d
}

// Apply mutates out in place according to d and reports whether any
// byte actually changed (an empty output cannot be corrupted). Only
// applied corruptions count toward Counts.
func (i *ComputeInjector) Apply(d ComputeDecision, out []byte) bool {
	if i == nil || d.Class == None {
		return false
	}
	applied := corrupt(d, out)
	i.mu.Lock()
	if i.pending > 0 {
		i.pending--
	}
	if applied {
		i.injected++
	}
	i.mu.Unlock()
	return applied
}

// corrupt mutates out in place according to d and reports whether any
// byte changed.
func corrupt(d ComputeDecision, out []byte) bool {
	if len(out) == 0 {
		return false
	}
	switch d.Class {
	case KernelFlip:
		out[d.Off%uint64(len(out))] ^= 1 << (d.Bit % 8)
	case QuantDrift:
		// Aim at the middle half of the stream — for SZ3 containers
		// that is the packed code section, elsewhere it is an arbitrary
		// payload byte. Either way the digest stays "valid".
		lo := len(out) / 4
		span := len(out) - lo - len(out)/4
		if span <= 0 {
			lo, span = 0, len(out)
		}
		out[lo+int(d.Off%uint64(span))] += byte(d.Drift)
	case BufferStomp:
		start := int(d.Off % uint64(len(out)))
		n := d.Span
		if n <= 0 {
			n = 1
		}
		if start+n > len(out) {
			n = len(out) - start
		}
		for j := 0; j < n; j++ {
			// A recognisable stale-mempool pattern: the 0xA5 poison
			// value xored with the position, as a previous tenant's
			// bytes would read.
			out[start+j] = 0xA5 ^ byte(j)
		}
	default:
		return false
	}
	return true
}

// Corrupt draws core's decision for one kernel execution and applies it
// to out — the whole of a producer's SDC hook. It reports whether a byte
// changed; a nil injector corrupts nothing.
func (i *ComputeInjector) Corrupt(core int, out []byte) bool {
	d := i.Next(core)
	return d.Class != None && i.Apply(d, out)
}

// Counts reports how many kernel executions were seen and how many had
// a corruption applied.
func (i *ComputeInjector) Counts() (ops, injected uint64) {
	if i == nil {
		return 0, 0
	}
	return i.counts()
}
