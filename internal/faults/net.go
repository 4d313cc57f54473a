package faults

import (
	"fmt"
	"time"
)

// NetClass is the network fault class injected into one transport frame.
// Where Class models a C-Engine work queue misbehaving, NetClass models
// the fabric between two DPUs misbehaving: real BlueField deployments see
// dropped, duplicated, reordered, bit-flipped and late frames, and the
// reliability sublayer (internal/transport) must recover all of them.
type NetClass uint8

// Network fault classes.
const (
	// NetNone delivers the frame untouched.
	NetNone NetClass = iota
	// NetDrop silently discards the frame (congestion loss, switch
	// buffer overflow). Only retransmission recovers it.
	NetDrop
	// NetDuplicate delivers the frame twice (retransmit races, routing
	// flaps). The receiver must deduplicate by sequence number.
	NetDuplicate
	// NetReorder holds the frame back so a later frame overtakes it
	// (multipath, adaptive routing). Sequence numbers restore order.
	NetReorder
	// NetCorrupt flips bits in the frame (link-level bit errors past the
	// PHY FCS). Only end-to-end CRC verification catches it.
	NetCorrupt
	// NetDelay adds Delay of virtual latency to the frame (incast
	// queueing, a congested uplink). Data is intact, just late.
	NetDelay
)

func (c NetClass) String() string {
	switch c {
	case NetNone:
		return "none"
	case NetDrop:
		return "drop"
	case NetDuplicate:
		return "duplicate"
	case NetReorder:
		return "reorder"
	case NetCorrupt:
		return "corrupt"
	case NetDelay:
		return "delay"
	default:
		return fmt.Sprintf("NetClass(%d)", uint8(c))
	}
}

// NetDecision is the injector's verdict for one frame.
type NetDecision struct {
	Class NetClass
	// Delay is the injected virtual latency (NetDelay class only).
	Delay time.Duration
	// Bits is a deterministic random value the consumer uses to derive
	// fault details (which bytes to corrupt) without touching any global
	// randomness.
	Bits uint64
}

// NetConfig sets per-frame injection probabilities. Like Config, the
// probabilities are evaluated in struct order against one uniform draw,
// so their sum must not exceed 1; the remainder is the no-fault case.
type NetConfig struct {
	// Seed makes the schedule reproducible; zero selects a fixed default
	// seed (injection stays deterministic either way).
	Seed uint64
	// PDrop, PDuplicate, PReorder, PCorrupt, PDelay are the per-frame
	// probabilities of each fault class.
	PDrop      float64
	PDuplicate float64
	PReorder   float64
	PCorrupt   float64
	PDelay     float64
	// DelayMax bounds the injected virtual latency of the NetDelay
	// class; zero means 200µs. The actual delay is a deterministic
	// uniform draw in (0, DelayMax].
	DelayMax time.Duration
	// MaxInjections bounds the total number of injected faults; zero
	// means unlimited. Tests use it to model a link that flaps for a
	// while and then stabilises.
	MaxInjections int
}

// NetInjector hands out per-frame fault decisions from a deterministic
// sequence, the fabric-side sibling of Injector. Safe for concurrent
// use; concurrency makes the frame→decision assignment racy, but the
// decision *sequence* stays fixed by the seed.
type NetInjector struct {
	stream
	cfg NetConfig
}

// NewNetInjector builds a network fault injector from cfg.
func NewNetInjector(cfg NetConfig) *NetInjector {
	if cfg.DelayMax <= 0 {
		cfg.DelayMax = 200 * time.Microsecond
	}
	return &NetInjector{stream: newStream(cfg.Seed, cfg.MaxInjections), cfg: cfg}
}

// Next draws the fault decision for the next frame.
func (i *NetInjector) Next() NetDecision {
	if i == nil {
		return NetDecision{}
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.seen++
	c := &i.cfg
	// NetConfig lists the probabilities in class order, NetDrop first.
	k := i.draw(&i.rng, c.PDrop, c.PDuplicate, c.PReorder, c.PCorrupt, c.PDelay)
	if k < 0 {
		return NetDecision{}
	}
	i.injected++
	d := NetDecision{Class: NetClass(k + 1), Bits: i.rng.Uint64()}
	if d.Class == NetDelay {
		d.Delay = time.Duration(i.rng.Float64() * float64(c.DelayMax))
		if d.Delay <= 0 {
			d.Delay = 1
		}
	}
	return d
}

// Counts reports how many frames were seen and how many received a fault.
func (i *NetInjector) Counts() (frames, injected uint64) {
	if i == nil {
		return 0, 0
	}
	return i.counts()
}

// DeriveSeed mixes a base seed with a stream index (e.g. a rank) so each
// stream gets an independent but reproducible schedule.
func DeriveSeed(seed, stream uint64) uint64 {
	r := NewRand(seed ^ (stream+1)*0x9e3779b97f4a7c15)
	return r.Uint64()
}
