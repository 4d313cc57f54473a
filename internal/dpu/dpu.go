// Package dpu models NVIDIA BlueField-2 and BlueField-3 DPUs: the ARM
// System-on-Chip complex, the hardware compression accelerator
// ("C-Engine"), the per-generation capability matrix of the paper's
// Table II, and the two host modes (§II-A).
//
// The C-Engine executes real compression work (via the from-scratch Go
// codecs) on an asynchronous job queue, the way the real accelerator is
// driven through DOCA work queues: one dispatcher drains the queue in
// order and runs each job's host work on one of runtime.GOMAXPROCS(0)
// lanes. Virtual durations come from the calibrated cost model in
// internal/hwmodel, one job at a time, as for a serial engine.
package dpu

import (
	"errors"
	"fmt"

	"pedal/internal/faults"
	"pedal/internal/hwmodel"
)

// Mode is the DPU operating mode (paper §II-A).
type Mode uint8

// Operating modes. PEDAL requires SeparatedHost: SmartNIC (Embedded CPU
// Function) mode loses RDMA-IB support on the host.
const (
	SeparatedHost Mode = iota + 1
	SmartNIC
)

func (m Mode) String() string {
	switch m {
	case SeparatedHost:
		return "Separated Host"
	case SmartNIC:
		return "SmartNIC (Embedded CPU Function)"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Errors returned by device construction and job submission.
var (
	ErrUnsupported = errors.New("dpu: operation not supported by this engine")
	ErrClosed      = errors.New("dpu: device closed")
)

// Runtime failure classes, the way real DOCA work queues surface them in
// completion statuses. ErrUnsupported and ErrClosed above are *static*
// conditions; these are *dynamic* faults a healthy retry/fallback layer
// must absorb.
var (
	// ErrTransient is a retryable engine fault; an immediate
	// resubmission may succeed.
	ErrTransient = errors.New("dpu: transient engine fault")
	// ErrHardware is a persistent engine failure; retrying is futile
	// until the engine recovers.
	ErrHardware = errors.New("dpu: hardware engine failure")
	// ErrQueueFull rejects a submission on a busy work queue (EAGAIN).
	ErrQueueFull = errors.New("dpu: work queue full")
	// ErrDeadline fires when a job misses its completion deadline.
	ErrDeadline = errors.New("dpu: job deadline exceeded")
	// ErrCorrupt marks engine output whose checksum failed verification.
	ErrCorrupt = errors.New("dpu: engine output failed checksum")
	// ErrEngineLost marks a job lost to an engine fault-domain event: the
	// watchdog declared the job stalled, the whole engine wedged, or the
	// engine is resetting/degraded. It is deliberately NOT transient —
	// resubmitting to the same dead engine is futile; the caller must
	// replay the journaled work on the SoC path instead.
	ErrEngineLost = errors.New("dpu: engine lost")
)

// IsTransient reports whether err belongs to a failure class a caller
// may retry: transient faults, queue-full rejections, detected output
// corruption, and missed deadlines. Persistent hardware failures and
// capability misses are not retryable.
func IsTransient(err error) bool {
	return errors.Is(err, ErrTransient) || errors.Is(err, ErrQueueFull) ||
		errors.Is(err, ErrCorrupt) || errors.Is(err, ErrDeadline)
}

// SoCInfo describes the ARM core complex of a generation.
type SoCInfo struct {
	Cores     int
	CoreModel string
	MemoryGB  int
	Memory    string
}

// socInfo per generation (paper §II-A and §V-B: Thor cluster).
var socInfo = map[hwmodel.Generation]SoCInfo{
	hwmodel.BlueField2: {Cores: 8, CoreModel: "ARM Cortex-A72 @ 2.75 GHz", MemoryGB: 16, Memory: "DDR4"},
	hwmodel.BlueField3: {Cores: 16, CoreModel: "ARM Cortex-A78", MemoryGB: 16, Memory: "DDR5"},
}

// Device is one simulated BlueField DPU.
type Device struct {
	gen     hwmodel.Generation
	mode    Mode
	cengine *CEngine
	closed  bool
}

// NewDevice creates a DPU of the given generation in the given mode.
func NewDevice(gen hwmodel.Generation, mode Mode) (*Device, error) {
	if _, ok := socInfo[gen]; !ok {
		return nil, fmt.Errorf("dpu: unknown generation %v", gen)
	}
	switch mode {
	case SeparatedHost, SmartNIC:
	default:
		return nil, fmt.Errorf("dpu: unknown mode %v", mode)
	}
	d := &Device{gen: gen, mode: mode}
	d.cengine = newCEngine(gen)
	return d, nil
}

// Generation reports the device generation.
func (d *Device) Generation() hwmodel.Generation { return d.gen }

// Mode reports the operating mode.
func (d *Device) Mode() Mode { return d.mode }

// SoC describes the ARM core complex.
func (d *Device) SoC() SoCInfo { return socInfo[d.gen] }

// CEngine returns the hardware compression engine.
func (d *Device) CEngine() *CEngine { return d.cengine }

// SetFaultInjector attaches a fault injector to the C-Engine; every
// subsequent job draws a fault decision from it. Pass nil to disable.
func (d *Device) SetFaultInjector(inj *faults.Injector) { d.cengine.SetInjector(inj) }

// HostRDMASupported reports whether the host retains RDMA-IB support;
// false in SmartNIC mode up to and including BlueField-3 (§II-A).
func (d *Device) HostRDMASupported() bool { return d.mode == SeparatedHost }

// Close shuts down the C-Engine worker. Further submissions fail.
func (d *Device) Close() {
	if d.closed {
		return
	}
	d.closed = true
	d.cengine.close()
}

// SupportsCEngine reports whether the C-Engine natively supports algo/op,
// per the paper's Table II. Only DEFLATE and LZ4 exist in the hardware;
// zlib and SZ3 C-Engine support are PEDAL software extensions built on
// the DEFLATE path (Table III).
func (d *Device) SupportsCEngine(algo hwmodel.Algo, op hwmodel.Op) bool {
	return supportsCEngine(d.gen, algo, op)
}

func supportsCEngine(gen hwmodel.Generation, algo hwmodel.Algo, op hwmodel.Op) bool {
	switch gen {
	case hwmodel.BlueField2:
		// DEFLATE compression and decompression.
		return algo == hwmodel.Deflate && (op == hwmodel.Compress || op == hwmodel.Decompress)
	case hwmodel.BlueField3:
		// Decompression only: DEFLATE and LZ4.
		if op != hwmodel.Decompress {
			return false
		}
		return algo == hwmodel.Deflate || algo == hwmodel.LZ4
	default:
		return false
	}
}
