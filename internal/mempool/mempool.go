// Package mempool implements the reusable buffer pool at the heart of
// PEDAL's headline optimisation (paper §III-C): "PEDAL prearranges all
// essential buffers through a memory pool ... to reuse intermediate
// buffers, and eliminate the frequent need for memory allocation,
// deallocation, and mapping between regular and DOCA-operable memory
// during each compression and decompression execution."
//
// Buffers are bucketed by power-of-two size class. Hit/miss counters make
// the optimisation observable in tests and benchmarks.
//
// The pool is also the overload fault domain's first line of defense: an
// optional byte budget charges every outstanding buffer against a
// configurable ceiling. Plain Get never fails (accounting only, so the
// zero-allocation hot path is untouched); TryGet refuses with a typed
// ErrMemPressure once the budget is exhausted; GetCtx blocks until
// returns free enough budget or the context expires. Oversize one-shot
// buffers bypass retention entirely so a single huge request can never
// poison the size classes.
package mempool

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"
)

// ErrMemPressure is the typed refusal of a budget-governed allocation:
// admitting the buffer would push outstanding pool bytes past the
// configured budget. Callers shed, degrade, or wait — they never OOM.
var ErrMemPressure = errors.New("mempool: memory budget exhausted")

// Pool is a size-class bucketed buffer pool, safe for concurrent use.
type Pool struct {
	mu      sync.Mutex
	classes map[uint]*[][]byte

	hits   uint64
	misses uint64
	// outstanding is gets minus puts: how many buffers callers currently
	// hold. Leak checks assert it returns to a baseline after an
	// operation aborts.
	outstanding int64

	// maxPerClass caps retained buffers per size class to bound memory.
	maxPerClass int
	// maxPooled caps the largest retained buffer capacity. Returns above
	// it are dropped (and counted) instead of parked in a bucket forever;
	// gets above it allocate exactly and bypass class rounding.
	maxPooled int

	// Budget accounting: held is the byte sum charged to outstanding
	// buffers (class capacity for pooled sizes, exact size above
	// maxPooled); budget 0 means ungoverned. peak is the held high-water
	// mark since the last Prewarm.
	budget int64
	held   int64
	peak   int64

	droppedOversize uint64
	pressureWaits   uint64
	pressureRejects uint64

	// waitCh is the broadcast generation channel: closed and replaced
	// whenever budget is released so GetCtx waiters re-examine held.
	waitCh chan struct{}
}

// DefaultMaxPerClass is the default retention cap per size class.
const DefaultMaxPerClass = 32

// DefaultMaxPooledSize is the default capacity ceiling for retained
// buffers (the largest class of the paper's message sweep, filled on
// demand): anything bigger is treated as a one-shot allocation and
// dropped on Put.
const DefaultMaxPooledSize = 64 << 20

// New returns an empty pool.
func New() *Pool {
	return &Pool{
		classes:     make(map[uint]*[][]byte),
		maxPerClass: DefaultMaxPerClass,
		maxPooled:   DefaultMaxPooledSize,
	}
}

// sizeClass returns the bucket exponent for n bytes: the smallest k with
// 1<<k >= n. Computed in O(1) from the bit length of n-1 (for n ≤ 1 the
// class is 0), instead of the shift loop this used to be.
func sizeClass(n int) uint {
	if n <= 1 {
		return 0
	}
	return uint(bits.Len(uint(n - 1)))
}

// SetBudget sets the outstanding-bytes ceiling. Zero (the default)
// disables governance: Get/TryGet/GetCtx all behave like the classic
// pool. Lowering the budget below current held bytes does not revoke
// live buffers; it only blocks new governed gets until returns catch up.
func (p *Pool) SetBudget(n int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.budget = n
	p.wakeLocked()
}

// Budget reports the configured outstanding-bytes ceiling (0 =
// ungoverned).
func (p *Pool) Budget() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.budget
}

// chargeFor is the byte cost of a length-n get: the size-class capacity
// for pooled sizes, the exact size above the retention ceiling.
func (p *Pool) chargeFor(n int) int64 {
	if n > p.maxPooled {
		return int64(n)
	}
	return int64(1) << sizeClass(n)
}

// getLocked performs the bucket pop / allocation bookkeeping. The caller
// holds p.mu and has already decided admission; the allocation itself
// happens outside the lock via the returned plan.
func (p *Pool) getLocked(n int, charge int64) (buf []byte, hit bool) {
	p.outstanding++
	p.held += charge
	if p.held > p.peak {
		p.peak = p.held
	}
	if n <= p.maxPooled {
		k := sizeClass(n)
		if bucket := p.classes[k]; bucket != nil && len(*bucket) > 0 {
			buf = (*bucket)[len(*bucket)-1]
			*bucket = (*bucket)[:len(*bucket)-1]
			p.hits++
			return buf[:n], true
		}
	}
	p.misses++
	return nil, false
}

// Get returns a buffer with length n. The buffer may contain stale data.
// Get never fails and never blocks: under a budget it still charges the
// bytes (pressure becomes visible to TryGet/GetCtx and HeldBytes), which
// keeps the zero-allocation hot path free of new control flow.
func (p *Pool) Get(n int) []byte {
	if n == 0 {
		return nil
	}
	charge := p.chargeFor(n)
	p.mu.Lock()
	buf, hit := p.getLocked(n, charge)
	p.mu.Unlock()
	if hit {
		return buf
	}
	if n > p.maxPooled {
		// Oversize one-shot: exact allocation, no class rounding — a
		// 1 GB+1 request must not allocate (and charge) 2 GB.
		return make([]byte, n)
	}
	return make([]byte, n, 1<<sizeClass(n))
}

// TryGet returns a buffer with length n, or ErrMemPressure if admitting
// it would exceed the configured budget. With no budget set it is Get.
func (p *Pool) TryGet(n int) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	charge := p.chargeFor(n)
	p.mu.Lock()
	if p.budget > 0 && p.held+charge > p.budget {
		p.pressureRejects++
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: %d bytes held + %d requested > budget %d",
			ErrMemPressure, p.held, charge, p.budget)
	}
	buf, hit := p.getLocked(n, charge)
	p.mu.Unlock()
	if hit {
		return buf, nil
	}
	if n > p.maxPooled {
		return make([]byte, n), nil
	}
	return make([]byte, n, 1<<sizeClass(n)), nil
}

// GetCtx returns a buffer with length n, waiting for budget to free up
// if the pool is governed and currently over-committed. It fails with
// ErrMemPressure (wrapping the context error) when ctx expires first,
// and immediately when the request alone can never fit the budget.
func (p *Pool) GetCtx(ctx context.Context, n int) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	charge := p.chargeFor(n)
	waited := false
	for {
		p.mu.Lock()
		if p.budget <= 0 || p.held+charge <= p.budget {
			buf, hit := p.getLocked(n, charge)
			p.mu.Unlock()
			if hit {
				return buf, nil
			}
			if n > p.maxPooled {
				return make([]byte, n), nil
			}
			return make([]byte, n, 1<<sizeClass(n)), nil
		}
		if charge > p.budget {
			// Never admissible: waiting would hang forever.
			p.pressureRejects++
			p.mu.Unlock()
			return nil, fmt.Errorf("%w: %d bytes exceed budget %d", ErrMemPressure, charge, p.budget)
		}
		if !waited {
			waited = true
			p.pressureWaits++
		}
		ch := p.waitChLocked()
		p.mu.Unlock()
		select {
		case <-ctx.Done():
			p.mu.Lock()
			p.pressureRejects++
			p.mu.Unlock()
			return nil, fmt.Errorf("%w: %w", ErrMemPressure, ctx.Err())
		case <-ch:
		}
	}
}

// waitChLocked returns the current generation channel, creating it on
// first use. Callers hold p.mu.
func (p *Pool) waitChLocked() chan struct{} {
	if p.waitCh == nil {
		p.waitCh = make(chan struct{})
	}
	return p.waitCh
}

// wakeLocked broadcasts to every GetCtx waiter by closing the current
// generation channel. Callers hold p.mu.
func (p *Pool) wakeLocked() {
	if p.waitCh != nil {
		close(p.waitCh)
		p.waitCh = nil
	}
}

// GetCap returns a zero-length buffer with capacity at least n, for
// append-style producers (compressors whose output size is not known in
// advance). As long as the final length stays within the size-class
// capacity, appends never reallocate; Put accepts the grown slice back.
func (p *Pool) GetCap(n int) []byte {
	if n == 0 {
		return nil
	}
	return p.Get(n)[:0]
}

// Put returns a buffer to the pool. The caller must not use buf after
// Put. Buffers whose capacity is not an exact size class are still
// accepted and bucketed by the largest class that fits. Buffers above
// the retention ceiling are dropped (counted in Snapshot) so one giant
// request cannot park gigabytes in a bucket forever.
func (p *Pool) Put(buf []byte) {
	c := cap(buf)
	if c == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.outstanding--
	// Uncharge by capacity, clamped: Prewarm's Puts were never charged at
	// all. The library itself hands back only buffers this pool issued,
	// at the capacity it issued them (an append that outgrows a GetCap
	// buffer is re-homed by its owner, never Put), so for it the
	// uncharge always equals the charge.
	uncharge := int64(c)
	if c <= p.maxPooled {
		uncharge = int64(1) << sizeClass(c)
		if int(uncharge) > c {
			uncharge >>= 1 // capacity between classes: charged at the class below
		}
	}
	if uncharge > p.held {
		uncharge = p.held
	}
	if uncharge > 0 {
		p.held -= uncharge
		p.wakeLocked()
	}
	if c > p.maxPooled {
		p.droppedOversize++
		return
	}
	// Largest k with 1<<k <= cap.
	k := sizeClass(c)
	if 1<<k > c {
		if k == 0 {
			return
		}
		k--
	}
	bucket := p.classes[k]
	if bucket == nil {
		b := make([][]byte, 0, p.maxPerClass)
		bucket = &b
		p.classes[k] = bucket
	}
	if len(*bucket) >= p.maxPerClass {
		return // drop: retention cap reached
	}
	*bucket = append(*bucket, buf[:cap(buf)])
}

// Stats reports cumulative hit and miss counts.
func (p *Pool) Stats() (hits, misses uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses
}

// Snapshot is a point-in-time view of the pool's counters, including the
// overload-domain accounting.
type Snapshot struct {
	Hits, Misses uint64
	Outstanding  int64
	// HeldBytes is the byte sum charged to outstanding buffers; Budget is
	// the configured ceiling (0 = ungoverned); PeakBytes is the held
	// high-water mark since the last Prewarm.
	HeldBytes, PeakBytes, Budget int64
	// DroppedOversize counts returns above the retention ceiling that
	// were freed instead of pooled. PressureWaits counts GetCtx calls
	// that had to block for budget; PressureRejects counts typed
	// ErrMemPressure refusals (TryGet denials and GetCtx expiries).
	DroppedOversize, PressureWaits, PressureRejects uint64
}

// Snapshot returns the current counter values.
func (p *Pool) Snapshot() Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Snapshot{
		Hits: p.hits, Misses: p.misses, Outstanding: p.outstanding,
		HeldBytes: p.held, PeakBytes: p.peak, Budget: p.budget,
		DroppedOversize: p.droppedOversize,
		PressureWaits:   p.pressureWaits, PressureRejects: p.pressureRejects,
	}
}

// Outstanding reports gets minus puts: the number of buffers currently
// held by callers. Aborted operations must bring it back to its
// pre-operation value, which is how the fault soaks assert no buffer
// leaked with an interrupted stream.
func (p *Pool) Outstanding() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.outstanding
}

// HeldBytes reports the bytes currently charged to outstanding buffers.
func (p *Pool) HeldBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.held
}

// PeakBytes reports the held-bytes high-water mark since the last
// Prewarm. The overload soak asserts it never exceeds the budget for
// governed gets.
func (p *Pool) PeakBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peak
}

// Prewarm allocates count buffers of each given size so that subsequent
// Gets hit. PEDAL_Init calls this so the per-message path never
// allocates.
func (p *Pool) Prewarm(sizes []int, count int) {
	for _, n := range sizes {
		bufs := make([][]byte, 0, count)
		for i := 0; i < count; i++ {
			k := sizeClass(n)
			bufs = append(bufs, make([]byte, n, 1<<k))
		}
		for _, b := range bufs {
			p.Put(b)
		}
	}
	// Prewarming is setup, not steady-state behaviour: do not let it
	// count as misses in the hit-rate statistics, nor as negative
	// outstanding buffers (the Puts above had no matching Gets). The
	// budget accounting resets with it — retained prewarmed buffers are
	// idle capacity, not held bytes.
	p.mu.Lock()
	p.misses = 0
	p.hits = 0
	p.outstanding = 0
	p.held = 0
	p.peak = 0
	p.droppedOversize = 0
	p.pressureWaits = 0
	p.pressureRejects = 0
	p.mu.Unlock()
}
