package common

import "sync"

// Barrier is a reusable synchronisation barrier for a fixed party count,
// mirroring the per-phase synchronisation of the scatter-gather model
// (Algorithm 2 line 4). It is safe for repeated use across iterations.
type Barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	waiting int
	gen     uint64
}

// NewBarrier returns a barrier for n parties. n must be >= 1.
func NewBarrier(n int) *Barrier {
	if n < 1 {
		panic("common: barrier needs at least one party")
	}
	b := &Barrier{parties: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Wait blocks until all parties have called Wait, then releases them all.
// The returned value is true for exactly one caller per generation (the last
// arriver), which can perform serial work; note the serial work then happens
// *after* release, so use Wait's return only for idempotent bookkeeping.
func (b *Barrier) Wait() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.gen
	b.waiting++
	if b.waiting == b.parties {
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
		return true
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	return false
}
