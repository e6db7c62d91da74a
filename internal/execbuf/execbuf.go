// Package execbuf is the scratch-memory arena behind the engines' Exec hot
// path. Every buffer the iterative scatter-gather phase mutates — the rank
// vector, the per-vertex accumulators, the compressed message bins, the
// vertex-centric contribution array, and the padded per-thread partials —
// is carved out of one Arena that is acquired when Exec starts and released
// when it returns. Inside the superstep loop nothing allocates: the steady
// state runs at zero heap allocations per iteration (asserted by
// testing.AllocsPerRun regression tests in enginetest).
//
// Arenas are pooled per Prepared artifact, so repeated Exec calls against
// one artifact (hipapr -repeat, hipabench sweeps) reuse the same memory
// instead of re-allocating O(V + messages) float32 buffers per run, and
// concurrent Execs each draw their own arena without contention beyond one
// mutex acquire/release per run.
package execbuf

import (
	"runtime"
	"sync"

	"hipa/internal/obs"
)

// PadF64 is a float64 padded to its own cache line, used for per-thread
// partial sums (dangling mass, L∞ residuals) so neighbouring threads never
// false-share.
type PadF64 struct {
	V float64
	_ [7]int64
}

// Arena owns the mutable scratch buffers of one Exec. A zero Arena is
// ready to use; buffers are allocated on first request and kept for reuse.
// An Arena is not safe for concurrent use — each concurrent Exec must hold
// its own (see Pool).
type Arena struct {
	ranks, acc, bins, contrib []float32
	partials, residuals       []PadF64
	// Frontier scratch (Delta-PR): per-partition iteration counts, active
	// counts, residuals, and dangling masses.
	partIters  []int32
	partCounts []int32
	partRes    []float32
	partDang   []float64
	// Pinned pull slices: a [lo,hi) vertex range per thread.
	slices []int32
	// Blocked (rank-B) scratch of the batched PPR engine: two vertex-
	// interleaved rank blocks (double-buffered), the B-wide contribution and
	// accumulator blocks, the sparse per-column teleport addends, the
	// per-partition per-column dangling buffer, the per-thread per-column
	// residual lanes, and the active-column bookkeeping.
	ranksBlockA  []float32
	ranksBlockB  []float32
	contribBlock []float32
	accBlock     []float32
	seedAdd      []float32
	partDangB    []float64
	colLanes     []float64
	cols         []int32
	colIters     []int32
	// Sparse-start scratch of a width-1 batch (B-PPR): the frontier, a
	// vertex list cut into one segment per partition, and each partition's
	// frontier out-edges. The segment sizes live in partCounts.
	frontier  []uint32
	partEdges []int64
	grows     int
	// owner is the Pool that checked this arena out (nil while free or
	// never pooled). Put settles the checkout with the owner, so an arena
	// released into a different pool — a dynamic reload moving work between
	// artifacts mid-flight — decrements the pool that issued it, and a
	// double Put cannot drive any counter negative.
	owner *Pool
}

func growF32(buf *[]float32, n int, grows *int) []float32 {
	if cap(*buf) < n {
		*buf = make([]float32, n)
		*grows++
	}
	return (*buf)[:n]
}

// Ranks returns the n-element rank buffer. Contents are unspecified; the
// caller fills it (InitRanks) before the first iteration.
func (a *Arena) Ranks(n int) []float32 { return growF32(&a.ranks, n, &a.grows) }

// Acc returns the n-element per-vertex accumulator buffer, zeroed — the
// engines that add into it from the scatter phase (Delta-PR) rely on the
// zero start; the dense scatter-gather engines store every entry first.
func (a *Arena) Acc(n int) []float32 {
	s := growF32(&a.acc, n, &a.grows)
	clear(s)
	return s
}

// Bins returns the n-element compressed-message buffer, zeroed. Every
// message is rewritten by each scatter phase; the zero fill only guards the
// first gather of a run against stale values from a previous Exec.
func (a *Arena) Bins(n int) []float32 {
	s := growF32(&a.bins, n, &a.grows)
	clear(s)
	return s
}

// Contrib returns the n-element vertex-centric contribution buffer, zeroed.
func (a *Arena) Contrib(n int) []float32 {
	s := growF32(&a.contrib, n, &a.grows)
	clear(s)
	return s
}

// Slices returns an n-element buffer for per-thread vertex-range bounds.
// Contents are unspecified; the caller fills every entry.
func (a *Arena) Slices(n int) []int32 {
	if cap(a.slices) < n {
		a.slices = make([]int32, n)
		a.grows++
	}
	return a.slices[:n]
}

// Partials returns the per-thread dangling-mass partials, zeroed.
func (a *Arena) Partials(threads int) []PadF64 {
	s := a.growPad(&a.partials, threads)
	clear(s)
	return s
}

// Residuals returns the per-thread L∞ residual partials, zeroed.
func (a *Arena) Residuals(threads int) []PadF64 {
	s := a.growPad(&a.residuals, threads)
	clear(s)
	return s
}

func (a *Arena) growPad(buf *[]PadF64, n int) []PadF64 {
	if cap(*buf) < n {
		*buf = make([]PadF64, n)
		a.grows++
	}
	return (*buf)[:n]
}

// PartIters returns the per-partition executed-iteration counters, zeroed —
// the active-set input of the traffic model (platform.PartitionRun.PartIters).
func (a *Arena) PartIters(n int) []int32 {
	if cap(a.partIters) < n {
		a.partIters = make([]int32, n)
		a.grows++
	}
	s := a.partIters[:n]
	clear(s)
	return s
}

// PartCounts returns the per-partition active-vertex counters, zeroed —
// scratch of the frontier bookkeeping of the vertex-granular delta engine
// and of B-PPR's sparse start.
func (a *Arena) PartCounts(n int) []int32 {
	if cap(a.partCounts) < n {
		a.partCounts = make([]int32, n)
		a.grows++
	}
	s := a.partCounts[:n]
	clear(s)
	return s
}

// PartResiduals returns the per-partition L∞ residual buffer, zeroed.
func (a *Arena) PartResiduals(n int) []float32 {
	s := growF32(&a.partRes, n, &a.grows)
	clear(s)
	return s
}

// PartDangling returns the per-partition dangling-mass buffer, zeroed.
func (a *Arena) PartDangling(n int) []float64 {
	if cap(a.partDang) < n {
		a.partDang = make([]float64, n)
		a.grows++
	}
	s := a.partDang[:n]
	clear(s)
	return s
}

// RanksBlockPair returns the two n-element vertex-interleaved rank blocks
// of the batched engine (vertex v's B columns live at [v*B, v*B+B)); the
// gather phase reads one and writes the other, swapping between iterations.
// Contents are unspecified; the caller seeds every column's restart
// distribution before the first iteration.
func (a *Arena) RanksBlockPair(n int) (cur, next []float32) {
	return growF32(&a.ranksBlockA, n, &a.grows), growF32(&a.ranksBlockB, n, &a.grows)
}

// ContribBlock returns the n-element B-wide contribution block, laid out
// like the rank blocks. Contents are unspecified; the caller seeds it from
// the initial ranks.
func (a *Arena) ContribBlock(n int) []float32 { return growF32(&a.contribBlock, n, &a.grows) }

// AccBlock returns the n-element B-wide accumulator block. Contents are
// unspecified; each iteration's intra pull stores every entry before the
// gather adds into it.
func (a *Arena) AccBlock(n int) []float32 { return growF32(&a.accBlock, n, &a.grows) }

// SeedAdd returns the n-element per-vertex per-column teleport addend
// block, zeroed: non-zero only at seed vertices of personalized columns,
// refreshed sparsely each iteration by the dangling reduce.
func (a *Arena) SeedAdd(n int) []float32 {
	s := growF32(&a.seedAdd, n, &a.grows)
	clear(s)
	return s
}

// PartDanglingBlock returns the per-partition per-column dangling buffer
// (partitions × B entries), zeroed. A frozen column's entries stay at their
// last written values — exactly that column's dangling contribution under
// its frozen ranks.
func (a *Arena) PartDanglingBlock(n int) []float64 {
	if cap(a.partDangB) < n {
		a.partDangB = make([]float64, n)
		a.grows++
	}
	s := a.partDangB[:n]
	clear(s)
	return s
}

// ColLanes returns the per-thread per-column L∞ residual lanes (threads ×
// stride entries, the caller padding the stride to a cache-line multiple so
// neighbouring threads never false-share), zeroed.
func (a *Arena) ColLanes(n int) []float64 {
	if cap(a.colLanes) < n {
		a.colLanes = make([]float64, n)
		a.grows++
	}
	s := a.colLanes[:n]
	clear(s)
	return s
}

// Cols returns the n-element active-column list. Contents are unspecified;
// the caller fills it with the initially dense column set.
func (a *Arena) Cols(n int) []int32 {
	if cap(a.cols) < n {
		a.cols = make([]int32, n)
		a.grows++
	}
	return a.cols[:n]
}

// ColIters returns the per-column executed-iteration counters, zeroed.
func (a *Arena) ColIters(n int) []int32 {
	if cap(a.colIters) < n {
		a.colIters = make([]int32, n)
		a.grows++
	}
	s := a.colIters[:n]
	clear(s)
	return s
}

// Frontier returns the n-element frontier vertex list of B-PPR's sparse
// start. Contents are unspecified; the caller writes each partition's
// segment before reading it.
func (a *Arena) Frontier(n int) []uint32 {
	if cap(a.frontier) < n {
		a.frontier = make([]uint32, n)
		a.grows++
	}
	return a.frontier[:n]
}

// PartEdges returns the per-partition frontier out-edge counters, zeroed.
func (a *Arena) PartEdges(n int) []int64 {
	if cap(a.partEdges) < n {
		a.partEdges = make([]int64, n)
		a.grows++
	}
	s := a.partEdges[:n]
	clear(s)
	return s
}

// Grows reports how many times any buffer was (re)allocated over the
// arena's lifetime. A warm arena serving same-shaped Execs stays constant —
// the regression tests assert repeated Exec calls do not grow it.
func (a *Arena) Grows() int { return a.grows }

// Footprint returns the arena's total buffer capacity in bytes.
func (a *Arena) Footprint() int64 {
	f32 := cap(a.ranks) + cap(a.acc) + cap(a.bins) + cap(a.contrib) + cap(a.partRes) +
		cap(a.ranksBlockA) + cap(a.ranksBlockB) + cap(a.contribBlock) + cap(a.accBlock) + cap(a.seedAdd)
	pad := cap(a.partials) + cap(a.residuals)
	i32 := cap(a.partIters) + cap(a.partCounts) + cap(a.slices) + cap(a.cols) + cap(a.colIters) + cap(a.frontier)
	i64 := cap(a.partDang) + cap(a.partDangB) + cap(a.colLanes) + cap(a.partEdges)
	return int64(f32)*4 + int64(pad)*64 + int64(i32)*4 + int64(i64)*8
}

// Registry metric families exported by the arena pools. Every Pool reports
// into the same process-wide series: per-artifact traffic stays available
// via Pool.Stats, while /metrics shows the process view.
const (
	MetricArenasCreated     = "hipa_execbuf_arenas_created_total"
	MetricArenasReused      = "hipa_execbuf_arenas_reused_total"
	MetricArenasOutstanding = "hipa_execbuf_arenas_outstanding"
)

var (
	metricsOnce      sync.Once
	createdCounter   *obs.Counter
	reusedCounter    *obs.Counter
	outstandingGauge *obs.Gauge
)

// initMetrics resolves the registry handles once; Get/Put call it on every
// acquisition, but the steady-state cost is one atomic load inside
// sync.Once — no allocation, so the per-Exec allocation budget is unmoved.
func initMetrics() {
	metricsOnce.Do(func() {
		reg := obs.Default()
		reg.SetHelp(MetricArenasCreated, "Fresh Exec scratch arenas allocated because a pool's free list was empty.")
		reg.SetHelp(MetricArenasReused, "Exec scratch arena acquisitions served warm from a pool's free list.")
		reg.SetHelp(MetricArenasOutstanding, "Exec scratch arenas currently held by a running Exec.")
		createdCounter = reg.Counter(MetricArenasCreated)
		reusedCounter = reg.Counter(MetricArenasReused)
		outstandingGauge = reg.Gauge(MetricArenasOutstanding)
	})
}

// GlobalStats reports the process-wide arena traffic summed over every
// pool, as exported to the registry (hipabench includes it in its JSON
// summary).
func GlobalStats() PoolStats {
	initMetrics()
	return PoolStats{Created: createdCounter.Value(), Reused: reusedCounter.Value()}
}

// Outstanding reports how many arenas are currently held by running Execs
// across every pool.
func Outstanding() int64 {
	initMetrics()
	return int64(outstandingGauge.Value())
}

// PoolStats counts arena traffic through a Pool.
type PoolStats struct {
	// Created is the number of fresh arenas the pool handed out because the
	// free list was empty (equals the peak Exec concurrency seen).
	Created int64
	// Reused is the number of Get calls served from the free list.
	Reused int64
	// Outstanding is the number of arenas this pool has checked out to
	// running Execs and not yet seen returned (to any pool).
	Outstanding int64
	// Freed is the number of arenas dropped for garbage collection because
	// a Put or a Supersede found the free list already at its cap.
	Freed int64
}

// Pool is a free list of Arenas, one per Prepared artifact. Get/Put are
// safe for concurrent use; sequential Execs against one artifact recycle a
// single arena, concurrent Execs fan out to as many arenas as run at once.
//
// The free list is bounded: once a concurrency burst subsides, Put drops
// arenas beyond the cap (SetCap; default GOMAXPROCS) instead of pinning the
// burst's peak memory for the artifact's lifetime.
//
// A pool that follows another (Follow: the next version's artifact) draws
// its first arena from its predecessors' free lists when its own is empty,
// so the next version starts warm while the current one keeps its arenas
// for its own Execs. A superseded pool (Supersede) forwards its Puts to its
// successor, so an arena an Exec held across an artifact swap stays warm
// for the next version's Execs instead of landing on a free list no one
// draws from.
type Pool struct {
	mu    sync.Mutex
	free  []*Arena
	cap   int // 0 = default (GOMAXPROCS at Put time)
	stats PoolStats
	next  *Pool // successor set by Supersede; nil while current
	prev  *Pool // predecessor set by Follow; cleared by the first Get or Supersede
}

// SetCap bounds the pool's free list to n warm arenas; excess arenas are
// dropped on Put and Supersede. n <= 0 restores the default bound, GOMAXPROCS —
// the most Execs the runtime can actually run at once, so steady-state
// serving never allocates, while burst overshoot is returned to the GC.
func (p *Pool) SetCap(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n <= 0 {
		n = 0
	}
	p.cap = n
}

// Cap reports the pool's effective free-list bound.
func (p *Pool) Cap() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.capLocked()
}

func (p *Pool) capLocked() int {
	if p.cap > 0 {
		return p.cap
	}
	return runtime.GOMAXPROCS(0)
}

// Get pops a warm arena, or creates one when no free list it may draw from
// has one. When p's own free list is empty, a superseded p draws from its
// successors (an Exec that started on the old artifact after the swap
// takes an arena the new one's Execs return), and a following p from its
// predecessors (Follow); a pool's first Get unlinks its predecessors.
func (p *Pool) Get() *Arena {
	initMetrics()
	outstandingGauge.Add(1)
	p.mu.Lock()
	a, next, prev := p.pop(), p.next, p.prev
	p.prev = nil
	p.mu.Unlock()
	for ; a == nil && next != nil; next = next.link(true) {
		a = next.take()
	}
	for ; a == nil && prev != nil; prev = prev.link(false) {
		a = prev.take()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Outstanding++
	if a != nil {
		p.stats.Reused++
		reusedCounter.Inc()
	} else {
		a = &Arena{}
		p.stats.Created++
		createdCounter.Inc()
	}
	a.owner = p
	return a
}

// pop takes the last arena off the free list, or returns nil. p.mu is held.
func (p *Pool) pop() *Arena {
	n := len(p.free)
	if n == 0 {
		return nil
	}
	a := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return a
}

// take is pop under p.mu.
func (p *Pool) take() *Arena {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pop()
}

// link returns p's successor (next) or predecessor.
func (p *Pool) link(next bool) *Pool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if next {
		return p.next
	}
	return p.prev
}

// Follow makes prev p's predecessor: until p's first Get, which unlinks
// it, an empty p draws a warm arena from prev's free list (or its
// predecessors'). Call it when p's artifact is built as prev's next
// version (common.Prepared.Advance): prev keeps its arenas for the Execs
// still running on it, and the link holds prev only until p's first Exec
// or p's publication (Supersede).
func (p *Pool) Follow(prev *Pool) {
	if p == prev || p == nil || prev == nil {
		return
	}
	p.mu.Lock()
	p.prev = prev
	p.mu.Unlock()
}

// Put returns an arena to the free list for the next Exec, dropping it
// instead when the free list is already at the pool's cap. A superseded
// pool hands the arena on to its newest successor's free list. The checkout
// is settled with the pool that issued the arena (its Get may have come
// from a previous artifact's pool when a reload swapped artifacts
// mid-flight), so per-pool Outstanding and the process gauge stay exact; an
// arena that is not checked out (double Put) adjusts no counter.
func (p *Pool) Put(a *Arena) {
	if a == nil {
		return
	}
	initMetrics()
	if owner := a.owner; owner != nil {
		a.owner = nil
		outstandingGauge.Add(-1)
		owner.mu.Lock()
		owner.stats.Outstanding--
		owner.mu.Unlock()
	}
	p.mu.Lock()
	for p.next != nil {
		next := p.next
		p.mu.Unlock()
		p = next
		p.mu.Lock()
	}
	if len(p.free) < p.capLocked() {
		p.free = append(p.free, a)
	} else {
		p.stats.Freed++
	}
	p.mu.Unlock()
}

// moveTo drains p's free list into dst (Supersede), preserving warm
// buffers across an artifact swap. Arenas beyond dst's cap are dropped.
// Traffic counters stay with their pools; arenas held by running Execs are
// unaffected — they settle their checkout with p whenever and wherever
// they are Put.
func (p *Pool) moveTo(dst *Pool) {
	if p == dst || p == nil || dst == nil {
		return
	}
	p.mu.Lock()
	moved := p.free
	p.free = nil
	p.mu.Unlock()
	if len(moved) == 0 {
		return
	}
	dst.mu.Lock()
	room := dst.capLocked() - len(dst.free)
	if room < 0 {
		room = 0
	}
	if room > len(moved) {
		room = len(moved)
	}
	dst.free = append(dst.free, moved[:room]...)
	dst.stats.Freed += int64(len(moved) - room)
	dst.mu.Unlock()
}

// Supersede makes dst p's successor: it drains p's free list into dst and
// forwards every later Put to p on to dst, so an arena an Exec holds across
// the swap warms dst's free list; dst stops drawing from its predecessors
// (Follow). Call it once dst's artifact has replaced p's for good (a
// published snapshot), not when dst is merely built: a superseded pool
// keeps no arenas of its own, and its late Execs draw from dst's. The
// caller owns the ordering — dst must be newer than p, so the forwarding
// chain ends.
func (p *Pool) Supersede(dst *Pool) {
	if p == dst || p == nil || dst == nil {
		return
	}
	p.mu.Lock()
	p.next = dst
	p.mu.Unlock()
	dst.mu.Lock()
	dst.prev = nil
	dst.mu.Unlock()
	p.moveTo(dst)
}

// Stats returns a snapshot of the pool's traffic counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
