package common

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hipa/internal/layout"
	"hipa/internal/obs"
	"hipa/internal/partition"
)

// PhaseKernels are the engine-specific bodies of one superstep. The driver
// owns everything else: phase fan-out, the serial sections between phases,
// convergence checking, and telemetry. Scatter and Gather run on every
// worker (tid in [0,threads)); the rest run serially between phases. Only
// Scatter is required: a nil Gather skips the second phase and its two
// barrier generations, a nil Reduce or StartIteration does nothing, and a
// nil Residual or DanglingMass reads 0 (so a Tolerance needs a Residual).
//
// Vertex-centric engines map their contribution pass to Scatter and their
// pull pass to Gather, so traces from all five engines line up.
type PhaseKernels struct {
	// StartIteration, when non-nil, runs serially before each iteration's
	// scatter phase (FCFS engines reset their claim counter here).
	StartIteration func(it int)
	// Scatter is the first parallel phase of an iteration.
	Scatter func(tid int)
	// Reduce folds the per-thread dangling partials between the phases.
	Reduce func()
	// Gather is the second parallel phase.
	Gather func(tid int)
	// Residual folds and resets the per-thread L∞ rank-change partials.
	// Called only when convergence checking or telemetry needs it.
	Residual func() float64
	// DanglingMass returns the dangling mass folded by the last Reduce, for
	// per-iteration statistics.
	DanglingMass func() float64
}

// FrontierStats describes the active set of one iteration of a
// frontier-aware engine: how much of the graph actually executes. The dense
// engines have no frontier; their conceptual stats are Active == Total.
type FrontierStats struct {
	ActivePartitions int
	TotalPartitions  int
	ActiveVertices   int64
	TotalVertices    int64
}

// ActiveFraction is the active-vertex share of the iteration (1.0 = dense,
// 0 when the graph is empty).
func (s FrontierStats) ActiveFraction() float64 {
	if s.TotalVertices == 0 {
		return 0
	}
	return float64(s.ActiveVertices) / float64(s.TotalVertices)
}

// Frontier is the optional active-set contract of the superstep driver. A
// frontier-aware engine passes one in SuperstepConfig; its kernels consult
// the frontier's converged set during the parallel phases, and the driver
// calls Rebuild serially between iterations — after the residual fold,
// before the convergence check — to retire newly converged work and rebuild
// the active work list for the next iteration. A nil Frontier reproduces
// the dense driver exactly: same phases, same barrier count, same fold
// orders, which is why the golden five engines run bit-identically through
// the generalized loop.
//
// Rebuild must not allocate — the zero-allocations-per-iteration guarantee
// of the loop extends to frontier maintenance (bitmaps and work lists live
// in the execbuf arena).
type Frontier interface {
	// Stats reports the active set of the upcoming iteration.
	Stats() FrontierStats
	// Rebuild retires partitions that converged during iteration `it`,
	// rebuilds the active work list, and reports the next iteration's stats.
	// done=true terminates the loop: nothing is left to schedule.
	Rebuild(it int) (next FrontierStats, done bool)
}

// SuperstepConfig parameterises RunSupersteps.
type SuperstepConfig struct {
	// Engine names the engine driving the loop; when set, per-superstep
	// latency, phase latency, and residual distributions are recorded into
	// the process-wide obs registry under that engine label. Empty disables
	// registry recording.
	Engine string
	// Threads is the logical worker count (tid space).
	Threads int
	// Parallelism caps the real goroutines executing a phase
	// (Options.GoParallelism); <= 0 or >= Threads runs one goroutine per
	// tid.
	Parallelism int
	// Iterations is the requested iteration count.
	Iterations int
	// Tolerance > 0 enables convergence-based early termination on the
	// folded residual.
	Tolerance float64
	// Frontier, when non-nil, makes the loop active-set aware: per-iteration
	// active counts are recorded, and the frontier is rebuilt serially after
	// each iteration's residual fold. Nil runs the dense loop unchanged.
	Frontier Frontier
	// Rec receives per-iteration statistics and phase spans; nil disables
	// all instrumentation.
	Rec *obs.Recorder
}

// SuperstepLoop is the reusable superstep executor behind all five engines.
// NewSuperstepLoop spawns a persistent worker pool once; Run then drives any
// number of scatter → reduce → gather → apply iterations over it without
// allocating: phases are dispatched to the parked workers through a pair of
// reusable barriers, worker tids are claimed from an atomic counter, and the
// kernel function values are stored in fields rather than fresh closures.
// With telemetry disabled the steady state performs zero heap allocations
// per iteration (the execbuf arena owns all scratch memory), which the
// AllocsPerRun regression tests in enginetest pin for every engine.
//
// A loop is driven from one goroutine at a time; Close releases the workers
// and must be called exactly once after the last Run.
type SuperstepLoop struct {
	cfg     SuperstepConfig
	k       PhaseKernels
	em      *engineMetrics // registry handles; nil when cfg.Engine is empty
	workers int

	// Per-phase dispatch state, written by the driver before releasing the
	// start barrier (the barrier's mutex publishes them to the workers).
	phase func(tid int)
	span  string
	it    int
	next  atomic.Int64
	stop  bool

	start, done *Barrier
	wg          sync.WaitGroup
}

// NewSuperstepLoop validates cfg (it panics on a Tolerance without
// k.Residual), spawns the worker pool, and returns the parked loop. The
// pool size is min(cfg.Parallelism, cfg.Threads) real goroutines (all of
// them when the cap is unset), each claiming tids from a shared counter so
// every tid runs exactly once per phase regardless of the cap; per-tid
// kernel state is disjoint in every engine, so results do not depend on
// the tid-to-goroutine mapping.
func NewSuperstepLoop(cfg SuperstepConfig, k PhaseKernels) *SuperstepLoop {
	if cfg.Tolerance > 0 && k.Residual == nil {
		panic("common: SuperstepConfig.Tolerance > 0 needs a PhaseKernels.Residual")
	}
	workers := cfg.Threads
	if cfg.Parallelism > 0 && cfg.Parallelism < workers {
		workers = cfg.Parallelism
	}
	l := &SuperstepLoop{
		cfg:     cfg,
		k:       k,
		em:      metricsFor(cfg.Engine),
		workers: workers,
		start:   NewBarrier(workers + 1),
		done:    NewBarrier(workers + 1),
	}
	l.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go l.worker()
	}
	return l
}

// worker is the persistent body of one pool goroutine: park on the start
// barrier, drain claimed tids through the current phase kernel, park on the
// done barrier, repeat until Close.
func (l *SuperstepLoop) worker() {
	defer l.wg.Done()
	tr := l.cfg.Rec.T()
	for {
		l.start.Wait()
		if l.stop {
			return
		}
		for {
			tid := int(l.next.Add(1)) - 1
			if tid >= l.cfg.Threads {
				break
			}
			if tr != nil {
				spanStart := time.Now()
				l.phase(tid)
				tr.Span(tid, l.span, l.it, spanStart)
			} else {
				l.phase(tid)
			}
		}
		l.done.Wait()
	}
}

// runPhase fans one parallel phase out over the worker tids. fn must be a
// stored function value (a kernel field), not a fresh closure — the zero
// allocation guarantee of the loop depends on it.
func (l *SuperstepLoop) runPhase(span string, it int, fn func(tid int)) {
	l.phase, l.span, l.it = fn, span, it
	l.next.Store(0)
	l.start.Wait() // releases the workers; barrier mutex publishes the fields
	l.done.Wait()  // all tids drained
}

// Run executes up to iterations supersteps, with the convergence check,
// span recording, and per-iteration statistics in one place. It returns the
// number of iterations performed and may be called again to continue on the
// same kernel state.
func (l *SuperstepLoop) Run(iterations int) int {
	cfg, k := l.cfg, &l.k
	rec := cfg.Rec
	em := l.em
	tr := rec.T()
	runner := RunnerLane(cfg.Threads)
	f := cfg.Frontier
	needResidual := cfg.Tolerance > 0 || rec != nil || em != nil || f != nil
	var cur FrontierStats
	if f != nil {
		cur = f.Stats()
	}
	performed := 0
	for it := 0; it < iterations; it++ {
		performed++
		var itStart, phaseStart time.Time
		if rec != nil || em != nil {
			itStart = time.Now()
		}
		if k.StartIteration != nil {
			k.StartIteration(it)
		}
		if em != nil {
			phaseStart = time.Now()
		}
		l.runPhase(SpanScatter, it, k.Scatter)
		if em != nil {
			em.scatter.Observe(time.Since(phaseStart).Seconds())
		}
		var serialStart time.Time
		if tr != nil {
			serialStart = time.Now()
		}
		if k.Reduce != nil {
			k.Reduce()
		}
		if tr != nil {
			tr.Span(runner, SpanReduce, it, serialStart)
		}
		if k.Gather != nil {
			if em != nil {
				phaseStart = time.Now()
			}
			l.runPhase(SpanGather, it, k.Gather)
			if em != nil {
				em.gather.Observe(time.Since(phaseStart).Seconds())
			}
		}
		if !needResidual {
			continue
		}
		if tr != nil {
			serialStart = time.Now()
		}
		var res float64
		if k.Residual != nil {
			res = k.Residual()
		}
		if tr != nil {
			tr.Span(runner, SpanApply, it, serialStart)
		}
		if em != nil {
			// Pure atomics — the loop's zero-allocations-per-iteration
			// invariant holds with registry recording enabled.
			em.superstep.Observe(time.Since(itStart).Seconds())
			em.residual.Observe(res)
			em.iterations.Inc()
			if f != nil {
				em.activeFraction.Observe(cur.ActiveFraction())
				em.partsSkipped.Add(int64(cur.TotalPartitions - cur.ActivePartitions))
			}
		}
		if rec != nil {
			st := obs.IterationStats{
				Iter:        it,
				WallSeconds: time.Since(itStart).Seconds(),
				Residual:    res,
			}
			if k.DanglingMass != nil {
				st.DanglingMass = k.DanglingMass()
			}
			if f != nil {
				st.ActiveVertices = cur.ActiveVertices
				st.ActivePartitions = cur.ActivePartitions
			}
			rec.RecordIteration(st)
		}
		if f != nil {
			// Serial frontier maintenance: retire partitions that converged
			// this iteration and rebuild the active work list. An empty next
			// frontier terminates the loop even with Tolerance unset.
			next, done := f.Rebuild(it)
			cur = next
			if done {
				break
			}
		}
		if cfg.Tolerance > 0 && res < cfg.Tolerance {
			break
		}
	}
	return performed
}

// Close releases and joins the worker pool. The loop must not be used
// afterwards.
func (l *SuperstepLoop) Close() {
	l.stop = true
	l.start.Wait()
	l.wg.Wait()
}

// RunSupersteps is the single-shot form of the superstep driver: spawn the
// pool, run cfg.Iterations supersteps, release the pool. Returns the number
// of iterations performed.
func RunSupersteps(cfg SuperstepConfig, k PhaseKernels) int {
	l := NewSuperstepLoop(cfg, k)
	defer l.Close()
	return l.Run(cfg.Iterations)
}

// FCFSKernels are the phase kernels of the NUMA-oblivious scatter-gather
// engines (Algorithm 1): partitions are claimed first-come-first-serve from
// a shared atomic counter, the execution style of p-PR and GPOP (and HiPa's
// FCFS ablation).
func FCFSKernels(s *SGState) PhaseKernels {
	P := s.Hier.NumPartitions()
	var next atomic.Int64
	claim := func(tid int, phase func(p, tid int)) {
		for {
			p := int(next.Add(1)) - 1
			if p >= P {
				return
			}
			phase(p, tid)
		}
	}
	return PhaseKernels{
		StartIteration: func(int) { next.Store(0) },
		Scatter:        func(tid int) { claim(tid, s.ScatterPartition) },
		Reduce: func() {
			s.ReduceDangling()
			next.Store(0)
		},
		Gather:       func(tid int) { claim(tid, s.GatherPartition) },
		Residual:     s.MaxResidual,
		DanglingMass: s.LastDanglingMass,
	}
}

// PinnedKernels are the phase kernels of HiPa's pinned execution
// (Algorithm 2): thread tid gathers exactly the partitions of its group,
// every iteration — the one-to-many thread-data mapping. Its scatter fills
// the bins of its group's outgoing messages and pulls the intra sums of its
// slice of its node's pull chunks (PullSlices): the node's intra work is
// split over all of the node's threads, so a partition larger than its
// share of the edges, or a graph that is one partition, does not leave the
// node's other threads idle. The pull's sums are bit-identical under any
// slicing.
func PinnedKernels(s *SGState, groups []partition.Group) PhaseKernels {
	s.SeedDangling(groups)
	slices := PullSlices(s.Lay, s.Hier, groups, s.arena.Slices(2*len(groups)))
	scatter := &pinnedScatter{s: s, groups: groups, slices: slices}
	gather := &groupPhase{s: s, groups: groups, phase: (*SGState).GatherPartition}
	return PhaseKernels{
		Scatter:      scatter.run,
		Reduce:       s.ReduceDangling,
		Gather:       gather.run,
		Residual:     s.MaxResidual,
		DanglingMass: s.LastDanglingMass,
	}
}

// PullSlices cuts each node's pull chunks, those of its partitions, into
// one contiguous slice per thread of the node, of about equal cost: a
// chunk costs its entries, padding included, plus one per lane for the
// stores. The cuts are binary searches over the chunk offsets. Thread tid
// pulls chunks [slices[2·tid], slices[2·tid+1]); slices is an arena buffer
// of 2·len(groups) entries, filled and returned. Every pinned kernel with
// an intra pull (HiPa's and the blocked B-PPR kernel) slices with it.
func PullSlices(lay *layout.Layout, hier *partition.Hierarchy, groups []partition.Group, slices []int32) []int32 {
	off := lay.IntraPull.Chunk
	for start := 0; start < len(groups); {
		end := start + 1
		for end < len(groups) && groups[end].Node == groups[start].Node {
			end++
		}
		na := hier.Nodes[groups[start].Node]
		lo, hi := int(lay.IntraPull.Part[na.PartStart]), int(lay.IntraPull.Part[na.PartEnd])
		// cost(c) is the pull work of chunks [lo, c): strictly increasing in c.
		cost := func(c int) int64 { return off[c] - off[lo] + layout.PullLanes*int64(c-lo) }
		k := int64(end - start)
		cut := lo
		for j := start; j < end; j++ {
			slices[2*j] = int32(cut)
			target := cost(hi) * int64(j-start+1) / k
			cut = lo + sort.Search(hi-lo, func(i int) bool { return cost(lo+i) >= target })
			slices[2*j+1] = int32(cut)
		}
		start = end
	}
	return slices
}

// pinnedScatter is the pinned scatter phase: thread tid pulls its slice of
// its node's pull chunks, then writes its group's message bins.
type pinnedScatter struct {
	s      *SGState
	groups []partition.Group
	slices []int32
}

func (k *pinnedScatter) run(tid int) {
	k.s.PullIntra(int(k.slices[2*tid]), int(k.slices[2*tid+1]))
	gr := k.groups[tid]
	for p := gr.PartStart; p < gr.PartEnd; p++ {
		k.s.ScatterMessages(p)
	}
}

// groupPhase walks one thread's pinned partition group through a
// partition-level kernel; it backs PinnedKernels' gather with a method value
// created once per Exec.
type groupPhase struct {
	s      *SGState
	groups []partition.Group
	phase  func(s *SGState, p, tid int)
}

func (g *groupPhase) run(tid int) {
	gr := g.groups[tid]
	for p := gr.PartStart; p < gr.PartEnd; p++ {
		g.phase(g.s, p, tid)
	}
}
