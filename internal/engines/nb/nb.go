// Package nb implements NB-PR: a barrierless non-blocking PageRank after
// Eedi et al. (PAPERS.md), the second engine shape the frontier-aware
// driver refactor enables. Where every other engine is bulk-synchronous —
// scatter and gather phases separated by barriers — NB-PR spawns one worker
// per thread and lets each proceed through its vertex chunk round after
// round with no barriers: ranks are published with atomic stores and pulled
// with atomic loads, so a worker mid-round reads a mix of current- and
// recent-round ranks from its neighbours (chaotic/asynchronous iteration,
// with staleness bounded by a small pacing window — see
// common.RunAsyncRounds). Termination is round-based: a worker whose own round moved no
// rank by the tolerance votes to stop only once every worker's published
// round has caught up to its own and every published residual is below
// tolerance (common.RunAsyncRounds).
//
// The fold order of a vertex's pull is fixed by the CSC layout, but *which
// round's* rank a load observes depends on real scheduling, so multithreaded
// NB-PR is not bit-deterministic — it carries convergence-quality gates
// (MaxAbsDiff vs exact ranks) instead of bit-exactness, plus a
// single-threaded golden case (with one worker the asynchrony disappears
// and the run is exactly Gauss–Seidel-flavoured and deterministic). The
// analytic model is fed per-worker round counts (workers run unequal round
// counts) and zero barriers.
package nb

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"hipa/internal/engines/common"
	"hipa/internal/execbuf"
	"hipa/internal/graph"
	"hipa/internal/machine"
	"hipa/internal/platform"
)

// Name is the engine's registry name.
const Name = "NB-PR"

var cfg = common.VertexEngineConfig{
	Name:           Name,
	DefaultThreads: func(m *machine.Machine) int { return m.LogicalCores() },
}

// Engine is the NB-PR implementation of common.Engine.
type Engine struct{}

// Name implements common.Engine.
func (Engine) Name() string { return Name }

// Run executes barrierless PageRank: Prepare followed by Exec.
func (e Engine) Run(g *graph.Graph, o common.Options) (*common.Result, error) {
	return common.PrepareAndExec(e, g, o)
}

// Prepare builds the vertex-centric artifact (CSC form + 1/outdeg), shared
// with v-PR and Polymer through the prep cache.
func (Engine) Prepare(g *graph.Graph, o common.Options) (*common.Prepared, error) {
	return common.PrepareVertex(g, o, cfg)
}

// nbState is the barrierless round kernel: one instance shared by all
// workers, with all cross-worker traffic through the atomic rank bits and
// the padded publication lanes. round is handed to RunAsyncRounds as a
// stored method value; the body performs no allocation.
type nbState struct {
	bounds []int
	bits   []uint32 // float32 rank bits, atomically published
	inv    []float32
	inOff  []int64
	inAdj  []graph.VertexID
	base   float32
	d      float32
	n      int
	dang   []execbuf.PadU64 // per-worker dangling-mass bits (float64)
}

// redis computes the worker's current view of the redistribution term by
// summing every worker's published dangling mass. Workers sample this at
// their own round boundaries, so the view mixes rounds — the same
// asynchrony the rank loads have.
func (s *nbState) redis() (redis float32, mass float64) {
	var sum float64
	for i := range s.dang {
		sum += math.Float64frombits(s.dang[i].V.Load())
	}
	return s.d * float32(sum/float64(s.n)), sum
}

// round advances worker tid's chunk one round: pull over in-edges with
// atomic rank loads, publish new ranks with atomic stores, track the local
// L∞ change, and republish the chunk's dangling mass. Returns the local L∞.
func (s *nbState) round(tid, _ int) float64 {
	redis, _ := s.redis()
	base, d := s.base, s.d
	bits, inv := s.bits, s.inv
	inOff, inAdj := s.inOff, s.inAdj
	var res float64
	var dangling float64
	for v := s.bounds[tid]; v < s.bounds[tid+1]; v++ {
		lo, hi := inOff[v], inOff[v+1]
		in := inAdj[lo:hi:hi]
		var acc float32
		for _, u := range in {
			acc += math.Float32frombits(atomic.LoadUint32(&bits[u])) * inv[u]
		}
		old := math.Float32frombits(atomic.LoadUint32(&bits[v]))
		nv := base + d*acc + redis
		atomic.StoreUint32(&bits[v], math.Float32bits(nv))
		if inv[v] == 0 {
			dangling += float64(nv)
		}
		diff := float64(nv - old)
		if diff < 0 {
			diff = -diff
		}
		if diff > res {
			res = diff
		}
	}
	s.dang[tid].V.Store(math.Float64bits(dangling))
	return res
}

// danglingMass is the stats view of the published dangling lanes.
func (s *nbState) danglingMass() float64 {
	_, mass := s.redis()
	return mass
}

// Exec runs the barrierless iterative phase against a Prepared artifact.
// Options.Iterations bounds each worker's round count; Options.Tolerance
// enables round-based termination detection. Safe for concurrent calls
// sharing one artifact.
func (Engine) Exec(prep *common.Prepared, o common.Options) (*common.Result, error) {
	if err := prep.CheckExec(Name, common.PrepVertex); err != nil {
		return nil, err
	}
	o = o.ResolveMachine(prep.Machine())
	m := o.Machine
	o = o.WithDefaults(cfg.DefaultThreads(m))
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if o.Warm != nil {
		return nil, fmt.Errorf("nb: warm starts are not supported — use HiPa or the delta engine for incremental re-ranking")
	}
	g := prep.Graph()
	n := g.NumVertices()
	threads := o.Threads
	if threads > n {
		threads = n
	}
	rec := o.Obs

	bounds := common.SplitByWeight(g.InOffsets(), threads)

	// Workers are spawned once and never respawned (one region); they are
	// not node-bound — the engine is NUMA-oblivious like v-PR.
	pf := o.Platform
	pool, err := pf.SpawnOblivious(o.SchedSeed, 1, threads, false)
	if err != nil {
		return nil, fmt.Errorf("nb: %w", err)
	}
	pool.SetLanes(rec.T())

	arena := prep.AcquireArena()
	defer prep.ReleaseArena(arena)
	inOff, inAdj := g.InCSR()
	lanes := arena.Atomics(3 * threads)
	st := &nbState{
		bounds: bounds,
		bits:   arena.RankBits(n),
		inv:    prep.Vertex().Inv,
		inOff:  inOff,
		inAdj:  inAdj,
		base:   float32((1 - o.Damping) / float64(n)),
		d:      float32(o.Damping),
		n:      n,
		dang:   lanes[2*threads : 3*threads],
	}
	init := math.Float32bits(float32(1) / float32(n))
	for v := range st.bits {
		st.bits[v] = init
	}
	// Seed each worker's published dangling mass from the initial ranks.
	for t := 0; t < threads; t++ {
		var dangling float64
		for v := bounds[t]; v < bounds[t+1]; v++ {
			if st.inv[v] == 0 {
				dangling += float64(math.Float32frombits(st.bits[v]))
			}
		}
		st.dang[t].V.Store(math.Float64bits(dangling))
	}

	wallStart := time.Now()
	maxRounds, _ := common.RunAsyncRounds(common.AsyncConfig{
		Engine:       Name,
		Threads:      threads,
		Rounds:       o.Iterations,
		Tolerance:    o.Tolerance,
		Residuals:    lanes[0:threads],
		RoundCounts:  lanes[threads : 2*threads],
		DanglingMass: st.danglingMass,
		Rec:          rec,
	}, st.round)
	wall := time.Since(wallStart)
	o.Iterations = maxRounds

	// Per-worker round counts: the accounting input (unequal rounds, zero
	// barriers) and the edges-processed total.
	threadIters := make([]int64, threads)
	var edgesProcessed int64
	for t := 0; t < threads; t++ {
		threadIters[t] = int64(lanes[threads+t].V.Load())
		edgesProcessed += (inOff[bounds[t+1]] - inOff[bounds[t]]) * threadIters[t]
	}

	// Work report, with each worker's chunk in the partition role: workers
	// run unequal round counts, so rounds a worker never reached count as
	// skipped work relative to the slowest worker's round total.
	report := &common.FrontierReport{
		TotalPartitions:    threads,
		TotalVertices:      int64(n),
		IterationsExecuted: maxRounds,
	}
	for t := 0; t < threads; t++ {
		report.ActivePartitionIterations += threadIters[t]
		report.ActiveVertexIterations += int64(bounds[t+1]-bounds[t]) * threadIters[t]
	}
	report.PartitionsSkipped = int64(maxRounds)*int64(threads) - report.ActivePartitionIterations

	acct := pf.NewAccounting(pool)
	if pf.Modeled() {
		if err := acct.AddVertexRun(platform.VertexRun{
			G:             g,
			Bounds:        bounds,
			AtomicUpdates: true,
			Iterations:    maxRounds,
			ThreadIters:   threadIters,
		}); err != nil {
			return nil, fmt.Errorf("nb: %w", err)
		}
	}
	rep, err := pf.Finalize(acct, platform.RunShape{
		Iterations:           maxRounds,
		EdgesProcessed:       edgesProcessed,
		UncoordinatedStreams: true,
	})
	if err != nil {
		return nil, fmt.Errorf("nb: %w", err)
	}

	ranks := make([]float32, n)
	for v := range ranks {
		ranks[v] = math.Float32frombits(st.bits[v])
	}
	res := &common.Result{
		Engine:           Name,
		Ranks:            ranks,
		Iterations:       maxRounds,
		Threads:          threads,
		WallSeconds:      wall.Seconds(),
		PrepSeconds:      prep.PrepSeconds,
		PrepBuildSeconds: prep.BuildSeconds,
		PrepFromCache:    prep.FromCache,
		Model:            rep,
		Sched:            pool.Stats,
		Frontier:         report,
	}
	common.FinishRun(rec, res, m, false)
	return res, nil
}
