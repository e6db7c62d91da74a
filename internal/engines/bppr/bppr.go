// Package bppr implements B-PPR: batched multi-source personalized
// PageRank on HiPa's execution substrate. One Exec advances up to
// algorithms.MaxBatch rank columns in lockstep through the blocked
// scatter-gather kernel (algorithms.BlockSG) over the unmodified HiPa
// Prepared artifact — hierarchical partitioning, compressed inter-edge
// messages, pinned persistent threads, the shared superstep driver — so the
// graph structure is streamed once per superstep and its cost amortizes
// across the batch (the multi-RHS form of the PCPM traffic argument).
//
// Each query is a restart vector: an empty seed set is the uniform global
// PageRank column, a non-empty one teleports (and redistributes dangling
// mass) to its seeds only. Columns are numerically independent — a column's
// trajectory, iteration count included, is bitwise the one it would have at
// any other batch width, and a uniform column at B=1 reproduces the scalar
// HiPa engine bit for bit (pinned by the enginetest goldens). All folds are
// serial in global partition/column order, so results are bit-deterministic
// at any worker count.
//
// The issue sketch places this under internal/engines/ppr; that package
// name already belongs to the scalar p-PR baseline, hence bppr.
package bppr

import (
	"fmt"
	"time"

	"hipa/internal/algorithms"
	"hipa/internal/engines/common"
	"hipa/internal/engines/hipa"
	"hipa/internal/graph"
	"hipa/internal/partition"
	"hipa/internal/perfmodel"
	"hipa/internal/platform"
	"hipa/internal/sched"
)

// Name is the engine's registry name.
const Name = "B-PPR"

// MaxBatch re-exports the widest supported batch.
const MaxBatch = algorithms.MaxBatch

// DefaultTolerance is the per-column retirement threshold used when
// Options.Tolerance is zero. Per-column convergence is the engine's point
// (a finished query must stop paying for its batch-mates), so like EC-HiPa
// a zero tolerance selects a default instead of disabling the check; runs
// still stop at Options.Iterations regardless.
const DefaultTolerance = 1e-7

// Query is one personalized PageRank request: rank with teleportation to
// the uniform restart vector over Seeds (empty = the global uniform
// vector, i.e. plain PageRank). Seeds must be in range and duplicate-free.
type Query struct {
	Seeds []graph.VertexID
}

// BatchResult is the outcome of one batched Exec.
type BatchResult struct {
	Engine string
	// Ranks[q] is query q's full rank vector.
	Ranks [][]float32
	// Iterations[q] is the iteration count column q actually executed
	// before retiring (== Supersteps if it never converged).
	Iterations []int
	// Supersteps is the number of driver iterations the batch ran.
	Supersteps int
	Threads    int

	WallSeconds      float64
	PrepSeconds      float64
	PrepBuildSeconds float64
	PrepFromCache    bool

	// Model is the simulated-machine estimate for the whole batch; zero-
	// valued (never nil) on a Native platform.
	Model *perfmodel.Report
	Sched sched.Stats

	// BytesPerQuery is the modelled DRAM traffic of the batch divided by
	// the batch width — the amortization figure the bench gate tracks.
	// Zero on a Native platform.
	BytesPerQuery float64

	// ColSteps/LineSteps echo the kernel's work accounting (Σ active
	// columns per superstep, Σ rank-block lines per superstep).
	ColSteps  int64
	LineSteps int64
}

// Engine is the B-PPR implementation of common.Engine: the single-query
// adapter over ExecBatch, so the engine joins the registry-wide lifecycle
// and allocation gates.
type Engine struct{}

// Name implements common.Engine.
func (Engine) Name() string { return Name }

// Run executes uniform PageRank as a width-1 batch: Prepare then Exec.
func (e Engine) Run(g *graph.Graph, o common.Options) (*common.Result, error) {
	return common.PrepareAndExec(e, g, o)
}

// Prepare builds the same node-level hierarchy and compressed layout as
// HiPa (byte-identical artifacts sharing prep-cache payloads), stamped with
// this engine's name.
func (Engine) Prepare(g *graph.Graph, o common.Options) (*common.Prepared, error) {
	return hipa.PrepareArtifact(Name, g, o)
}

// Exec runs a width-1 batch holding the single uniform query and adapts it
// to the scalar result shape. Bit-identical to the HiPa engine's Exec.
func (Engine) Exec(prep *common.Prepared, o common.Options) (*common.Result, error) {
	br, err := ExecBatch(prep, o, []Query{{}})
	if err != nil {
		return nil, err
	}
	return &common.Result{
		Engine:           Name,
		Ranks:            br.Ranks[0],
		Iterations:       br.Supersteps,
		Threads:          br.Threads,
		WallSeconds:      br.WallSeconds,
		PrepSeconds:      br.PrepSeconds,
		PrepBuildSeconds: br.PrepBuildSeconds,
		PrepFromCache:    br.PrepFromCache,
		Model:            br.Model,
		Sched:            br.Sched,
	}, nil
}

// ExecBatch runs one batched iterative phase for queries (width
// len(queries), 1..MaxBatch) against a Prepared artifact of the HiPa family
// — one built by hipa.PrepareArtifact under any engine stamp, so a server
// holding a HiPa artifact runs its batches on it, warm arenas included.
// Safe for concurrent calls sharing one artifact.
func ExecBatch(prep *common.Prepared, o common.Options, queries []Query) (*BatchResult, error) {
	if err := prep.CheckExecFamily(Name, hipa.Family, common.PrepPartition); err != nil {
		return nil, err
	}
	if len(queries) < 1 || len(queries) > MaxBatch {
		return nil, fmt.Errorf("bppr: batch width %d outside [1,%d]", len(queries), MaxBatch)
	}
	o = o.ResolveMachine(prep.Machine())
	m := o.Machine
	if o.PartitionBytes == 0 {
		o.PartitionBytes = prep.Key().PartitionBytes
	}
	o = o.WithDefaults(m.LogicalCores())
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if o.FCFS {
		return nil, fmt.Errorf("bppr: FCFS scheduling is not supported — the blocked kernel relies on the pinned thread-data mapping")
	}
	if o.Warm != nil {
		return nil, fmt.Errorf("bppr: warm starts are not supported — every column starts at its restart vector")
	}
	if o.PartitionBytes != prep.Key().PartitionBytes {
		return nil, fmt.Errorf("bppr: artifact was prepared with %dB partitions, not %dB", prep.Key().PartitionBytes, o.PartitionBytes)
	}
	if !o.NoCompress != prep.Key().Compress {
		return nil, fmt.Errorf("bppr: artifact compression does not match NoCompress=%v", o.NoCompress)
	}
	if o.VertexBalanced != prep.Key().VertexBalanced {
		return nil, fmt.Errorf("bppr: artifact was prepared with VertexBalanced=%v", prep.Key().VertexBalanced)
	}
	if m.NUMANodes != prep.Key().Nodes {
		return nil, fmt.Errorf("bppr: artifact was prepared for %d NUMA nodes, machine has %d", prep.Key().Nodes, m.NUMANodes)
	}
	g := prep.Graph()
	n := g.NumVertices()
	seedSets := make([][]graph.VertexID, len(queries))
	for q, query := range queries {
		seen := make(map[graph.VertexID]struct{}, len(query.Seeds))
		for _, v := range query.Seeds {
			if int(v) >= n {
				return nil, fmt.Errorf("bppr: query %d seed %d outside graph of %d vertices", q, v, n)
			}
			if _, dup := seen[v]; dup {
				return nil, fmt.Errorf("bppr: query %d has duplicate seed %d", q, v)
			}
			seen[v] = struct{}{}
		}
		seedSets[q] = query.Seeds
	}
	tol := o.Tolerance
	if tol == 0 {
		tol = DefaultTolerance
	}

	nodes := m.NUMANodes
	threads, groupsPerNode := hipa.RoundThreads(o.Threads, nodes)
	if threads > m.LogicalCores() {
		return nil, fmt.Errorf("bppr: %d threads exceed the machine's %d logical cores", threads, m.LogicalCores())
	}

	rec := o.Obs
	tr := rec.T()
	common.RecordGraphCounters(rec.C(), g.NumVertices(), g.NumEdges())
	if threads != o.Threads {
		rec.C().Set("hipa.threads.requested", float64(o.Threads))
		rec.C().Set("hipa.threads.effective", float64(threads))
	}
	rec.C().Set("bppr.batch", float64(len(queries)))

	hier := partition.Regroup(prep.Partition().Hier, groupsPerNode)
	lookup := partition.BuildLookup(hier)
	rec.C().Add("partition.groups", int64(len(hier.Groups)))

	pf := o.Platform
	pool, err := pf.SpawnPinned(o.SchedSeed, threads)
	if err != nil {
		return nil, fmt.Errorf("bppr: %w", err)
	}
	pool.SetLanes(tr)

	arena := prep.AcquireArena()
	defer prep.ReleaseArena(arena)
	state, err := algorithms.NewBlockSG(g, hier, prep.Partition().Lay, prep.Partition().Inv,
		o.Damping, tol, threads, seedSets, arena)
	if err != nil {
		return nil, fmt.Errorf("bppr: %w", err)
	}
	kernels := state.PinnedKernels(hier.Groups)
	stopRun := rec.C().Phase(common.PhaseRun)
	wallStart := time.Now()
	performed := common.RunSupersteps(common.SuperstepConfig{
		Engine:      Name,
		Threads:     threads,
		Parallelism: o.GoParallelism,
		Iterations:  o.Iterations,
		Tolerance:   tol,
		Rec:         rec,
	}, kernels)
	wall := time.Since(wallStart)
	stopRun()

	rec.C().Set("bppr.col_steps", float64(state.ColSteps()))
	rec.C().Set("bppr.active_columns", float64(state.ActiveColumns()))

	acct := pf.NewAccounting(pool)
	if pf.Modeled() {
		if err := acct.AddBatchRun(platform.BatchRun{
			Hier: hier, Lay: prep.Partition().Lay, Lookup: lookup,
			PartThread: lookup.PartThread,
			NUMAAware:  true,
			Batch:      len(queries),
			Supersteps: performed,
			ColSteps:   state.ColSteps(),
			LineSteps:  state.LineSteps(),
		}); err != nil {
			return nil, fmt.Errorf("bppr: %w", err)
		}
	}
	rep, err := pf.Finalize(acct, platform.RunShape{
		Iterations:     performed,
		EdgesProcessed: g.NumEdges() * int64(performed),
	})
	if err != nil {
		return nil, fmt.Errorf("bppr: %w", err)
	}

	// The arena (and with it the rank block) is recycled by the next Exec;
	// the result de-interleaves its own per-query copies.
	ranks := make([][]float32, len(queries))
	iters := make([]int, len(queries))
	for q := range queries {
		col := make([]float32, n)
		state.CopyColumn(q, col)
		ranks[q] = col
		iters[q] = int(state.ColumnIterations()[q])
	}
	res := &BatchResult{
		Engine:           Name,
		Ranks:            ranks,
		Iterations:       iters,
		Supersteps:       performed,
		Threads:          threads,
		WallSeconds:      wall.Seconds(),
		PrepSeconds:      prep.PrepSeconds,
		PrepBuildSeconds: prep.BuildSeconds,
		PrepFromCache:    prep.FromCache,
		Model:            rep,
		Sched:            pool.Stats,
		ColSteps:         state.ColSteps(),
		LineSteps:        state.LineSteps(),
	}
	if total := rep.LocalBytes + rep.RemoteBytes; total > 0 {
		res.BytesPerQuery = float64(total) / float64(len(queries))
	}
	// FinishRun wants the scalar result shape; feed it the first column so
	// run reports and counters stay populated for batched runs too.
	common.FinishRun(rec, &common.Result{
		Engine: Name, Ranks: ranks[0], Iterations: performed, Threads: threads,
		WallSeconds: wall.Seconds(), Model: rep, Sched: pool.Stats,
	}, m, true)
	return res, nil
}
