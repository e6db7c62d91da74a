// Package ec implements EC-HiPa: early-convergence HiPa, the first
// frontier-aware engine. It keeps HiPa's entire execution shape —
// hierarchical partitioning, compressed inter-edge messages, pinned
// persistent threads (Algorithm 2) — and adds partition-granular pruning on
// top of the frontier-aware superstep driver: once every vertex of a
// partition changes by less than the tolerance in one gather, the whole
// partition is retired from the active work list and neither phase touches
// it again. The PCPM streaming argument (Lakhotia et al.) then holds per
// *active* partition: each iteration streams exactly the active partitions'
// vertex and message data, and the analytic traffic model is fed the
// per-partition executed-iteration counts so modelled bytes scale with the
// active set.
//
// Freezing a partition is numerically safe by construction (see
// common.PartitionFrontier); the cost is approximation — a frozen
// partition's ranks stop responding to still-moving in-neighbours, bounding
// the final error near the tolerance rather than at float32 exactness.
// EC-HiPa is therefore not bit-identical to HiPa and carries its own golden
// cases plus convergence-quality gates (MaxAbsDiff vs exact ranks ≤ 10× the
// tolerance) instead of joining the five-engine bit-exactness matrix. The
// per-partition dangling fold is serial and in partition order, so results
// are bit-deterministic at any thread count for a given partitioning.
package ec

import (
	"fmt"
	"time"

	"hipa/internal/engines/common"
	"hipa/internal/engines/hipa"
	"hipa/internal/graph"
	"hipa/internal/partition"
	"hipa/internal/platform"
)

// Name is the engine's registry name.
const Name = "EC-HiPa"

// DefaultTolerance is the partition-retirement threshold used when
// Options.Tolerance is zero. Pruning is the engine's point, so unlike the
// dense engines a zero tolerance selects a default instead of disabling
// convergence checks; runs still stop at Options.Iterations regardless.
const DefaultTolerance = 1e-7

// Engine is the EC-HiPa implementation of common.Engine.
type Engine struct{}

// Name implements common.Engine.
func (Engine) Name() string { return Name }

// Run executes PageRank with early partition convergence: Prepare followed
// by Exec.
func (e Engine) Run(g *graph.Graph, o common.Options) (*common.Result, error) {
	return common.PrepareAndExec(e, g, o)
}

// Prepare builds the same node-level hierarchy and compressed layout as
// HiPa (the artifacts are byte-identical and share prep-cache payloads),
// stamped with this engine's name.
func (Engine) Prepare(g *graph.Graph, o common.Options) (*common.Prepared, error) {
	return hipa.PrepareArtifact(Name, g, o)
}

// Exec runs the pinned iterative phase with partition pruning against a
// Prepared artifact. Safe for concurrent calls sharing one artifact.
func (Engine) Exec(prep *common.Prepared, o common.Options) (*common.Result, error) {
	if err := prep.CheckExec(Name, common.PrepPartition); err != nil {
		return nil, err
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
		return nil, fmt.Errorf("ec: FCFS scheduling is not supported — partition pruning relies on the pinned thread-data mapping")
	}
	if o.Warm != nil {
		return nil, fmt.Errorf("ec: warm starts are not supported — use HiPa or the delta engine for incremental re-ranking")
	}
	if o.PartitionBytes != prep.Key().PartitionBytes {
		return nil, fmt.Errorf("ec: artifact was prepared with %dB partitions, not %dB", prep.Key().PartitionBytes, o.PartitionBytes)
	}
	if !o.NoCompress != prep.Key().Compress {
		return nil, fmt.Errorf("ec: artifact compression does not match NoCompress=%v", o.NoCompress)
	}
	if o.VertexBalanced != prep.Key().VertexBalanced {
		return nil, fmt.Errorf("ec: artifact was prepared with VertexBalanced=%v", prep.Key().VertexBalanced)
	}
	if m.NUMANodes != prep.Key().Nodes {
		return nil, fmt.Errorf("ec: artifact was prepared for %d NUMA nodes, machine has %d", prep.Key().Nodes, m.NUMANodes)
	}
	tol := o.Tolerance
	if tol == 0 {
		tol = DefaultTolerance
	}
	g := prep.Graph()

	nodes := m.NUMANodes
	threads, groupsPerNode := hipa.RoundThreads(o.Threads, nodes)
	if threads > m.LogicalCores() {
		return nil, fmt.Errorf("ec: %d threads exceed the machine's %d logical cores", threads, m.LogicalCores())
	}

	rec := o.Obs
	tr := rec.T()

	hier := partition.Regroup(prep.Partition().Hier, groupsPerNode)
	lookup := partition.BuildLookup(hier)

	pf := o.Platform
	pool, err := pf.SpawnPinned(o.SchedSeed, threads)
	if err != nil {
		return nil, fmt.Errorf("ec: %w", err)
	}
	pool.SetLanes(tr)

	arena := prep.AcquireArena()
	defer prep.ReleaseArena(arena)
	state := common.NewSGStateArena(g, hier, prep.Partition().Lay, prep.Partition().Inv, o.Damping, threads, arena)
	frontier := common.NewPartitionFrontier(state, tol, arena)
	kernels := frontier.Kernels(hier.Groups)
	wallStart := time.Now()
	o.Iterations = common.RunSupersteps(common.SuperstepConfig{
		Engine:      Name,
		Threads:     threads,
		Parallelism: o.GoParallelism,
		Iterations:  o.Iterations,
		Tolerance:   tol,
		Frontier:    frontier,
		Rec:         rec,
	}, kernels)
	wall := time.Since(wallStart)

	report := frontier.Report()

	// Cost accounting: each partition is charged only the iterations it
	// executed, so modelled traffic scales with the active set. Edges
	// processed follow the same per-partition counts.
	partIters := frontier.PartIters()
	var edgesProcessed int64
	for p, part := range hier.Partitions {
		edgesProcessed += part.EdgeCount * int64(partIters[p])
	}
	acct := pf.NewAccounting(pool)
	if pf.Modeled() {
		if err := acct.AddPartitionRun(platform.PartitionRun{
			Hier: hier, Lay: prep.Partition().Lay, Lookup: lookup,
			PartThread: lookup.PartThread,
			NUMAAware:  true,
			Iterations: o.Iterations,
			PartIters:  partIters,
		}); err != nil {
			return nil, fmt.Errorf("ec: %w", err)
		}
	}
	rep, err := pf.Finalize(acct, platform.RunShape{
		Iterations:     o.Iterations,
		EdgesProcessed: edgesProcessed,
	})
	if err != nil {
		return nil, fmt.Errorf("ec: %w", err)
	}

	ranks := make([]float32, len(state.Ranks))
	copy(ranks, state.Ranks)
	res := &common.Result{
		Engine:           Name,
		Ranks:            ranks,
		Iterations:       o.Iterations,
		Threads:          threads,
		WallSeconds:      wall.Seconds(),
		PrepSeconds:      prep.PrepSeconds,
		PrepBuildSeconds: prep.BuildSeconds,
		PrepFromCache:    prep.FromCache,
		Model:            rep,
		Sched:            pool.Stats,
		Frontier:         report,
	}
	common.FinishRun(rec, res, m, true)
	return res, nil
}
