// Package hipa implements the paper's contribution: hierarchically
// partitioned, NUMA- and cache-aware PageRank with thread-data pinning
// (Algorithm 2).
//
// Execution structure:
//
//   - The graph is partitioned twice (internal/partition): edge-balanced
//     whole-partition assignment to NUMA nodes, then edge-balanced groups of
//     cache-able partitions, one group per thread.
//   - Inter-edges are compressed into per-partition-pair messages
//     (internal/layout).
//   - Threads are persistent: each one is (simulatedly) pinned to a distinct
//     logical core on the node that owns its group's data and runs the whole
//     iterative scatter-gather loop, synchronising at phase barriers. All
//     logical cores are usable because each thread's working set is a
//     quarter of the L2, so hyper-thread siblings co-reside (§3.3, §4.5).
//
// The lifecycle is two-phase: Prepare builds the node-level hierarchy and
// compressed layout (the §4.2 overhead, reusable across thread counts
// because the thread-dependent group stage is recomputed by Exec via
// partition.Regroup), Exec runs the pinned iterative phase, and Run is
// their composition.
package hipa

import (
	"fmt"
	"time"

	"hipa/internal/engines/common"
	"hipa/internal/graph"
	"hipa/internal/layout"
	"hipa/internal/partition"
	"hipa/internal/platform"
)

// Engine is the HiPa implementation of common.Engine.
type Engine struct{}

// Name implements common.Engine.
func (Engine) Name() string { return "HiPa" }

// RoundThreads returns HiPa's effective thread count for the requested one:
// at least one thread per NUMA node (one group list per node), rounded down
// to a node multiple, like the paper's per-node thread split. Exported for
// engines that share HiPa's execution shape (the early-convergence engine).
func RoundThreads(requested, nodes int) (threads, groupsPerNode int) {
	threads = requested
	if threads < nodes {
		threads = nodes
	}
	groupsPerNode = threads / nodes
	return groupsPerNode * nodes, groupsPerNode
}

// Run executes PageRank on g with HiPa's hierarchical partitioning:
// Prepare followed by Exec.
func (e Engine) Run(g *graph.Graph, o common.Options) (*common.Result, error) {
	return common.PrepareAndExec(e, g, o)
}

// Prepare builds HiPa's preprocessing artifact: the node-level hierarchical
// partitioning (level 0 cache-able partitions + level 1 NUMA assignment)
// and the compressed inter-edge layout. The thread-dependent group level is
// left to Exec, so one artifact serves every thread count on the same
// machine topology.
func (Engine) Prepare(g *graph.Graph, o common.Options) (*common.Prepared, error) {
	return PrepareArtifact("HiPa", g, o)
}

// Family is the builder family of every artifact PrepareArtifact builds,
// whatever engine stamps it (Prepared.Family).
const Family = "HiPa"

// PrepareArtifact is HiPa's Prepare with the artifact's engine stamp
// parameterised, so engines sharing HiPa's execution shape (the
// early-convergence engine) build byte-identical artifacts under their own
// name. The prep-cache key carries no engine field, so the underlying
// hierarchy/layout payload is still shared across such engines, and every
// such artifact carries Family.
func PrepareArtifact(name string, g *graph.Graph, o common.Options) (*common.Prepared, error) {
	o = o.ResolveMachine(nil)
	m := o.Machine
	o = o.WithDefaults(m.LogicalCores())
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if g.NumVertices() == 0 {
		return nil, fmt.Errorf("hipa: empty graph")
	}
	nodes := m.NUMANodes
	threads, _ := RoundThreads(o.Threads, nodes)
	if threads > m.LogicalCores() {
		return nil, fmt.Errorf("hipa: %d threads exceed the machine's %d logical cores", threads, m.LogicalCores())
	}
	rec := o.Obs
	runner := common.RunnerLane(threads)
	key := common.PrepKey{
		Kind:           common.PrepPartition,
		PartitionBytes: o.PartitionBytes,
		BytesPerVertex: 4,
		Compress:       !o.NoCompress,
		VertexBalanced: o.VertexBalanced,
		Nodes:          nodes,
	}
	prep, err := common.MakePrepared(name, Family, g, m, o, key, func() (any, error) {
		tr := rec.T()
		partStart := time.Now()
		stopPart := rec.C().Phase(common.PhasePrepPartition)
		hier, err := partition.BuildWorkers(g, partition.Config{
			PartitionBytes: o.PartitionBytes,
			BytesPerVertex: 4,
			NumNodes:       nodes,
			GroupsPerNode:  0, // one group per node; Exec regroups per thread count
			VertexBalanced: o.VertexBalanced,
		}, o.PrepParallelism)
		stopPart()
		common.ObservePrepStage(common.SpanPrepPartition, time.Since(partStart).Seconds())
		if err != nil {
			return nil, fmt.Errorf("hipa: %w", err)
		}
		if tr != nil {
			tr.Span(runner, common.SpanPrepPartition, -1, partStart)
		}
		layStart := time.Now()
		stopLay := rec.C().Phase(common.PhasePrepLayout)
		lay, err := layout.BuildWorkers(g, hier, !o.NoCompress, o.PrepParallelism)
		stopLay()
		common.ObservePrepStage(common.SpanPrepLayout, time.Since(layStart).Seconds())
		if err != nil {
			return nil, fmt.Errorf("hipa: %w", err)
		}
		if tr != nil {
			tr.Span(runner, common.SpanPrepLayout, -1, layStart)
		}
		return &common.PartArtifact{Hier: hier, Lay: lay, Inv: common.InvOutDegreesWorkers(g, o.PrepParallelism)}, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	rec.C().Add("partition.partitions", int64(prep.Partition().Hier.NumPartitions()))
	rec.C().Add("layout.messages", int64(prep.Partition().Lay.NumMessages()))
	return prep, nil
}

// Exec runs HiPa's pinned iterative phase (Algorithm 2) against a Prepared
// artifact: the thread-count-dependent group level is recomputed on the
// artifact's node-level split, then persistent pinned threads run the
// scatter-gather loop. Safe for concurrent calls sharing one artifact.
func (Engine) Exec(prep *common.Prepared, o common.Options) (*common.Result, error) {
	if err := prep.CheckExec("HiPa", common.PrepPartition); err != nil {
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
	if o.PartitionBytes != prep.Key().PartitionBytes {
		return nil, fmt.Errorf("hipa: artifact was prepared with %dB partitions, not %dB", prep.Key().PartitionBytes, o.PartitionBytes)
	}
	if !o.NoCompress != prep.Key().Compress {
		return nil, fmt.Errorf("hipa: artifact compression does not match NoCompress=%v", o.NoCompress)
	}
	if o.VertexBalanced != prep.Key().VertexBalanced {
		return nil, fmt.Errorf("hipa: artifact was prepared with VertexBalanced=%v", prep.Key().VertexBalanced)
	}
	if m.NUMANodes != prep.Key().Nodes {
		return nil, fmt.Errorf("hipa: artifact was prepared for %d NUMA nodes, machine has %d", prep.Key().Nodes, m.NUMANodes)
	}
	g := prep.Graph()

	// Thread count must be a multiple of the node count (one group list per
	// node); round down like the paper's per-node thread split.
	nodes := m.NUMANodes
	threads, groupsPerNode := RoundThreads(o.Threads, nodes)
	if threads > m.LogicalCores() {
		return nil, fmt.Errorf("hipa: %d threads exceed the machine's %d logical cores", threads, m.LogicalCores())
	}

	rec := o.Obs
	tr := rec.T()
	common.RecordGraphCounters(rec.C(), g.NumVertices(), g.NumEdges())
	if threads != o.Threads {
		// The silent adjustment, made visible (see Options.Threads).
		rec.C().Set("hipa.threads.requested", float64(o.Threads))
		rec.C().Set("hipa.threads.effective", float64(threads))
	}

	// Cache-aware group level on top of the artifact's node-level split —
	// identical to building the full hierarchy at this thread count, but
	// O(partitions) instead of O(V + E).
	hier := partition.Regroup(prep.Partition().Hier, groupsPerNode)
	lookup := partition.BuildLookup(hier)
	rec.C().Add("partition.groups", int64(len(hier.Groups)))

	// Platform thread lifecycle: persistent threads spawned once and pinned
	// (Algorithm 2). At most `threads` migrations can occur.
	pf := o.Platform
	pool, err := pf.SpawnPinned(o.SchedSeed, threads)
	if err != nil {
		return nil, fmt.Errorf("hipa: %w", err)
	}
	pool.SetLanes(tr)

	// Real parallel execution through the shared superstep driver. The FCFS
	// ablation keeps HiPa's layout and placement but lets threads claim
	// partitions first-come-first-serve instead of the pinned one-to-many
	// assignment.
	arena := prep.AcquireArena()
	defer prep.ReleaseArena(arena)
	state := common.NewSGStateArena(g, hier, prep.Partition().Lay, prep.Partition().Inv, o.Damping, threads, arena)
	if o.Warm != nil {
		// Dense warm restart: start from the previous version's converged
		// ranks instead of the uniform distribution. PinnedKernels re-seeds
		// the dangling partials group-accurately from the warm ranks below.
		if len(o.Warm.Ranks) != g.NumVertices() {
			return nil, fmt.Errorf("hipa: warm-start ranks have %d entries, graph has %d vertices", len(o.Warm.Ranks), g.NumVertices())
		}
		state.SetRanks(o.Warm.Ranks)
	}
	kernels := common.PinnedKernels(state, hier.Groups)
	if o.FCFS {
		kernels = common.FCFSKernels(state)
	}
	stopRun := rec.C().Phase(common.PhaseRun)
	wallStart := time.Now()
	o.Iterations = common.RunSupersteps(common.SuperstepConfig{
		Engine:      "HiPa",
		Threads:     threads,
		Parallelism: o.GoParallelism,
		Iterations:  o.Iterations,
		Tolerance:   o.Tolerance,
		Rec:         rec,
	}, kernels)
	wall := time.Since(wallStart)
	stopRun()

	// Cost accounting on the platform.
	acct := pf.NewAccounting(pool)
	if pf.Modeled() {
		partThread := lookup.PartThread
		var slack float64
		if o.FCFS {
			partThread = platform.FCFSAssignment(hier, threads)
			slack = platform.FCFSWorkingSetSlack
		}
		if err := acct.AddPartitionRun(platform.PartitionRun{
			Hier: hier, Lay: prep.Partition().Lay, Lookup: lookup,
			PartThread:      partThread,
			NUMAAware:       true,
			Iterations:      o.Iterations,
			WorkingSetSlack: slack,
		}); err != nil {
			return nil, fmt.Errorf("hipa: %w", err)
		}
	}
	rep, err := pf.Finalize(acct, platform.RunShape{
		Iterations:     o.Iterations,
		EdgesProcessed: g.NumEdges() * int64(o.Iterations),
	})
	if err != nil {
		return nil, fmt.Errorf("hipa: %w", err)
	}

	// The arena (and with it state.Ranks) is recycled by the next Exec; the
	// result keeps its own copy — the single per-Exec allocation.
	ranks := make([]float32, len(state.Ranks))
	copy(ranks, state.Ranks)
	res := &common.Result{
		Engine:           "HiPa",
		Ranks:            ranks,
		Iterations:       o.Iterations,
		Threads:          threads,
		WallSeconds:      wall.Seconds(),
		PrepSeconds:      prep.PrepSeconds,
		PrepBuildSeconds: prep.BuildSeconds,
		PrepFromCache:    prep.FromCache,
		Model:            rep,
		Sched:            pool.Stats,
	}
	// Algorithm 2 binds once at spawn, so per-iteration migration
	// attribution charges iteration 0 — also for the FCFS ablation, which
	// keeps the pinned thread lifecycle.
	common.FinishRun(rec, res, m, true)
	return res, nil
}
