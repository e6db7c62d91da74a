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
	"slices"

	"hipa/internal/engines/common"
	"hipa/internal/execbuf"
	"hipa/internal/graph"
	"hipa/internal/partition"
	"hipa/internal/platform"
)

// Engine is the HiPa implementation of common.Engine.
type Engine struct{}

// Name implements common.Engine.
func (Engine) Name() string { return "HiPa" }

// RoundThreads returns HiPa's effective thread count for the requested one:
// at least one thread per NUMA node (one group list per node), rounded down
// to a node multiple, like the paper's per-node thread split. BeginPinned
// applies it for every engine sharing HiPa's execution shape (HiPa,
// Delta-PR, B-PPR).
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
// parameterised, so engines sharing HiPa's execution shape (Delta-PR,
// B-PPR) build byte-identical artifacts under their own
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
	lane := common.RunnerLane(threads)
	key := common.PrepKey{
		Kind:           common.PrepPartition,
		PartitionBytes: o.PartitionBytes,
		BytesPerVertex: 4,
		Compress:       !o.NoCompress,
		VertexBalanced: o.VertexBalanced,
		Nodes:          nodes,
	}
	return common.MakePrepared(name, Family, g, m, o, lane, key, func() (any, error) {
		art, err := common.BuildPartArtifact(g, partition.Config{
			PartitionBytes: o.PartitionBytes,
			BytesPerVertex: 4,
			NumNodes:       nodes,
			GroupsPerNode:  0, // one group per node; Exec regroups per thread count
			VertexBalanced: o.VertexBalanced,
		}, o, lane)
		if err != nil {
			return nil, fmt.Errorf("hipa: %w", err)
		}
		return art, nil
	}, nil)
}

// PinnedOptions names an engine that runs HiPa's pinned execution shape.
type PinnedOptions struct {
	// Name is the engine's registry name; Prefix starts its errors.
	Name, Prefix string
	// Family, when non-empty, also accepts artifacts of that builder family
	// stamped by another engine (B-PPR batches run on a HiPa artifact).
	Family string
}

// Pinned is one Exec's share of HiPa's execution shape (Algorithm 2):
// options resolved against the artifact, the thread-count-dependent group
// level, persistent pinned threads and a scratch arena from the artifact's
// pool. Its ExecRun carries the run to a Result; Release returns the arena.
type Pinned struct {
	common.ExecRun
	Hier   *partition.Hierarchy
	Lookup *partition.LookupTable
	Arena  *execbuf.Arena
}

// BeginPinned sets up an Exec of every engine sharing HiPa's execution
// shape against a HiPa-family artifact: it resolves o against the
// artifact, rejects options the artifact was not prepared for, regroups
// the artifact's node-level split for the effective thread count, spawns
// the pinned pool and checks out an arena. check runs the engine's own
// rejections against the resolved options, before the artifact-key checks.
// The caller must Release the result.
func BeginPinned(prep *common.Prepared, o common.Options, po PinnedOptions, check func(o common.Options) error) (Pinned, error) {
	if err := prep.CheckExecFamily(po.Name, po.Family, common.PrepPartition); err != nil {
		return Pinned{}, err
	}
	key := prep.Key()
	o = o.ResolveMachine(prep.Machine())
	m := o.Machine
	if o.PartitionBytes == 0 {
		o.PartitionBytes = key.PartitionBytes
	}
	o = o.WithDefaults(m.LogicalCores())
	if err := o.Validate(); err != nil {
		return Pinned{}, err
	}
	if err := check(o); err != nil {
		return Pinned{}, err
	}
	switch {
	case o.PartitionBytes != key.PartitionBytes:
		return Pinned{}, fmt.Errorf("%s: artifact was prepared with %dB partitions, not %dB", po.Prefix, key.PartitionBytes, o.PartitionBytes)
	case !o.NoCompress != key.Compress:
		return Pinned{}, fmt.Errorf("%s: artifact compression does not match NoCompress=%v", po.Prefix, o.NoCompress)
	case o.VertexBalanced != key.VertexBalanced:
		return Pinned{}, fmt.Errorf("%s: artifact was prepared with VertexBalanced=%v", po.Prefix, key.VertexBalanced)
	case m.NUMANodes != key.Nodes:
		return Pinned{}, fmt.Errorf("%s: artifact was prepared for %d NUMA nodes, machine has %d", po.Prefix, key.Nodes, m.NUMANodes)
	}

	// Thread count must be a multiple of the node count (one group list per
	// node); round down like the paper's per-node thread split.
	threads, groupsPerNode := RoundThreads(o.Threads, m.NUMANodes)
	if threads > m.LogicalCores() {
		return Pinned{}, fmt.Errorf("%s: %d threads exceed the machine's %d logical cores", po.Prefix, threads, m.LogicalCores())
	}

	// Cache-aware group level on top of the artifact's node-level split —
	// identical to building the full hierarchy at this thread count, but
	// O(partitions) instead of O(V + E).
	hier := partition.Regroup(prep.Partition().Hier, groupsPerNode)

	// Platform thread lifecycle: persistent threads spawned once and pinned
	// (Algorithm 2). At most `threads` migrations can occur.
	pool, err := o.Platform.SpawnPinned(o.SchedSeed, threads)
	if err != nil {
		return Pinned{}, fmt.Errorf("%s: %w", po.Prefix, err)
	}
	pool.SetLanes(o.Obs.T())
	return Pinned{
		ExecRun: common.ExecRun{
			Engine: po.Name, Prefix: po.Prefix, Prep: prep, Opts: o,
			Pool: pool, Threads: threads, Pinned: true,
		},
		Hier:   hier,
		Lookup: partition.BuildLookup(hier),
		Arena:  prep.AcquireArena(),
	}, nil
}

// Release returns the run's arena to the artifact's pool.
func (p *Pinned) Release() { p.Prep.ReleaseArena(p.Arena) }

// Exec runs HiPa's pinned iterative phase (Algorithm 2) against a Prepared
// artifact: the thread-count-dependent group level is recomputed on the
// artifact's node-level split, then persistent pinned threads run the
// scatter-gather loop. Safe for concurrent calls sharing one artifact.
func (Engine) Exec(prep *common.Prepared, o common.Options) (*common.Result, error) {
	p, err := BeginPinned(prep, o, PinnedOptions{Name: "HiPa", Prefix: "hipa"}, func(o common.Options) error {
		if o.Warm != nil && len(o.Warm.Ranks) != prep.Graph().NumVertices() {
			return fmt.Errorf("hipa: warm-start ranks have %d entries, graph has %d vertices", len(o.Warm.Ranks), prep.Graph().NumVertices())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer p.Release()
	o = p.Opts
	lay := prep.Partition().Lay

	// Real parallel execution through the shared superstep driver. The FCFS
	// ablation keeps HiPa's layout and placement but lets threads claim
	// partitions first-come-first-serve instead of the pinned one-to-many
	// assignment.
	state := common.NewSGStateArena(prep.Graph(), p.Hier, lay, prep.Partition().Inv, o.Damping, p.Threads, p.Arena)
	if o.Warm != nil {
		// Dense warm restart: start from the previous version's converged
		// ranks instead of the uniform distribution. PinnedKernels re-seeds
		// the dangling partials group-accurately from the warm ranks below.
		state.SetRanks(o.Warm.Ranks)
	}
	kernels := common.PinnedKernels(state, p.Hier.Groups)
	if o.FCFS {
		kernels = common.FCFSKernels(state)
	}
	iters := p.Supersteps(kernels, o.Tolerance, nil)

	// The result keeps its own copy of the ranks — the single per-Exec
	// allocation. Algorithm 2 binds once at spawn, so per-iteration
	// migration attribution charges iteration 0 — also for the FCFS
	// ablation, which keeps the pinned thread lifecycle.
	return p.Finish(func(a *platform.Accounting) error {
		run := platform.PartitionRun{
			Hier: p.Hier, Lay: lay, Lookup: p.Lookup,
			PartThread: p.Lookup.PartThread,
			NUMAAware:  true,
			Iterations: iters,
		}
		if o.FCFS {
			run.PartThread = platform.FCFSAssignment(p.Hier, p.Threads)
			run.WorkingSetSlack = platform.FCFSWorkingSetSlack
		}
		return a.AddPartitionRun(run)
	}, platform.RunShape{EdgesProcessed: prep.Graph().NumEdges() * int64(iters)}, slices.Clone(state.Ranks))
}
