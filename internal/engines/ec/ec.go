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
	"slices"

	"hipa/internal/engines/common"
	"hipa/internal/engines/hipa"
	"hipa/internal/graph"
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
	p, err := hipa.BeginPinned(prep, o, hipa.PinnedOptions{Name: Name, Prefix: "ec"}, func(o common.Options) error {
		if o.FCFS {
			return fmt.Errorf("ec: FCFS scheduling is not supported — partition pruning relies on the pinned thread-data mapping")
		}
		if o.Warm != nil {
			return fmt.Errorf("ec: warm starts are not supported — use HiPa or the delta engine for incremental re-ranking")
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer p.Release()
	o = p.Opts
	tol := o.Tolerance
	if tol == 0 {
		tol = DefaultTolerance
	}
	lay := prep.Partition().Lay

	state := common.NewSGStateArena(prep.Graph(), p.Hier, lay, prep.Partition().Inv, o.Damping, p.Threads, p.Arena)
	frontier := common.NewPartitionFrontier(state, tol, p.Arena)
	iters := p.Supersteps(frontier.Kernels(p.Hier.Groups), tol, frontier)
	p.Frontier = frontier.Report()

	// Cost accounting: each partition is charged only the iterations it
	// executed, so modelled traffic scales with the active set. Edges
	// processed follow the same per-partition counts.
	partIters := frontier.PartIters()
	var edgesProcessed int64
	for i, part := range p.Hier.Partitions {
		edgesProcessed += part.EdgeCount * int64(partIters[i])
	}
	return p.Finish(func(a *platform.Accounting) error {
		return a.AddPartitionRun(platform.PartitionRun{
			Hier: p.Hier, Lay: lay, Lookup: p.Lookup,
			PartThread: p.Lookup.PartThread,
			NUMAAware:  true,
			Iterations: iters,
			PartIters:  partIters,
		})
	}, platform.RunShape{EdgesProcessed: edgesProcessed}, slices.Clone(state.Ranks))
}
