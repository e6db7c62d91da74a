package common

import (
	"hipa/internal/execbuf"
	"hipa/internal/partition"
)

// FrontierReport summarises the pruning effectiveness of one frontier-aware
// Exec: how much of the iteration space actually executed. Attached to
// Result.Frontier by the active-set engines; nil for the dense five.
type FrontierReport struct {
	// TotalPartitions / TotalVertices describe the full graph.
	TotalPartitions int   `json:"total_partitions"`
	TotalVertices   int64 `json:"total_vertices"`
	// IterationsExecuted is the number of supersteps the driver ran.
	IterationsExecuted int `json:"iterations_executed"`
	// ActivePartitionIterations / ActiveVertexIterations are the summed
	// active-set sizes over all executed iterations (a dense engine would
	// accrue IterationsExecuted × Total each).
	ActivePartitionIterations int64 `json:"active_partition_iterations"`
	ActiveVertexIterations    int64 `json:"active_vertex_iterations"`
	// PartitionsSkipped is the partition-iterations pruned away:
	// IterationsExecuted × TotalPartitions − ActivePartitionIterations.
	PartitionsSkipped int64 `json:"partitions_skipped"`
}

// ActiveFraction is the executed share of the dense vertex-iteration space;
// 1.0 means no pruning happened.
func (r *FrontierReport) ActiveFraction() float64 {
	denom := int64(r.IterationsExecuted) * r.TotalVertices
	if denom == 0 {
		return 0
	}
	return float64(r.ActiveVertexIterations) / float64(denom)
}

// PartitionFrontier is the Frontier implementation of the early-convergence
// engine: HiPa's partition hierarchy reused as the pruning granularity. A
// partition whose gather-phase L∞ rank change drops below the tolerance is
// retired — its converged bit is set and it is dropped from the active work
// list, so neither phase touches it again. Freezing is numerically safe by
// construction: a skipped scatter leaves the partition's outgoing message
// bins frozen consistent with its frozen ranks, a skipped gather leaves its
// ranks and contributions frozen, which only its own skipped pull reads
// (intra-edges never cross partitions), and its per-partition dangling
// entry stays frozen at the mass of its frozen ranks.
//
// All scratch (bitmap, work list, per-partition residual/dangling/iteration
// arrays) lives in the execbuf arena, and Rebuild compacts the work list in
// place — frontier maintenance allocates nothing.
//
// The per-partition dangling masses are summed serially in partition order
// by the Reduce kernel, so the fold order is independent of the thread
// count: the engine is bit-deterministic for a given partitioning.
type PartitionFrontier struct {
	s   *SGState
	tol float64

	conv      []uint64 // converged bitmap, one bit per partition
	active    []int32  // active partition ids, first nActive entries valid
	nActive   int
	partRes   []float32 // per-partition L∞ of the last gather
	partDang  []float64 // per-partition dangling mass under current ranks
	partIters []int32   // executed iterations per partition

	totalVerts  int64
	activeVerts int64

	// Accumulated effectiveness counters, folded into Report.
	iterations      int
	activePartIters int64
	activeVertIters int64
	skipped         int64
}

// NewPartitionFrontier builds a dense initial frontier (every partition
// active) over the state's hierarchy, drawing all scratch from the arena.
// tol is the per-partition retirement threshold and must be positive for
// pruning to ever occur. The per-partition dangling masses are seeded
// serially from the initial ranks, establishing the Reduce invariant for
// iteration zero.
func NewPartitionFrontier(s *SGState, tol float64, arena *execbuf.Arena) *PartitionFrontier {
	if arena == nil {
		arena = &execbuf.Arena{}
	}
	P := s.Hier.NumPartitions()
	f := &PartitionFrontier{
		s:         s,
		tol:       tol,
		conv:      arena.Bitmap(P),
		active:    arena.WorkList(P),
		nActive:   P,
		partRes:   arena.PartResiduals(P),
		partDang:  arena.PartDangling(P),
		partIters: arena.PartIters(P),
	}
	for p := 0; p < P; p++ {
		f.active[p] = int32(p)
		part := s.Hier.Partitions[p]
		var local float64
		for v := int(part.VertexStart); v < int(part.VertexEnd); v++ {
			if s.Inv[v] == 0 {
				local += float64(s.Ranks[v])
			}
		}
		f.partDang[p] = local
	}
	f.totalVerts = int64(s.G.NumVertices())
	f.activeVerts = f.totalVerts
	return f
}

// converged reports partition p's bitmap bit.
func (f *PartitionFrontier) converged(p int) bool {
	return f.conv[p>>6]&(1<<(uint(p)&63)) != 0
}

// Stats implements Frontier.
func (f *PartitionFrontier) Stats() FrontierStats {
	return FrontierStats{
		ActivePartitions: f.nActive,
		TotalPartitions:  f.s.Hier.NumPartitions(),
		ActiveVertices:   f.activeVerts,
		TotalVertices:    f.totalVerts,
	}
}

// Rebuild implements Frontier: retire partitions whose last gather moved no
// rank by tol or more, compact the work list in place, and recount the
// active vertices. Runs serially between iterations; done when nothing is
// left to schedule.
func (f *PartitionFrontier) Rebuild(int) (FrontierStats, bool) {
	kept := 0
	var verts int64
	for i := 0; i < f.nActive; i++ {
		p := f.active[i]
		if float64(f.partRes[p]) < f.tol {
			f.conv[p>>6] |= 1 << (uint(p) & 63)
			continue
		}
		f.active[kept] = p
		kept++
		part := f.s.Hier.Partitions[p]
		verts += int64(part.VertexEnd - part.VertexStart)
	}
	f.nActive = kept
	f.activeVerts = verts
	return f.Stats(), kept == 0
}

// beginIteration accrues the effectiveness counters for the iteration about
// to run (the current active set executes it).
func (f *PartitionFrontier) beginIteration(int) {
	f.iterations++
	f.activePartIters += int64(f.nActive)
	f.activeVertIters += f.activeVerts
	f.skipped += int64(f.s.Hier.NumPartitions() - f.nActive)
}

// reduce folds the per-partition dangling masses — all of them, frozen
// entries included — in partition order into the redistribution term. The
// fold order never depends on the thread count or the active set, which is
// what makes the engine bit-deterministic.
func (f *PartitionFrontier) reduce() {
	s := f.s
	var sum float64
	for p := range f.partDang {
		sum += f.partDang[p]
	}
	s.lastDangling = sum
	n := s.G.NumVertices()
	if n > 0 {
		s.redis = float32(s.Damping * sum / float64(n))
	}
}

// residual returns the max per-partition L∞ over the active set, without
// resetting — Rebuild consumes the same array immediately afterwards.
func (f *PartitionFrontier) residual() float64 {
	var max float64
	for i := 0; i < f.nActive; i++ {
		if r := float64(f.partRes[f.active[i]]); r > max {
			max = r
		}
	}
	return max
}

func (f *PartitionFrontier) danglingMass() float64 { return f.s.lastDangling }

// gatherPartition is GatherPartition with the per-thread folds replaced by
// per-partition ones: the L∞ rank change lands in partRes[p], the dangling
// mass overwrites partDang[p], and the partition's executed-iteration count
// advances. The rank arithmetic is identical to the dense gather.
func (f *PartitionFrontier) gatherPartition(p int) {
	s := f.s
	s.gatherMessages(p)
	part := s.Hier.Partitions[p]
	res, dangling := s.updateRanks(int(part.VertexStart), int(part.VertexEnd), 0)
	f.partRes[p] = float32(res)
	f.partDang[p] = dangling
	f.partIters[p]++
}

// frontierPhase walks one thread's pinned partition group through a phase,
// skipping converged partitions; the pinned-execution analogue of
// groupPhase with the frontier consulted per partition. A partition's
// scatter (pull and bins) stays with its owner thread.
type frontierPhase struct {
	f      *PartitionFrontier
	groups []partition.Group
	gather bool
}

func (g *frontierPhase) run(tid int) {
	f := g.f
	gr := g.groups[tid]
	for p := gr.PartStart; p < gr.PartEnd; p++ {
		if f.converged(p) {
			continue
		}
		if g.gather {
			f.gatherPartition(p)
		} else {
			f.s.ScatterPartition(p, tid)
		}
	}
}

// Kernels returns the frontier-aware pinned phase kernels: thread tid
// processes the non-converged partitions of its group every iteration. The
// per-thread partial arrays of SGState are unused — all folds are
// per-partition so pruning never perturbs a fold order.
func (f *PartitionFrontier) Kernels(groups []partition.Group) PhaseKernels {
	scatter := &frontierPhase{f: f, groups: groups}
	gather := &frontierPhase{f: f, groups: groups, gather: true}
	return PhaseKernels{
		StartIteration: f.beginIteration,
		Scatter:        scatter.run,
		Reduce:         f.reduce,
		Gather:         gather.run,
		Residual:       f.residual,
		DanglingMass:   f.danglingMass,
	}
}

// PartIters exposes the per-partition executed-iteration counters — the
// active-set input of the traffic model (platform.PartitionRun.PartIters).
func (f *PartitionFrontier) PartIters() []int32 { return f.partIters }

// Report summarises the run's pruning effectiveness.
func (f *PartitionFrontier) Report() *FrontierReport {
	P := f.s.Hier.NumPartitions()
	return &FrontierReport{
		TotalPartitions:           P,
		TotalVertices:             f.totalVerts,
		IterationsExecuted:        f.iterations,
		ActivePartitionIterations: f.activePartIters,
		ActiveVertexIterations:    f.activeVertIters,
		PartitionsSkipped:         f.skipped,
	}
}
