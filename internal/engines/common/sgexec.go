package common

import (
	"hipa/internal/execbuf"
	"hipa/internal/graph"
	"hipa/internal/layout"
	"hipa/internal/partition"
)

// SGState is the mutable state of a partition-centric scatter-gather
// PageRank execution, shared by the HiPa engine (pinned threads) and the
// FCFS engines (p-PR, GPOP). Partition-level methods are safe to call
// concurrently as long as each partition is processed by exactly one thread
// per phase and scatter/gather phases are separated by barriers.
//
// All mutable buffers live in an execbuf.Arena, so an Exec that draws its
// arena from the Prepared pool allocates nothing per iteration and reuses
// the buffers across repeated Execs.
//
// The scatter reads each source's contribution from Contrib, so the gather
// writes Contrib next to every rank it writes, and the constructor and
// SetRanks seed it. The dangling sum is fused into the gather phase too:
// GatherPartition accumulates the dangling mass of the ranks it writes, so
// when an iteration starts its partials already hold the current
// distribution's dangling mass and the scatter phase stays branch-free. The
// constructor (and, for pinned engines, SeedDangling) establishes that
// invariant for iteration zero.
type SGState struct {
	G    *graph.Graph
	Lay  *layout.Layout
	Hier *partition.Hierarchy

	Ranks   []float32 // current ranks; overwritten in the gather phase
	Contrib []float32 // Ranks[v]·Inv[v], written next to Ranks[v]; Contrib[n] is the pull's +0 sink
	Acc     []float32 // per-vertex accumulators, stored by the intra pull
	Bins    []float32 // one slot per compressed message; Bins[M] is the inter pull's +0 sink
	Inv     []float32 // 1/outdeg, 0 for dangling

	Damping float64
	base    float32 // (1-d)/n
	redis   float32 // d * danglingSum/n, set by ReduceDangling

	partials     []execbuf.PadF64 // per-thread dangling partials
	residuals    []execbuf.PadF64 // per-thread L∞ rank-change partials
	lastDangling float64          // raw dangling sum of the last ReduceDangling
	arena        *execbuf.Arena   // the Exec's arena, for PinnedKernels' pull slices
}

// LastDanglingMass returns the summed dangling rank folded by the most
// recent ReduceDangling — the redistribution mass of the current iteration.
// Call it under the same serialization as ReduceDangling (barrier leader or
// between parallel regions).
func (s *SGState) LastDanglingMass() float64 { return s.lastDangling }

// MaxResidual folds and resets the per-thread residual partials: the L∞
// rank change of the last gather phase. Call from one thread between
// iterations (barrier leader).
func (s *SGState) MaxResidual() float64 {
	var max float64
	for i := range s.residuals {
		if s.residuals[i].V > max {
			max = s.residuals[i].V
		}
		s.residuals[i].V = 0
	}
	return max
}

// NewSGState allocates the execution state for threads workers.
func NewSGState(g *graph.Graph, hier *partition.Hierarchy, lay *layout.Layout, damping float64, threads int) *SGState {
	return NewSGStateArena(g, hier, lay, InvOutDegrees(g), damping, threads, nil)
}

// NewSGStateArena builds the execution state on top of a scratch arena so
// repeated Execs reuse buffers instead of reallocating them; a nil arena
// gets a private one. The returned state starts at the uniform distribution
// with its dangling partials seeded (flat, into partial 0) — pinned engines
// re-seed group-accurately via SeedDangling.
func NewSGStateArena(g *graph.Graph, hier *partition.Hierarchy, lay *layout.Layout, inv []float32, damping float64, threads int, arena *execbuf.Arena) *SGState {
	if arena == nil {
		arena = &execbuf.Arena{}
	}
	n := g.NumVertices()
	s := &SGState{
		G: g, Lay: lay, Hier: hier,
		Ranks:     arena.Ranks(n),
		Contrib:   arena.Contrib(n + 1),
		Acc:       arena.Acc(n),
		Bins:      arena.Bins(int(lay.NumMessages()) + 1),
		Inv:       inv,
		Damping:   damping,
		base:      float32((1 - damping) / float64(n)),
		partials:  arena.Partials(threads),
		residuals: arena.Residuals(threads),
		arena:     arena,
	}
	FillInitRanks(s.Ranks)
	s.seedRanks()
	return s
}

// seedRanks derives Contrib from the current ranks and seeds the
// iteration-zero dangling invariant, flat into partial 0.
func (s *SGState) seedRanks() {
	for i := range s.partials {
		s.partials[i].V = 0
	}
	var dangling float64
	for v, iv := range s.Inv {
		s.Contrib[v] = s.Ranks[v] * iv
		if iv == 0 {
			dangling += float64(s.Ranks[v])
		}
	}
	s.partials[0].V = dangling
}

// SetRanks replaces the initial uniform distribution with a warm-start rank
// vector and re-establishes the iteration-zero dangling invariant for the
// new ranks (flat, into partial 0 — pinned engines re-seed group-accurately
// via SeedDangling afterwards, exactly as after the constructor). The slice
// is copied; the caller's buffer is never retained.
func (s *SGState) SetRanks(warm []float32) {
	copy(s.Ranks, warm)
	s.seedRanks()
}

// SeedDangling re-seeds the iteration-zero dangling partials with the exact
// per-thread, per-partition grouping the pinned gather phase will keep using
// — each thread's partial is the ordered fold of its partitions' local sums,
// matching the fused accumulation in GatherPartition bit for bit.
func (s *SGState) SeedDangling(groups []partition.Group) {
	for i := range s.partials {
		s.partials[i].V = 0
	}
	for tid := range groups {
		for p := groups[tid].PartStart; p < groups[tid].PartEnd; p++ {
			part := s.Hier.Partitions[p]
			var local float64
			for v := int(part.VertexStart); v < int(part.VertexEnd); v++ {
				if s.Inv[v] == 0 {
					local += float64(s.Ranks[v])
				}
			}
			s.partials[tid].V += local
		}
	}
}

// ScatterPartition runs the scatter phase for partition p: the intra pull
// over p's chunks, then one compressed value per outgoing message. The
// FCFS engines scatter a partition at a time; HiPa's pinned
// kernels split the pull across a node's threads instead (PinnedKernels).
func (s *SGState) ScatterPartition(p int, tid int) {
	_ = tid
	s.PullIntra(int(s.Lay.IntraPull.Part[p]), int(s.Lay.IntraPull.Part[p+1]))
	s.ScatterMessages(p)
}

// PullIntra stores in Acc[v], for each vertex v of the intra pull chunks
// [clo,chi), the sum of Contrib[u] over v's intra in-neighbours u in
// ascending order, starting from +0 (PullSELL). A push over the intra-edges
// adds the same values into the same zeroed accumulator in the same source
// order, so the sums are bit-identical to the paper's push; unlike the
// push, disjoint chunk ranges can run on different threads. Padding
// entries add Contrib[n], +0, which leaves a sum unchanged: no sum is −0,
// as it starts at +0 and every contribution is ≥ +0. Dangling vertices
// have no out-edges, so they appear in no row; their mass was already
// folded into the partials by the previous gather.
func (s *SGState) PullIntra(clo, chi int) {
	PullSELL(&s.Lay.IntraPull, s.Contrib, s.Acc, clo, chi)
}

// ScatterMessages writes partition p's compressed message values,
// bins[i] = Contrib[MsgSrc[i]], streamed block by block with hoisted bounds.
func (s *SGState) ScatterMessages(p int) {
	lay := s.Lay
	contrib := s.Contrib
	for bi := lay.SrcBlockStart[p]; bi < lay.SrcBlockEnd[p]; bi++ {
		b := lay.Blocks[bi]
		src := lay.MsgSrc[b.MsgStart:b.MsgEnd:b.MsgEnd]
		bins := s.Bins[b.MsgStart:b.MsgEnd:b.MsgEnd]
		for i, u := range src {
			bins[i] = contrib[u]
		}
	}
}

// ReduceDangling folds the per-thread dangling partials into the
// redistribution term for this iteration and resets the partials. Call from
// exactly one thread between the scatter and gather phases (barrier leader).
func (s *SGState) ReduceDangling() {
	var sum float64
	for i := range s.partials {
		sum += s.partials[i].V
		s.partials[i].V = 0
	}
	s.lastDangling = sum
	n := s.G.NumVertices()
	if n > 0 {
		s.redis = float32(s.Damping * sum / float64(n))
	}
}

// GatherPartition runs the gather phase for partition p. It first pulls
// p's inter pull chunks over the bins (AddSELL): each vertex v of p gets
// Bins[m] added to Acc[v], which holds v's intra sum, for every message m
// targeting it, one add at a time in ascending m. A push decoding p's
// blocks in DstBlocks order adds the same values to the same accumulators
// in the same order, so the sums are bit-identical to the paper's gather.
// Padding entries add Bins[M], +0, which leaves the sum (never −0)
// unchanged. It then recomputes the ranks of p's vertices, tracking the
// thread's L∞ rank change for convergence checks. The partition's dangling
// mass under the new ranks is folded into the thread's partial (one local
// sum per partition, accumulated in partition order), so the next
// iteration's ReduceDangling sees exactly what a scatter-side pass would
// have produced.
func (s *SGState) GatherPartition(p int, tid int) {
	ip := &s.Lay.InterPull
	clo, chi := ip.Chunks(p)
	AddSELL(ip, s.Bins, s.Acc, clo, chi)
	part := s.Hier.Partitions[p]
	res, dangling := s.updateRanks(int(part.VertexStart), int(part.VertexEnd), s.residuals[tid].V)
	s.residuals[tid].V = res
	s.partials[tid].V += dangling
}

// updateRanks recomputes the ranks of [lo,hi) from the accumulators and
// writes each vertex's contribution next to its rank. It returns the
// running L∞ rank change folded from res and the range's dangling mass
// under the new ranks, summed in vertex order. The accumulators are left as
// they are: the next scatter's pull stores every one of them.
func (s *SGState) updateRanks(lo, hi int, res float64) (float64, float64) {
	r := s.Ranks[lo:hi]
	return UpdateRanks(r, r, s.Contrib[lo:hi], s.Acc[lo:hi], s.Inv[lo:hi], nil, float32(s.Damping), s.base, s.redis, res)
}
