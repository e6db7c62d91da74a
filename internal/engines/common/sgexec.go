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
// the buffers across repeated Execs. The dangling sum is fused into the
// gather phase: GatherPartition accumulates the dangling mass of the ranks
// it writes, so when an iteration starts its partials already hold the
// current distribution's dangling mass and the scatter phase stays
// branch-free. The constructor (and, for pinned engines, SeedDangling)
// establishes that invariant for iteration zero.
type SGState struct {
	G    *graph.Graph
	Lay  *layout.Layout
	Hier *partition.Hierarchy

	Ranks []float32 // current ranks; overwritten in the gather phase
	Acc   []float32 // per-vertex accumulators, zeroed after each gather
	Bins  []float32 // one slot per compressed message
	Inv   []float32 // 1/outdeg, 0 for dangling

	Damping float64
	base    float32 // (1-d)/n
	redis   float32 // d * danglingSum/n, set by ReduceDangling

	partials     []execbuf.PadF64 // per-thread dangling partials
	residuals    []execbuf.PadF64 // per-thread L∞ rank-change partials
	lastDangling float64          // raw dangling sum of the last ReduceDangling
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

// NewSGStateWithInv is NewSGState with a precomputed 1/outdeg array, shared
// read-only from a Prepared artifact so concurrent Execs skip the O(V)
// recomputation.
func NewSGStateWithInv(g *graph.Graph, hier *partition.Hierarchy, lay *layout.Layout, inv []float32, damping float64, threads int) *SGState {
	return NewSGStateArena(g, hier, lay, inv, damping, threads, nil)
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
		Acc:       arena.Acc(n),
		Bins:      arena.Bins(int(lay.NumMessages())),
		Inv:       inv,
		Damping:   damping,
		base:      float32((1 - damping) / float64(n)),
		partials:  arena.Partials(threads),
		residuals: arena.Residuals(threads),
	}
	FillInitRanks(s.Ranks)
	var dangling float64
	for v, iv := range inv {
		if iv == 0 {
			dangling += float64(s.Ranks[v])
		}
	}
	s.partials[0].V = dangling
	return s
}

// SetRanks replaces the initial uniform distribution with a warm-start rank
// vector and re-establishes the iteration-zero dangling invariant for the
// new ranks (flat, into partial 0 — pinned engines re-seed group-accurately
// via SeedDangling afterwards, exactly as after the constructor). The slice
// is copied; the caller's buffer is never retained.
func (s *SGState) SetRanks(warm []float32) {
	copy(s.Ranks, warm)
	for i := range s.partials {
		s.partials[i].V = 0
	}
	var dangling float64
	for v, iv := range s.Inv {
		if iv == 0 {
			dangling += float64(s.Ranks[v])
		}
	}
	s.partials[0].V = dangling
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

// ScatterPartition runs the scatter phase for partition p on behalf of
// thread tid: applies each source vertex's contribution to the local
// accumulators over the intra-edges and writes one compressed value per
// outgoing message. Dangling vertices have no out-edges, so their zero
// contribution (Inv is 0) touches nothing and the loop stays branch-free;
// their mass was already folded into the partials by the previous gather.
func (s *SGState) ScatterPartition(p int, tid int) {
	_ = tid
	part := s.Hier.Partitions[p]
	lay := s.Lay
	ranks, inv := s.Ranks, s.Inv
	acc := s.Acc
	intraOff := lay.IntraOff

	for v := int(part.VertexStart); v < int(part.VertexEnd); v++ {
		contrib := ranks[v] * inv[v]
		lo, hi := intraOff[v], intraOff[v+1]
		dst := lay.IntraDst[lo:hi:hi]
		for _, d := range dst {
			acc[d] += contrib
		}
	}

	// Compressed messages, streamed block by block with hoisted bounds.
	for bi := lay.SrcBlockStart[p]; bi < lay.SrcBlockEnd[p]; bi++ {
		b := lay.Blocks[bi]
		src := lay.MsgSrc[b.MsgStart:b.MsgEnd:b.MsgEnd]
		bins := s.Bins[b.MsgStart:b.MsgEnd:b.MsgEnd]
		for i, u := range src {
			bins[i] = ranks[u] * inv[u]
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

// GatherPartition runs the gather phase for partition p: decodes the
// messages targeting p into the accumulators, then recomputes the ranks of
// p's vertices and clears the accumulators, tracking the thread's L∞ rank
// change for convergence checks. The partition's dangling mass under the
// new ranks is folded into the thread's partial (one local sum per
// partition, accumulated in partition order), so the next iteration's
// ReduceDangling sees exactly what a scatter-side pass would have produced.
func (s *SGState) GatherPartition(p int, tid int) {
	lay := s.Lay
	acc := s.Acc
	for _, bi := range lay.DstBlocks[p] {
		b := lay.Blocks[bi]
		gatherBlock(acc, s.Bins[b.MsgStart:b.MsgEnd:b.MsgEnd], lay.MsgDst[b.DstStart:b.DstEnd:b.DstEnd])
	}

	part := s.Hier.Partitions[p]
	ranks := s.Ranks
	inv := s.Inv
	d := float32(s.Damping)
	base, redis := s.base, s.redis
	res := s.residuals[tid].V
	var dangling float64
	lo, hi := int(part.VertexStart), int(part.VertexEnd)
	v := lo
	// 4-way unrolled rank update. Each vertex is independent, the residual
	// max is order-insensitive, and the dangling adds stay in vertex order,
	// so the unroll is bit-identical to the scalar loop.
	for ; v+4 <= hi; v += 4 {
		old0, old1, old2, old3 := ranks[v], ranks[v+1], ranks[v+2], ranks[v+3]
		nv0 := base + d*acc[v] + redis
		nv1 := base + d*acc[v+1] + redis
		nv2 := base + d*acc[v+2] + redis
		nv3 := base + d*acc[v+3] + redis
		ranks[v], ranks[v+1], ranks[v+2], ranks[v+3] = nv0, nv1, nv2, nv3
		acc[v], acc[v+1], acc[v+2], acc[v+3] = 0, 0, 0, 0
		if inv[v] == 0 {
			dangling += float64(nv0)
		}
		if inv[v+1] == 0 {
			dangling += float64(nv1)
		}
		if inv[v+2] == 0 {
			dangling += float64(nv2)
		}
		if inv[v+3] == 0 {
			dangling += float64(nv3)
		}
		res = maxAbsDiff4(res, nv0, old0, nv1, old1, nv2, old2, nv3, old3)
	}
	for ; v < hi; v++ {
		old := ranks[v]
		nv := base + d*acc[v] + redis
		ranks[v] = nv
		acc[v] = 0
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
	s.residuals[tid].V = res
	s.partials[tid].V += dangling
}

// gatherBlock decodes one message block into the accumulators: bins holds
// the block's message values and dst its MsgDst range, where a flagged entry
// opens the next message. The message index k advances by the flag bit, so
// the whole block is one flat, branch-free stream of acc[d] += bins[k], with
// the same adds in the same order as a per-message loop. The stream is
// unrolled 4-way; the four updates stay in order, so repeated destinations
// accumulate exactly as in the scalar loop.
func gatherBlock(acc, bins []float32, dst []graph.VertexID) {
	const flag = layout.FirstDst
	k := -1
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d := dst[i : i+4 : i+4]
		k0 := k + int(d[0]>>31)
		k1 := k0 + int(d[1]>>31)
		k2 := k1 + int(d[2]>>31)
		k = k2 + int(d[3]>>31)
		acc[d[0]&^flag] += bins[k0]
		acc[d[1]&^flag] += bins[k1]
		acc[d[2]&^flag] += bins[k2]
		acc[d[3]&^flag] += bins[k]
	}
	for _, d := range dst[i:] {
		k += int(d >> 31)
		acc[d&^flag] += bins[k]
	}
}

// maxAbsDiff4 folds four |new-old| rank deltas into a running maximum.
func maxAbsDiff4(res float64, n0, o0, n1, o1, n2, o2, n3, o3 float32) float64 {
	d0 := float64(n0 - o0)
	if d0 < 0 {
		d0 = -d0
	}
	d1 := float64(n1 - o1)
	if d1 < 0 {
		d1 = -d1
	}
	d2 := float64(n2 - o2)
	if d2 < 0 {
		d2 = -d2
	}
	d3 := float64(n3 - o3)
	if d3 < 0 {
		d3 = -d3
	}
	if d0 > res {
		res = d0
	}
	if d1 > res {
		res = d1
	}
	if d2 > res {
		res = d2
	}
	if d3 > res {
		res = d3
	}
	return res
}
