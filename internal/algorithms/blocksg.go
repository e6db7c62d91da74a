package algorithms

import (
	"fmt"
	"math"

	"hipa/internal/engines/common"
	"hipa/internal/execbuf"
	"hipa/internal/graph"
	"hipa/internal/layout"
	"hipa/internal/partition"
)

// MaxBatch is the widest rank block the kernels support. The per-partition
// scratch the hot loops keep on the stack ([MaxBatch] contribution and
// dangling buffers) is sized by it, so batched Execs stay allocation-free
// at any width up to this bound.
const MaxBatch = 64

// BlockSG is the rank-B generalization of the partition-centric
// scatter-gather kernel (common.SGState): B PageRank columns advance in
// lockstep through one pass over the graph per iteration, so the graph
// structure — intra CSR, message metadata, destination lists — is streamed
// once per batch instead of once per query (the multi-RHS form of the PCPM
// traffic argument).
//
// Layout: rank state is vertex-interleaved, column j of vertex v at
// ranks[v*B+j], so one cache line carries up to 16 columns of the same
// vertex and the per-vertex random accesses of the batch amortize across
// the block. Ranks are double-buffered: an iteration reads ranksCur
// everywhere and writes ranksNext inside the owning partition, which lets
// the gather phase decode inter-partition messages by reading the source
// vertex's rank block directly — there is no B-wide bins array. The decoded
// value ranksCur[u*B+j] * Inv[u] is the exact multiply the scalar kernel
// materializes into its bins during scatter, applied to the accumulators in
// the same block/message/destination order, so a uniform column at B=1 is
// bit-identical to the scalar HiPa engine.
//
// The intra-edges are pulled, as in the scalar kernel: the scatter stores
// in acc each vertex's sum over its intra in-neighbours of the contribution
// block contrib[u*B+j] = ranksCur[u*B+j] * Inv[u], which the rank update
// writes next to every rank it writes. The sums are bit-identical to the
// paper's push, and a node's pull is split over all of the node's threads
// (common.PullSlices).
//
// Each column carries its own restart vector: a nil/empty seed set is the
// uniform PageRank column ((1-d)/n teleport everywhere), a non-empty seed
// set is a personalized column teleporting (and redistributing dangling
// mass) back to its seeds only. Columns converge independently: a
// per-column L∞ residual below the tolerance retires the column from the
// active list, after which it contributes no scatter, decode, or update
// work — its trajectory, iteration count included, is the one it would have
// at any other batch width. While a single column is active (every width-1
// batch, and any batch narrowed to one column by retirement) the kernels
// run it column-scalar, without the per-column loops — the same float32
// operations in the same order, so the contracts above hold bit for bit.
//
// All reductions (dangling fold, residual fold, retirement) are serial and
// in global partition/column order, so results are bit-deterministic at any
// worker count.
type BlockSG struct {
	G    *graph.Graph
	Lay  *layout.Layout
	Hier *partition.Hierarchy
	Inv  []float32

	B       int
	Damping float64
	Tol     float64 // per-column retirement threshold; 0 disables retirement

	ranksCur  []float32 // n*B, read-only during an iteration
	ranksNext []float32 // n*B, gather writes the owning partition's rows
	contrib   []float32 // n*B, ranksCur·Inv; gather writes ranksNext·Inv
	acc       []float32 // n*B accumulators, stored by the intra pull
	seedAdd   []float32 // n*B sparse teleport addends of personalized columns

	baseS  [MaxBatch]float32 // (1-d)/n for uniform columns, 0 for seeded
	redisS [MaxBatch]float32 // d*S_j/n for uniform columns, set by Reduce

	seeds [][]graph.VertexID // per column; nil/empty = uniform

	partDang   []float64 // P*B per-partition per-column dangling, overwritten by gather
	lanes      []float64 // threads*laneStride per-thread per-column residual maxima
	laneStride int       // B rounded to a cache line of float64s

	cols     []int32 // active columns, filtered in place by FoldResidual
	colIters []int32 // iterations each column actually executed

	lastDangling float64        // active-column dangling sum of the last Reduce
	started      int            // iterations begun; selects the final rank buffer
	arena        *execbuf.Arena // the Exec's arena, for PinnedKernels' pull slices

	// Modelled-traffic accounting, folded serially in Reduce: colSteps is
	// Σ over supersteps of the active column count (per-column work), and
	// lineSteps is Σ of ceil(active*4/64) — the 64-byte lines one vertex's
	// rank block spans at the active width (line-granular traffic).
	colSteps  int64
	lineSteps int64
}

// NewBlockSG builds the blocked execution state for len(seedSets) columns
// on top of a scratch arena (nil gets a private one). Column j starts at
// its restart distribution: uniform 1/n when seedSets[j] is empty,
// 1/len(seeds) on the seeds and 0 elsewhere otherwise. Seed vertices must
// be in range and per-column duplicate-free (the engine validates).
func NewBlockSG(g *graph.Graph, hier *partition.Hierarchy, lay *layout.Layout, inv []float32,
	damping, tol float64, threads int, seedSets [][]graph.VertexID, arena *execbuf.Arena) (*BlockSG, error) {
	b := len(seedSets)
	if b < 1 || b > MaxBatch {
		return nil, fmt.Errorf("blocksg: batch width %d outside [1,%d]", b, MaxBatch)
	}
	if threads < 1 {
		return nil, fmt.Errorf("blocksg: threads %d < 1", threads)
	}
	if arena == nil {
		arena = &execbuf.Arena{}
	}
	n := g.NumVertices()
	P := hier.NumPartitions()
	s := &BlockSG{
		G: g, Lay: lay, Hier: hier, Inv: inv,
		B: b, Damping: damping, Tol: tol,
		seedAdd:    arena.SeedAdd(n * b),
		partDang:   arena.PartDanglingBlock(P * b),
		laneStride: (b + 7) &^ 7,
		cols:       arena.Cols(b),
		colIters:   arena.ColIters(b),
		seeds:      seedSets,
		arena:      arena,
	}
	s.ranksCur, s.ranksNext = arena.RanksBlockPair(n * b)
	s.contrib = arena.ContribBlock(n * b)
	s.acc = arena.AccBlock(n * b)
	s.lanes = arena.ColLanes(threads * s.laneStride)

	// Restart distributions and the per-column update constants.
	var init [MaxBatch]float32
	uniform := float32(1.0 / float64(n))
	for j := 0; j < b; j++ {
		s.cols[j] = int32(j)
		if len(seedSets[j]) == 0 {
			init[j] = uniform
			s.baseS[j] = float32((1 - damping) / float64(n))
		}
	}
	for i := 0; i < n*b; i += b {
		copy(s.ranksCur[i:i+b], init[:b])
	}
	for j, sv := range seedSets {
		if len(sv) == 0 {
			continue
		}
		w := float32(1.0 / float64(len(sv)))
		for _, v := range sv {
			if int(v) >= n {
				return nil, fmt.Errorf("blocksg: column %d seed %d outside graph of %d vertices", j, v, n)
			}
			s.ranksCur[int(v)*b+j] = w
		}
	}
	for v, iv := range inv[:n] {
		for i := v * b; i < v*b+b; i++ {
			s.contrib[i] = s.ranksCur[i] * iv
		}
	}

	// Iteration-zero dangling invariant: partDang holds the initial
	// distribution's per-partition per-column dangling mass, exactly what a
	// gather pass under these ranks would have written. Serial, so the seed
	// is worker-count independent like every other fold here.
	for p := 0; p < P; p++ {
		part := hier.Partitions[p]
		var dang [MaxBatch]float64
		for v := int(part.VertexStart); v < int(part.VertexEnd); v++ {
			if inv[v] != 0 {
				continue
			}
			rb := s.ranksCur[v*b : v*b+b]
			for j := 0; j < b; j++ {
				dang[j] += float64(rb[j])
			}
		}
		copy(s.partDang[p*b:(p+1)*b], dang[:b])
	}
	return s, nil
}

// StartIteration swaps the double-buffered rank blocks so the ranks the
// previous gather wrote become the read side. Runs serially before each
// iteration's scatter.
func (s *BlockSG) StartIteration(it int) {
	if it > 0 {
		s.ranksCur, s.ranksNext = s.ranksNext, s.ranksCur
	}
	s.started++
}

// PullIntra stores in acc[v*B+j], for each v in [lo,hi) and each active
// column j, the sum of contrib[u*B+j] over v's intra in-neighbours u in
// ascending order, starting from +0: the same float32 adds in the same
// order as a push of ranksCur[u*B+j]*Inv[u] over the intra-edges into a
// zeroed block, so the sums are bit-identical to the paper's push, while
// disjoint vertex ranges can run on different threads. Inter-partition
// traffic needs no scatter work at all — the gather side reads source rank
// blocks directly.
func (s *BlockSG) PullIntra(lo, hi int) {
	off, src := s.Lay.IntraInOff, s.Lay.IntraSrc
	b := s.B
	cols := s.cols
	contrib, acc := s.contrib, s.acc
	e := off[lo]
	if len(cols) == 1 {
		// Column-scalar: one active column needs no per-column loop or
		// scratch.
		j := int(cols[0])
		for v := lo; v < hi; v++ {
			end := off[v+1]
			var sum float32
			for _, u := range src[e:end:end] {
				sum += contrib[int(u)*b+j]
			}
			acc[v*b+j] = sum
			e = end
		}
		return
	}
	var sums [MaxBatch]float32
	for v := lo; v < hi; v++ {
		end := off[v+1]
		clear(sums[:len(cols)])
		for _, u := range src[e:end:end] {
			cb := contrib[int(u)*b : int(u)*b+b : int(u)*b+b]
			for k, j := range cols {
				sums[k] += cb[j]
			}
		}
		ab := acc[v*b : v*b+b : v*b+b]
		for k, j := range cols {
			ab[j] = sums[k]
		}
		e = end
	}
}

// Reduce runs serially between the phases: folds the per-partition dangling
// blocks into each active column's redistribution term (uniform columns) or
// refreshed seed addends (personalized columns), and advances the
// per-column iteration counters and traffic accounting. The fold is in
// global partition order per column, independent of the thread layout.
func (s *BlockSG) Reduce() {
	b := s.B
	n := s.G.NumVertices()
	d := s.Damping
	var total float64
	for _, j := range s.cols {
		var sum float64
		for p := 0; p*b < len(s.partDang); p++ {
			sum += s.partDang[p*b+int(j)]
		}
		total += sum
		if sv := s.seeds[j]; len(sv) == 0 {
			if n > 0 {
				s.redisS[j] = float32(d * sum / float64(n))
			}
		} else {
			w := 1.0 / float64(len(sv))
			add := float32((1-d)*w + d*sum*w)
			for _, v := range sv {
				s.seedAdd[int(v)*b+int(j)] = add
			}
		}
		s.colIters[j]++
	}
	s.lastDangling = total
	active := int64(len(s.cols))
	s.colSteps += active
	s.lineSteps += (active*4 + 63) / 64
}

// GatherPartition decodes the inter-partition messages targeting p by
// reading each message's source rank block from the read-side buffer —
// ranksCur[u*B+j] * Inv[u] is bitwise the value the scalar kernel binned
// during scatter, applied in the same block/message/destination order —
// then recomputes p's rank rows into the write-side buffer:
//
//	next = baseS[j] + d*acc + redisS[j] + seedAdd[v*B+j]
//
// (left-associated; the trailing addend is 0.0 for uniform columns, a
// bitwise no-op on their non-negative ranks, so the B=1 uniform update is
// exactly the scalar one), with contrib = next*Inv[v] beside it. The
// partition's per-column dangling mass under the new ranks overwrites its
// partDang block, and per-column residual maxima fold into the thread's
// lane.
//
// The decode must not read contrib: the gathers of other partitions,
// running in the same phase, overwrite it for their own vertices.
func (s *BlockSG) GatherPartition(p int, tid int) {
	lay := s.Lay
	b := s.B
	cols := s.cols
	ranks, inv, acc, contrib := s.ranksCur, s.Inv, s.acc, s.contrib

	var cb [MaxBatch]float32
	for _, bi := range lay.DstBlocks[p] {
		blk := lay.Blocks[bi]
		src := lay.MsgSrc[blk.MsgStart:blk.MsgEnd:blk.MsgEnd]
		dst := lay.MsgDst[blk.DstStart:blk.DstEnd:blk.DstEnd]
		// A flagged destination opens the next message: rebuild its column
		// value(s) from its source's rank row, then add them to every
		// destination of the message.
		m := -1
		if len(cols) == 1 {
			j := int(cols[0])
			var c float32
			for _, dv := range dst {
				if dv&layout.FirstDst != 0 {
					m++
					u := int(src[m])
					c = ranks[u*b+j] * inv[u]
				}
				acc[int(dv&^layout.FirstDst)*b+j] += c
			}
			continue
		}
		for _, dv := range dst {
			if dv&layout.FirstDst != 0 {
				m++
				u := int(src[m])
				iv := inv[u]
				rb := ranks[u*b : u*b+b : u*b+b]
				for k, j := range cols {
					cb[k] = rb[j] * iv
				}
			}
			v := int(dv &^ layout.FirstDst)
			ab := acc[v*b : v*b+b : v*b+b]
			for k, j := range cols {
				ab[j] += cb[k]
			}
		}
	}

	part := s.Hier.Partitions[p]
	next := s.ranksNext
	seedAdd := s.seedAdd
	d := float32(s.Damping)
	lanes := s.lanes[tid*s.laneStride : (tid+1)*s.laneStride : (tid+1)*s.laneStride]
	pd := s.partDang[p*b : (p+1)*b : (p+1)*b]
	if len(cols) == 1 {
		// The same update, column-scalar: one active column needs no
		// per-column loop or scratch.
		j := int(cols[0])
		base, redis, res := s.baseS[j], s.redisS[j], lanes[j]
		var dang float64
		for v := int(part.VertexStart); v < int(part.VertexEnd); v++ {
			i := v*b + j
			old := ranks[i]
			nv := base + d*acc[i] + redis + seedAdd[i]
			next[i] = nv
			contrib[i] = nv * inv[v]
			if inv[v] == 0 {
				dang += float64(nv)
			}
			if diff := math.Abs(float64(nv - old)); diff > res {
				res = diff
			}
		}
		lanes[j], pd[j] = res, dang
		return
	}
	var dang [MaxBatch]float64
	for v := int(part.VertexStart); v < int(part.VertexEnd); v++ {
		i := v * b
		iv := inv[v]
		for k, j := range cols {
			old := ranks[i+int(j)]
			nv := s.baseS[j] + d*acc[i+int(j)] + s.redisS[j] + seedAdd[i+int(j)]
			next[i+int(j)] = nv
			contrib[i+int(j)] = nv * iv
			if iv == 0 {
				dang[k] += float64(nv)
			}
			if diff := math.Abs(float64(nv - old)); diff > lanes[j] {
				lanes[j] = diff
			}
		}
	}
	for k, j := range cols {
		pd[j] = dang[k]
	}
}

// FoldResidual folds the per-thread residual lanes into per-column maxima,
// retires columns whose residual fell below the tolerance (order-preserving
// in-place filter of the active list; a retired column's rank rows are
// mirrored into the read-side buffer so both buffers carry its final ranks
// through later swaps), clears the lanes, and returns the maximum residual
// over the columns still active — 0 once every column has retired, which
// stops the driver. Serial (the driver's residual slot).
func (s *BlockSG) FoldResidual() float64 {
	b := s.B
	n := s.G.NumVertices()
	threads := len(s.lanes) / s.laneStride
	var max float64
	keep := s.cols[:0]
	for _, j := range s.cols {
		var m float64
		for t := 0; t < threads; t++ {
			if v := s.lanes[t*s.laneStride+int(j)]; v > m {
				m = v
			}
		}
		if s.Tol > 0 && m < s.Tol {
			// Retired: mirror the final column into the read-side buffer so
			// the post-iteration swap (and every later one) is harmless.
			for i := int(j); i < n*b; i += b {
				s.ranksCur[i] = s.ranksNext[i]
			}
			continue
		}
		keep = append(keep, j)
		if m > max {
			max = m
		}
	}
	s.cols = keep
	clear(s.lanes)
	return max
}

// LastDanglingMass reports the active-column dangling sum folded by the
// most recent Reduce, for per-iteration statistics.
func (s *BlockSG) LastDanglingMass() float64 { return s.lastDangling }

// FinalRanks returns the vertex-interleaved rank block holding the latest
// completed iteration's ranks (the initial distributions before any
// iteration ran). The slice aliases arena memory — copy columns out before
// releasing the arena.
func (s *BlockSG) FinalRanks() []float32 {
	if s.started == 0 {
		return s.ranksCur
	}
	return s.ranksNext
}

// CopyColumn copies column j of the final rank block into dst (length
// NumVertices).
func (s *BlockSG) CopyColumn(j int, dst []float32) {
	final := s.FinalRanks()
	b := s.B
	for v := range dst {
		dst[v] = final[v*b+j]
	}
}

// ColumnIterations reports how many iterations each column executed —
// retired columns stop counting, so at any batch width a column's count
// matches its solo run.
func (s *BlockSG) ColumnIterations() []int32 { return s.colIters }

// ActiveColumns reports how many columns are still iterating.
func (s *BlockSG) ActiveColumns() int { return len(s.cols) }

// ColSteps is the summed active-column count over all executed supersteps —
// the Σ_t B_active(t) factor of the per-column modelled traffic.
func (s *BlockSG) ColSteps() int64 { return s.colSteps }

// LineSteps is the summed per-vertex rank-block line count over all
// executed supersteps — Σ_t ceil(B_active(t)*4/64), the factor of all
// line-granular (random and message-payload) modelled traffic.
func (s *BlockSG) LineSteps() int64 { return s.lineSteps }

// PinnedKernels adapts the blocked kernel to the superstep driver under
// HiPa's pinned thread-data mapping: in the scatter, thread tid pulls the
// intra sums of its slice of its node's vertex range (common.PullSlices,
// HiPa's split); in the gather it owns exactly the partitions of
// groups[tid]. All function values are created here, once per Exec,
// keeping the driver's zero-allocations-per-iteration guarantee.
func (s *BlockSG) PinnedKernels(groups []partition.Group) common.PhaseKernels {
	k := &blockPinned{s: s, groups: groups,
		slices: common.PullSlices(s.Lay, s.Hier, groups, s.arena.Slices(2*len(groups)))}
	return common.PhaseKernels{
		StartIteration: s.StartIteration,
		Scatter:        k.scatter,
		Reduce:         s.Reduce,
		Gather:         k.gather,
		Residual:       s.FoldResidual,
		DanglingMass:   s.LastDanglingMass,
	}
}

// blockPinned holds one Exec's pinned assignment: each thread's pull slice
// and its partition group.
type blockPinned struct {
	s      *BlockSG
	groups []partition.Group
	slices []int32
}

func (k *blockPinned) scatter(tid int) {
	k.s.PullIntra(int(k.slices[2*tid]), int(k.slices[2*tid+1]))
}

func (k *blockPinned) gather(tid int) {
	gr := k.groups[tid]
	for p := gr.PartStart; p < gr.PartEnd; p++ {
		k.s.GatherPartition(p, tid)
	}
}
