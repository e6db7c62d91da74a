package algorithms

import (
	"fmt"
	"math"
	"slices"

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
// structure — both pulls and the message sources — is streamed once per
// batch instead of once per query (the multi-RHS form of the PCPM traffic
// argument).
//
// Layout: rank state is vertex-interleaved, column j of vertex v at
// ranks[v*B+j], so one cache line carries up to 16 columns of the same
// vertex and the per-vertex random accesses of the batch amortize across
// the block. Ranks are double-buffered: an iteration reads ranksCur
// everywhere and writes ranksNext inside the owning partition, which lets
// the gather phase add inter-partition messages by reading the source
// vertex's rank block directly — there is no B-wide bins array. The value
// ranksCur[u*B+j] * Inv[u] of each inter pull entry is the exact multiply
// the scalar kernel materializes into its bins during scatter, added to
// each accumulator in the same order as the scalar kernel's inter pull, so
// a uniform column at B=1 is bit-identical to the scalar HiPa engine.
//
// The intra-edges are pulled over the layout's sliced ELLPACK, as in the
// scalar kernel: the scatter stores in acc each vertex's sum over its intra
// in-neighbours of the contribution block contrib[u*B+j] = ranksCur[u*B+j]
// * Inv[u], which the rank update writes next to every rank it writes. Row
// n of contrib is the +0 the pull's padding entries add. The sums are
// bit-identical to the paper's push, and a node's pull is split over all of
// the node's threads (common.PullSlices).
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
// A width-1 block is SGState's layout, so its intra pull and rank update
// are HiPa's vector kernels (common.PullSELL, common.UpdateRanks).
//
// A width-1 personalized column starts sparse: its support is the seeds
// and spreads one hop per iteration. While the frontier — the vertices of
// non-zero contribution — has few out-edges against the pulls' entries
// (common.PushPays), an iteration pushes it over the graph's out-CSR on
// one thread instead of pulling (Push), and the gather skips its decode.
// The first iteration past the switch latches to the pulls for the rest
// of the Exec. Each destination receives the same non-zero addends in the
// same order either way, so the push changes no bit (DESIGN §4i).
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
	contrib   []float32 // (n+1)*B, ranksCur·Inv; gather writes ranksNext·Inv; row n is +0
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

	// Sparse start (a width-1 seeded column): push is set while iterations
	// push. front holds the frontier, ascending, partition p's segment at
	// its first vertex with frontCount[p] entries and frontEdges[p]
	// out-edges; the gather of a push iteration rewrites p's segment.
	push       bool
	front      []graph.VertexID
	frontCount []int32
	frontEdges []int64
	pushIters  int

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
	s.contrib = arena.ContribBlock((n + 1) * b)
	clear(s.contrib[n*b:])
	s.acc = arena.AccBlock(n * b)
	s.lanes = arena.ColLanes(threads * s.laneStride)

	// Restart distributions and the per-column update constants.
	var init [MaxBatch]float32
	uniform := float32(1.0 / float64(n))
	for j, sv := range seedSets {
		s.cols[j] = int32(j)
		if len(sv) == 0 {
			init[j] = uniform
			s.baseS[j] = float32((1 - damping) / float64(n))
		}
		for _, v := range sv {
			if int(v) >= n {
				return nil, fmt.Errorf("blocksg: column %d seed %d outside graph of %d vertices", j, v, n)
			}
		}
	}
	if b == 1 && len(seedSets[0]) > 0 {
		s.startSparse(seedSets[0])
		return s, nil
	}
	// Every vertex's block is init: the first block, then doubling copies.
	copy(s.ranksCur, init[:b])
	for k := b; k < n*b; k *= 2 {
		copy(s.ranksCur[k:], s.ranksCur[:k])
	}
	for j, sv := range seedSets {
		w := float32(1.0 / float64(len(sv)))
		for _, v := range sv {
			s.ranksCur[int(v)*b+j] = w
		}
	}
	if b == 1 {
		for v, iv := range inv[:n] {
			s.contrib[v] = s.ranksCur[v] * iv
		}
	} else {
		for v, iv := range inv[:n] {
			for i := v * b; i < v*b+b; i++ {
				s.contrib[i] = s.ranksCur[i] * iv
			}
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

// startSparse seeds a width-1 personalized column in O(seeds) after
// clearing its blocks: the seeds' ranks and contributions, the dangling
// seeds' mass in their partitions' partDang (equal addends, so the sum
// does not depend on the seeds' order) and the first frontier, the seeds
// of non-zero contribution. acc is zeroed for the first push.
func (s *BlockSG) startSparse(seeds []graph.VertexID) {
	n, P := s.G.NumVertices(), s.Hier.NumPartitions()
	s.front = s.arena.Frontier(n)
	s.frontCount = s.arena.PartCounts(P)
	s.frontEdges = s.arena.PartEdges(P)
	clear(s.ranksCur)
	clear(s.contrib)
	clear(s.acc)
	off := s.G.OutOffsets()
	w := float32(1.0 / float64(len(seeds)))
	for _, v := range seeds {
		s.ranksCur[v] = w
		c := w * s.Inv[v]
		s.contrib[v] = c
		p := s.Hier.PartitionOfVertex(v)
		if s.Inv[v] == 0 {
			s.partDang[p] += float64(w)
		}
		if c != 0 {
			s.front[int(s.Hier.Partitions[p].VertexStart)+int(s.frontCount[p])] = v
			s.frontCount[p]++
			s.frontEdges[p] += off[v+1] - off[v]
		}
	}
	for p, k := range s.frontCount {
		if k > 1 {
			lo := int(s.Hier.Partitions[p].VertexStart)
			slices.Sort(s.front[lo : lo+int(k)])
		}
	}
	s.push = true
}

// pushNext reports whether the coming iteration pushes: the column is
// still sparse, and its frontier's out-edges are under the switch.
func (s *BlockSG) pushNext() bool {
	if !s.push {
		return false
	}
	var edges int64
	for _, e := range s.frontEdges {
		edges += e
	}
	return common.PushPays(edges, s.Lay.IntraPull.Entries()+s.Lay.InterPull.Entries())
}

// StartIteration swaps the double-buffered rank blocks so the ranks the
// previous gather wrote become the read side, and decides whether a
// sparse column pushes this iteration; once it does not, it never does
// again in this Exec — a seeded column's support only grows. Runs
// serially before each iteration's scatter.
func (s *BlockSG) StartIteration(it int) {
	if it > 0 {
		s.ranksCur, s.ranksNext = s.ranksNext, s.ranksCur
	}
	s.started++
	s.push = s.pushNext()
	if s.push {
		s.pushIters++
	}
}

// Push is the scatter of a push iteration, on one thread: it adds the
// frontier's contributions into the zeroed acc over the out-CSR, first
// every intra destination and then every inter one, each pass walking the
// frontier in ascending source order. A destination thus receives the
// non-zero addends of its intra pull row in row order from +0, then those
// of its inter pull row in message order, which is ascending source —
// exactly what the pull and the gather's decode add, less their +0 terms.
// The second pass finds nothing on a one-partition graph.
func (s *BlockSG) Push() {
	s.pushPass(true)
	if s.Lay.InterEdges > 0 {
		s.pushPass(false)
	}
}

// pushPass pushes every frontier segment's intra (inside) or inter edges.
func (s *BlockSG) pushPass(inside bool) {
	off, adj := s.G.OutOffsets(), s.G.OutEdges()
	for p, k := range s.frontCount {
		part := s.Hier.Partitions[p]
		lo := int(part.VertexStart)
		common.PushCSR(off, adj, s.contrib, s.acc, s.front[lo:lo+int(k)], part.VertexStart, part.VertexEnd, inside)
	}
}

// collectFrontier rewrites partition p's frontier segment, [lo,hi) its
// vertex range, from the contributions its rank update just wrote, and
// zeroes its accumulators for the next push.
func (s *BlockSG) collectFrontier(p, lo, hi int) {
	// Branch-free compaction: every vertex is written, and the cursor
	// steps past the non-zero ones.
	front := s.front[lo:hi]
	k := 0
	for i, c := range s.contrib[lo:hi] {
		front[k] = graph.VertexID(lo + i)
		if c != 0 {
			k++
		}
	}
	off := s.G.OutOffsets()
	var edges int64
	for _, v := range front[:k] {
		edges += off[v+1] - off[v]
	}
	s.frontCount[p], s.frontEdges[p] = int32(k), edges
	clear(s.acc[lo:hi])
}

// Frontier returns the sparse column's frontier statistics for the
// superstep driver, or nil when the batch has no sparse start.
func (s *BlockSG) Frontier() common.Frontier {
	if s.front == nil {
		return nil
	}
	return s
}

// Stats implements common.Frontier: a push iteration's active vertices
// are its frontier; every other iteration is dense. The rank update runs
// on every partition either way.
func (s *BlockSG) Stats() common.FrontierStats {
	P, n := s.Hier.NumPartitions(), int64(s.G.NumVertices())
	st := common.FrontierStats{ActivePartitions: P, TotalPartitions: P, ActiveVertices: n, TotalVertices: n}
	if s.pushNext() {
		var k int64
		for _, c := range s.frontCount {
			k += int64(c)
		}
		st.ActiveVertices = k
	}
	return st
}

// Rebuild implements common.Frontier: the gather already rewrote the
// frontier, so it only reports the next iteration's statistics.
func (s *BlockSG) Rebuild(int) (common.FrontierStats, bool) { return s.Stats(), false }

// PushIterations reports how many iterations pushed.
func (s *BlockSG) PushIterations() int { return s.pushIters }

// gatherTileSteps is the steps of an inter pull chunk GatherPartition
// decodes at a time.
const gatherTileSteps = 64

// pullTileRows sizes PullIntra's tile: a tile of pullTileRows/B steps of a
// chunk reads at most 8*pullTileRows/B contribution rows of B floats, 16 KB,
// so they stay in L1 while every active column walks the tile.
const pullTileRows = 512

// PullIntra stores in acc[v*B+j], for each vertex v of the pull chunks
// [clo,chi) and each active column j, the sum of contrib[u*B+j] over v's
// intra in-neighbours u in ascending order, starting from +0: the same
// float32 adds in the same order as a push of ranksCur[u*B+j]*Inv[u] over
// the intra-edges into a zeroed block, so the sums are bit-identical to the
// paper's push, while disjoint chunk ranges can run on different threads.
// A chunk's eight lanes are summed side by side, eight independent add
// chains per column, as in SGState.PullIntra: padding entries add row n's
// +0, which no sum (never −0) notices, and padding lanes are not stored.
// With several active columns the chunk is walked in tiles, each column
// of a tile in turn, so the tile's contribution rows are read from memory
// once for all the columns; a tile that starts with padding lanes sums
// only its real lanes, one at a time, and stops each at its padding, so
// the wide batches do not pay B adds per padding entry. Inter-partition
// traffic needs no scatter work at all — the gather side reads source rank
// blocks directly.
func (s *BlockSG) PullIntra(clo, chi int) {
	const lanes = layout.PullLanes
	pull := &s.Lay.IntraPull
	perm := pull.Perm
	b := s.B
	cols := s.cols
	contrib, acc := s.contrib, s.acc
	sink := graph.VertexID(len(acc) / b)
	if len(cols) == 1 && b == 1 {
		// A width-1 block is SGState's layout, so it takes the shared pull
		// kernel.
		common.PullSELL(pull, contrib, acc, clo, chi)
		return
	}
	var buf [pullTileRows / 2 * lanes]graph.VertexID
	tileLen := max(1, pullTileRows/b) * lanes
	if len(cols) == 1 {
		// Column-scalar: one active column needs no per-column loop or
		// scratch.
		j := int(cols[0])
		for c := clo; c < chi; c++ {
			var s0, s1, s2, s3, s4, s5, s6, s7 float32
			dec := pull.Decoder(c, sink)
			for t := dec.Next(buf[:tileLen]); len(t) > 0; t = dec.Next(buf[:tileLen]) {
				for e := 0; e < len(t); e += lanes {
					r := t[e : e+lanes : e+lanes]
					s0 += contrib[int(r[0])*b+j]
					s1 += contrib[int(r[1])*b+j]
					s2 += contrib[int(r[2])*b+j]
					s3 += contrib[int(r[3])*b+j]
					s4 += contrib[int(r[4])*b+j]
					s5 += contrib[int(r[5])*b+j]
					s6 += contrib[int(r[6])*b+j]
					s7 += contrib[int(r[7])*b+j]
				}
			}
			v := perm[c*lanes : c*lanes+lanes : c*lanes+lanes]
			if v[lanes-1] == sink {
				sums := [lanes]float32{s0, s1, s2, s3, s4, s5, s6, s7}
				for i, u := range v {
					if u != sink {
						acc[int(u)*b+j] = sums[i]
					}
				}
				continue
			}
			acc[int(v[0])*b+j], acc[int(v[1])*b+j], acc[int(v[2])*b+j], acc[int(v[3])*b+j] = s0, s1, s2, s3
			acc[int(v[4])*b+j], acc[int(v[5])*b+j], acc[int(v[6])*b+j], acc[int(v[7])*b+j] = s4, s5, s6, s7
		}
		return
	}
	// Several columns: each column of a tile is summed like the scalar
	// path, eight lanes side by side, while the tile's contribution rows
	// stay in L1 for the next column.
	var sums [MaxBatch][lanes]float32
	for c := clo; c < chi; c++ {
		for k := range cols {
			sums[k] = [lanes]float32{}
		}
		dec := pull.Decoder(c, sink)
		for t := dec.Next(buf[:tileLen]); len(t) > 0; t = dec.Next(buf[:tileLen]) {
			// Lanes are sorted by length, so the lanes still real at the
			// tile's first step are a prefix.
			live := 0
			for live < lanes && t[live] != sink {
				live++
			}
			if live < lanes {
				for k, j := range cols {
					j := int(j)
					for i := 0; i < live; i++ {
						sum := sums[k][i]
						for e := i; e < len(t); e += lanes {
							u := int(t[e])
							if u == int(sink) {
								break
							}
							sum += contrib[u*b+j]
						}
						sums[k][i] = sum
					}
				}
				continue
			}
			for k, j := range cols {
				j := int(j)
				sk := &sums[k]
				s0, s1, s2, s3, s4, s5, s6, s7 := sk[0], sk[1], sk[2], sk[3], sk[4], sk[5], sk[6], sk[7]
				for e := 0; e < len(t); e += lanes {
					r := t[e : e+lanes : e+lanes]
					s0 += contrib[int(r[0])*b+j]
					s1 += contrib[int(r[1])*b+j]
					s2 += contrib[int(r[2])*b+j]
					s3 += contrib[int(r[3])*b+j]
					s4 += contrib[int(r[4])*b+j]
					s5 += contrib[int(r[5])*b+j]
					s6 += contrib[int(r[6])*b+j]
					s7 += contrib[int(r[7])*b+j]
				}
				*sk = [lanes]float32{s0, s1, s2, s3, s4, s5, s6, s7}
			}
		}
		for i, u := range perm[c*lanes : c*lanes+lanes : c*lanes+lanes] {
			if u == sink {
				break
			}
			ab := acc[int(u)*b : int(u)*b+b : int(u)*b+b]
			for k, j := range cols {
				ab[j] = sums[k][i]
			}
		}
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
			add := float32(float64((1-d)*w) + float64(d*sum*w))
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

// GatherPartition adds the inter-partition messages targeting p by walking
// p's inter pull rows — each vertex's messages in ascending index, the
// order a push decodes them in — and rebuilding each entry's column values
// from its message's source rank block in the read-side buffer:
// ranksCur[u*B+j] * Inv[u] is bitwise the value the scalar kernel binned
// during scatter. It then recomputes p's rank rows into the write-side
// buffer:
//
//	next = baseS[j] + d*acc + redisS[j] + seedAdd[v*B+j]
//
// (left-associated, with d*acc rounded on its own as in the scalar
// kernel; the trailing addend is 0.0 for uniform columns, a bitwise no-op
// on their non-negative ranks, so the B=1 uniform update is exactly the
// scalar one), with contrib = next*Inv[v] beside it. The partition's
// per-column dangling mass under the new ranks overwrites its partDang
// block, and per-column residual maxima fold into the thread's lane.
//
// The decode must not read contrib: the gathers of other partitions,
// running in the same phase, overwrite it for their own vertices.
func (s *BlockSG) GatherPartition(p int, tid int) {
	lay := s.Lay
	b := s.B
	cols := s.cols
	ranks, inv, acc, contrib := s.ranksCur, s.Inv, s.acc, s.contrib

	ip := &lay.InterPull
	src := lay.MsgSrc
	sink := graph.VertexID(len(src))
	clo, chi := ip.Chunks(p)
	if s.push {
		// The push added the inter-edges too.
		clo = chi
	}
	var buf [gatherTileSteps * layout.PullLanes]graph.VertexID
	for c := clo; c < chi; c++ {
		dec := ip.Decoder(c, sink)
		lanes := ip.Lanes(c)
		for t := dec.Next(buf[:]); len(t) > 0; t = dec.Next(buf[:]) {
			for i, v := range lanes {
				// Lanes are sorted by row length, so the first lane
				// whose row has ended ends the tile's real rows.
				if t[i] == sink {
					break
				}
				if len(cols) == 1 {
					j := int(cols[0])
					a := int(v)*b + j
					sum := acc[a]
					for e := i; e < len(t) && t[e] != sink; e += layout.PullLanes {
						u := int(src[t[e]])
						sum += float32(ranks[u*b+j] * inv[u])
					}
					acc[a] = sum
					continue
				}
				ab := acc[int(v)*b : int(v)*b+b : int(v)*b+b]
				for e := i; e < len(t) && t[e] != sink; e += layout.PullLanes {
					u := int(src[t[e]])
					iv := inv[u]
					rb := ranks[u*b : u*b+b : u*b+b]
					for _, j := range cols {
						ab[j] += float32(rb[j] * iv)
					}
				}
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
		// per-column loop or scratch. A width-1 block's column is
		// contiguous, so it takes the shared rank-update kernel, with the
		// seed addends as its addend; a column narrowed from a wider
		// block is strided and keeps the loop.
		if b == 1 {
			lo, hi := int(part.VertexStart), int(part.VertexEnd)
			lanes[0], pd[0] = common.UpdateRanks(ranks[lo:hi], next[lo:hi], contrib[lo:hi], acc[lo:hi], inv[lo:hi], seedAdd[lo:hi],
				d, s.baseS[0], s.redisS[0], lanes[0])
			if s.push {
				s.collectFrontier(p, lo, hi)
			}
			return
		}
		j := int(cols[0])
		base, redis, res := s.baseS[j], s.redisS[j], lanes[j]
		var dang float64
		for v := int(part.VertexStart); v < int(part.VertexEnd); v++ {
			i := v*b + j
			old := ranks[i]
			nv := base + float32(d*acc[i]) + redis + seedAdd[i]
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
			nv := s.baseS[j] + float32(d*acc[i+int(j)]) + s.redisS[j] + seedAdd[i+int(j)]
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

// ColSteps is the summed active-column count over all executed supersteps —
// the Σ_t B_active(t) factor of the per-column modelled traffic.
func (s *BlockSG) ColSteps() int64 { return s.colSteps }

// LineSteps is the summed per-vertex rank-block line count over all
// executed supersteps — Σ_t ceil(B_active(t)*4/64), the factor of all
// line-granular (random and message-payload) modelled traffic.
func (s *BlockSG) LineSteps() int64 { return s.lineSteps }

// PinnedKernels adapts the blocked kernel to the superstep driver under
// HiPa's pinned thread-data mapping: in the scatter, thread tid pulls the
// intra sums of its slice of its node's pull chunks (common.PullSlices,
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
	if k.s.push {
		if tid == 0 {
			k.s.Push()
		}
		return
	}
	k.s.PullIntra(int(k.slices[2*tid]), int(k.slices[2*tid+1]))
}

func (k *blockPinned) gather(tid int) {
	gr := k.groups[tid]
	for p := gr.PartStart; p < gr.PartEnd; p++ {
		k.s.GatherPartition(p, tid)
	}
}
