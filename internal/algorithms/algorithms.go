// Package algorithms implements the paper's future-work extensions (§6) on
// top of the HiPa substrate: sparse matrix-vector multiplication (SpMV),
// PageRank-Delta, and breadth-first search. Each algorithm reuses the
// hierarchical partitioning (internal/partition) and the compressed
// partition-centric layout (internal/layout) with persistent pinned-style
// worker threads, exactly as the HiPa PageRank engine does.
package algorithms

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"hipa/internal/engines/common"
	"hipa/internal/graph"
	"hipa/internal/layout"
	"hipa/internal/partition"
)

// Config configures the parallel substrate for the algorithms.
type Config struct {
	// Threads is the number of worker threads (0 = GOMAXPROCS).
	Threads int
	// PartitionBytes is the cache-able partition size (0 = 256KB).
	PartitionBytes int
	// NumNodes is the number of NUMA nodes to partition for (0 = 2).
	NumNodes int
}

func (c Config) withDefaults(n int) Config {
	if c.Threads == 0 {
		c.Threads = runtime.GOMAXPROCS(0)
	}
	if c.PartitionBytes == 0 {
		c.PartitionBytes = 256 << 10
	}
	if c.NumNodes == 0 {
		c.NumNodes = 2
	}
	// Clamp to the vertex count first, then round to a node multiple (one
	// partition group per thread, evenly over nodes) with a floor of one
	// thread per node — the rounding must come last so the thread count
	// always equals the group count.
	if c.Threads > n {
		c.Threads = n
	}
	if c.Threads < c.NumNodes {
		c.Threads = c.NumNodes
	}
	c.Threads = (c.Threads / c.NumNodes) * c.NumNodes
	return c
}

// prepared bundles the HiPa substrate for one graph.
type prepared struct {
	g    *graph.Graph
	hier *partition.Hierarchy
	lay  *layout.Layout
	cfg  Config
}

func prepare(g *graph.Graph, cfg Config) (*prepared, error) {
	if g.NumVertices() == 0 {
		return nil, fmt.Errorf("algorithms: empty graph")
	}
	cfg = cfg.withDefaults(g.NumVertices())
	hier, err := partition.Build(g, partition.Config{
		PartitionBytes: cfg.PartitionBytes,
		BytesPerVertex: 4,
		NumNodes:       cfg.NumNodes,
		GroupsPerNode:  cfg.Threads / cfg.NumNodes,
	})
	if err != nil {
		return nil, err
	}
	lay, err := layout.Build(g, hier, true)
	if err != nil {
		return nil, err
	}
	return &prepared{g: g, hier: hier, lay: lay, cfg: cfg}, nil
}

// propagate computes y[v] = Σ_{u→v} x[u] with the partition-centric
// scatter-gather: each thread scatters its own partitions' compressed
// messages and intra-edges, then gathers the messages targeting its
// partitions. y must be zeroed; x and y may not alias.
func (p *prepared) propagate(x, y []float32, bins []float32, bar *common.Barrier, tid int) {
	gr := p.hier.Groups[tid]
	lay := p.lay
	// Scatter.
	for pi := gr.PartStart; pi < gr.PartEnd; pi++ {
		part := p.hier.Partitions[pi]
		for v := int(part.VertexStart); v < int(part.VertexEnd); v++ {
			xv := x[v]
			if xv == 0 {
				continue
			}
			for _, d := range lay.IntraDst[lay.IntraOff[v]:lay.IntraOff[v+1]] {
				y[d] += xv
			}
		}
		for bi := lay.SrcBlockStart[pi]; bi < lay.SrcBlockEnd[pi]; bi++ {
			b := lay.Blocks[bi]
			for m := b.MsgStart; m < b.MsgEnd; m++ {
				bins[m] = x[lay.MsgSrc[m]]
			}
		}
	}
	bar.Wait()
	// Gather: walk the partitions' inter pull rows, each vertex's messages
	// in ascending index, the order a push decodes them in.
	ip := &lay.InterPull
	sink := graph.VertexID(lay.NumMessages())
	for pi := gr.PartStart; pi < gr.PartEnd; pi++ {
		clo, chi := ip.Chunks(pi)
		for c := clo; c < chi; c++ {
			lo, end := ip.Chunk[c], ip.Chunk[c+1]
			for i, d := range ip.Lanes(c) {
				for e := lo + int64(i); e < end; e += layout.PullLanes {
					m := ip.Idx[e]
					if m == sink {
						break
					}
					if val := bins[m]; val != 0 {
						y[d] += val
					}
				}
			}
		}
	}
	bar.Wait()
}

// SpMV computes y = A^T·x where A is the graph's adjacency matrix with unit
// weights: y[v] = Σ_{u→v} x[u]. This is the kernel the paper identifies as
// the generalisation of PageRank ("the computation of PageRank can be
// interpreted as iterative sparse matrix-vector multiplications", §1).
func SpMV(g *graph.Graph, x []float32, cfg Config) ([]float32, error) {
	if len(x) != g.NumVertices() {
		return nil, fmt.Errorf("algorithms: x has %d entries for %d vertices", len(x), g.NumVertices())
	}
	p, err := prepare(g, cfg)
	if err != nil {
		return nil, err
	}
	y := make([]float32, len(x))
	bins := make([]float32, p.lay.NumMessages())
	bar := common.NewBarrier(p.cfg.Threads)
	common.RunThreads(p.cfg.Threads, func(tid int) {
		p.propagate(x, y, bins, bar, tid)
	})
	return y, nil
}

// SpMVIterate applies y ← A^T·y k times (power iteration without
// normalisation), returning the final vector. Useful for k-hop counts.
func SpMVIterate(g *graph.Graph, x []float32, k int, cfg Config) ([]float32, error) {
	if k < 0 {
		return nil, fmt.Errorf("algorithms: negative iteration count %d", k)
	}
	cur := append([]float32(nil), x...)
	for i := 0; i < k; i++ {
		next, err := SpMV(g, cur, cfg)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

// DeltaOptions configures PageRankDelta.
type DeltaOptions struct {
	Config
	// Damping factor (0 = 0.85).
	Damping float64
	// Epsilon is the minimum |delta| for a vertex to propagate; 0 makes
	// the computation exactly equal to standard PageRank.
	Epsilon float64
	// MaxIterations bounds the run (0 = 20).
	MaxIterations int
}

// DeltaResult reports the outcome of PageRankDelta.
type DeltaResult struct {
	Ranks      []float32
	Iterations int
	// ActiveHistory records the number of delta-propagating vertices per
	// iteration; with Epsilon > 0 it shrinks as the computation converges.
	ActiveHistory []int
}

// PageRankDelta computes PageRank incrementally: each iteration propagates
// only the rank *changes* (deltas) of vertices whose delta exceeds Epsilon,
// the standard delta-optimisation the paper lists as future work (§6). With
// Epsilon = 0 the result equals standard PageRank after the same number of
// iterations.
//
// This is the reference (serial recurrence) form; the registered engine
// form — partitioned, pinned, warm-startable from a versioned-graph delta —
// lives in internal/engines/delta and keeps the same recurrence.
func PageRankDelta(g *graph.Graph, o DeltaOptions) (*DeltaResult, error) {
	p, err := prepare(g, o.Config)
	if err != nil {
		return nil, err
	}
	if o.Damping == 0 {
		o.Damping = common.DefaultDamping
	}
	if o.Damping <= 0 || o.Damping >= 1 {
		return nil, fmt.Errorf("algorithms: damping %g out of (0,1)", o.Damping)
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = common.DefaultIterations
	}
	if o.Epsilon < 0 {
		return nil, fmt.Errorf("algorithms: negative epsilon")
	}

	n := g.NumVertices()
	d := float32(o.Damping)
	inv := common.InvOutDegrees(g)

	// rank starts at the PageRank iteration's fixed offset; delta carries
	// the mass movement. Iteration i of standard PR corresponds to:
	//   rank_i(v) = rank_{i-1}(v) + delta_i(v)
	// with delta_0 = 1/n (the initial mass), and
	//   delta_{i+1}(v) = d·( Σ_{u→v} delta_i(u)/outdeg(u) + S_i/n )
	//                  + [i == 0]·((1-d)/n - 1/n + ...)
	// We implement the equivalent accumulation form: rank = Σ contributions.
	rank := make([]float32, n)
	delta := make([]float32, n)
	send := make([]float32, n) // delta_i(u)/outdeg(u), gated by epsilon
	acc := make([]float32, n)
	base := float32((1 - o.Damping) / float64(n))
	init := float32(1.0 / float64(n))
	for v := range rank {
		rank[v] = init
		delta[v] = init
	}

	res := &DeltaResult{}
	bins := make([]float32, p.lay.NumMessages())
	bar := common.NewBarrier(p.cfg.Threads)
	eps := float32(o.Epsilon)

	for it := 0; it < o.MaxIterations; it++ {
		active := 0
		var danglingDelta float64
		for v := 0; v < n; v++ {
			dv := delta[v]
			ad := dv
			if ad < 0 {
				ad = -ad
			}
			if inv[v] == 0 {
				danglingDelta += float64(dv)
				send[v] = 0
				continue
			}
			if ad > eps {
				send[v] = dv * inv[v]
				active++
			} else {
				send[v] = 0
			}
		}
		res.ActiveHistory = append(res.ActiveHistory, active)
		if active == 0 && danglingDelta == 0 {
			break
		}
		common.RunThreads(p.cfg.Threads, func(tid int) {
			p.propagate(send, acc, bins, bar, tid)
		})
		redis := float32(d * float32(danglingDelta/float64(n)))
		for v := 0; v < n; v++ {
			nd := float32(d*acc[v]) + redis
			if it == 0 {
				// First iteration: the rank formula replaces the uniform
				// initial mass with base + propagated mass.
				nd += base - init
			}
			delta[v] = nd
			rank[v] += nd
			acc[v] = 0
		}
		res.Iterations++
	}
	res.Ranks = rank
	return res, nil
}

// BFSResult reports a breadth-first search.
type BFSResult struct {
	// Levels[v] is the BFS depth of v, or -1 if unreachable.
	Levels []int32
	// Parents[v] is the BFS tree parent, or the vertex itself for the
	// source, or undefined for unreachable vertices.
	Parents []graph.VertexID
	// Visited is the number of reached vertices.
	Visited int
}

// BFS runs a level-synchronous parallel breadth-first search from source
// (the paper's §6 extension): each level's frontier is split evenly over
// the threads, so no partition hierarchy is built. Parent updates use
// compare-and-swap; the resulting levels are deterministic (parents may
// vary between runs within a level).
func BFS(g *graph.Graph, source graph.VertexID, cfg Config) (*BFSResult, error) {
	n := g.NumVertices()
	if n == 0 {
		return nil, fmt.Errorf("algorithms: empty graph")
	}
	if int(source) >= n {
		return nil, fmt.Errorf("algorithms: source %d out of range [0,%d)", source, n)
	}
	threads := cfg.withDefaults(n).Threads
	levels := make([]int32, n)
	for i := range levels {
		levels[i] = -1
	}
	parents := make([]int32, n)
	for i := range parents {
		parents[i] = -1
	}
	levels[source] = 0
	parents[source] = int32(source)

	frontier := []graph.VertexID{source}
	visited := 1
	off := g.OutOffsets()
	adj := g.OutEdges()
	var nextCount atomic.Int64
	for depth := int32(1); len(frontier) > 0; depth++ {
		// Split the frontier across threads; collect next frontier
		// per-thread then concatenate (deterministic levels, parent CAS).
		parts := make([][]graph.VertexID, threads)
		nextCount.Store(0)
		common.RunThreads(threads, func(tid int) {
			lo := len(frontier) * tid / threads
			hi := len(frontier) * (tid + 1) / threads
			var next []graph.VertexID
			for _, u := range frontier[lo:hi] {
				for _, v := range adj[off[u]:off[u+1]] {
					if atomic.LoadInt32(&parents[v]) != -1 {
						continue
					}
					if atomic.CompareAndSwapInt32(&parents[v], -1, int32(u)) {
						levels[v] = depth
						next = append(next, v)
					}
				}
			}
			parts[tid] = next
			nextCount.Add(int64(len(next)))
		})
		frontier = frontier[:0]
		for _, part := range parts {
			frontier = append(frontier, part...)
		}
		visited += len(frontier)
	}

	out := &BFSResult{
		Levels:  levels,
		Parents: make([]graph.VertexID, n),
		Visited: visited,
	}
	for i, pr := range parents {
		if pr >= 0 {
			out.Parents[i] = graph.VertexID(pr)
		}
	}
	return out, nil
}
