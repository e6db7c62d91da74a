// Package algorithms implements the paper's future-work extensions (§6) on
// top of the HiPa substrate: sparse matrix-vector multiplication (SpMV,
// plain and weighted), breadth-first search, and the blocked
// scatter-gather kernel (BlockSG) that the B-PPR engine runs. SpMV reuses
// the hierarchical partitioning (internal/partition), the compressed
// partition-centric layout (internal/layout) and HiPa's pull kernels with
// one worker per partition group, as the HiPa PageRank engine does.
// PageRank-Delta and personalized PageRank are the Delta-PR and B-PPR
// engines, which the root package's PageRankDelta and PersonalizedPageRank
// run.
package algorithms

import (
	"fmt"
	"math"
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
	return &prepared{hier: hier, lay: lay, cfg: cfg}, nil
}

// SpMV computes y = A^T·x where A is the graph's adjacency matrix with unit
// weights: y[v] = Σ_{u→v} x[u]. This is the kernel the paper identifies as
// the generalisation of PageRank ("the computation of PageRank can be
// interpreted as iterative sparse matrix-vector multiplications", §1).
func SpMV(g *graph.Graph, x []float32, cfg Config) ([]float32, error) {
	return SpMVIterate(g, x, 1, cfg)
}

// SpMVIterate applies y ← A^T·y k times (power iteration without
// normalisation), returning the final vector. Useful for k-hop counts.
//
// Each application runs HiPa's two pulls over one partitioning: the intra
// pull stores in y[v] the sum of x over v's intra in-neighbours, each
// partition writes its compressed messages, and after a barrier the inter
// pull adds each vertex's messages in ascending index. Every y[v] is the
// same float32 sum, in the same order, as a push over the partitions
// (layout's package doc), at any thread count.
func SpMVIterate(g *graph.Graph, x []float32, k int, cfg Config) ([]float32, error) {
	n := g.NumVertices()
	if k < 0 {
		return nil, fmt.Errorf("algorithms: negative iteration count %d", k)
	}
	if len(x) != n {
		return nil, fmt.Errorf("algorithms: x has %d entries for %d vertices", len(x), n)
	}
	p, err := prepare(g, cfg)
	if err != nil {
		return nil, err
	}
	lay := p.lay
	// Iteration i reads vecs[i%2] and writes vecs[(i+1)%2]. Slot n of both
	// vectors, and slot M of the bins, is the +0 the pulls' padding
	// entries read.
	vecs := [2][]float32{make([]float32, n+1), make([]float32, n+1)}
	copy(vecs[0], x)
	bins := make([]float32, lay.NumMessages()+1)
	bar := common.NewBarrier(p.cfg.Threads)
	common.RunThreads(p.cfg.Threads, func(tid int) {
		gr := p.hier.Groups[tid]
		for i := range k {
			x, y := vecs[i%2], vecs[(i+1)%2][:n]
			for pi := gr.PartStart; pi < gr.PartEnd; pi++ {
				common.PullSELL(&lay.IntraPull, x, y, int(lay.IntraPull.Part[pi]), int(lay.IntraPull.Part[pi+1]))
				for bi := lay.SrcBlockStart[pi]; bi < lay.SrcBlockEnd[pi]; bi++ {
					b := lay.Blocks[bi]
					for m := b.MsgStart; m < b.MsgEnd; m++ {
						bins[m] = x[lay.MsgSrc[m]]
					}
				}
			}
			bar.Wait()
			for pi := gr.PartStart; pi < gr.PartEnd; pi++ {
				clo, chi := lay.InterPull.Chunks(pi)
				common.AddSELL(&lay.InterPull, bins, y, clo, chi)
			}
			bar.Wait()
		}
	})
	return vecs[k%2][:n], nil
}

// BFSResult reports a breadth-first search.
type BFSResult struct {
	// Levels[v] is the BFS depth of v, or -1 if unreachable.
	Levels []int32
	// Parents[v] is the smallest ID among v's in-neighbours one level
	// shallower, the source itself for the source, and 0 for unreachable
	// vertices.
	Parents []graph.VertexID
	// Visited is the number of reached vertices.
	Visited int
}

// unvisited is the search state of a vertex no frontier edge has reached.
const unvisited = math.MaxUint64

// BFS runs a level-synchronous parallel breadth-first search from source
// (the paper's §6 extension): each level's frontier is split evenly over
// the threads, so no partition hierarchy is built. A vertex's search state
// is one word, its level above its parent; every frontier edge u→v offers
// depth<<32 | u to v as an atomic minimum. Earlier levels are smaller
// words and unvisited is the largest, so the minimum claims an unvisited
// vertex and keeps, at its level, the smallest parent: levels and parents
// are a function of the graph alone.
func BFS(g *graph.Graph, source graph.VertexID, cfg Config) (*BFSResult, error) {
	n := g.NumVertices()
	if n == 0 {
		return nil, fmt.Errorf("algorithms: empty graph")
	}
	if int(source) >= n {
		return nil, fmt.Errorf("algorithms: source %d out of range [0,%d)", source, n)
	}
	threads := cfg.withDefaults(n).Threads
	state := make([]uint64, n)
	for i := range state {
		state[i] = unvisited
	}
	state[source] = uint64(source)

	frontier := []graph.VertexID{source}
	visited := 1
	off := g.OutOffsets()
	adj := g.OutEdges()
	// Each thread collects its share of the next frontier in its own part,
	// reused from level to level; the parts are then concatenated.
	parts := make([][]graph.VertexID, threads)
	for depth := uint64(1); len(frontier) > 0; depth++ {
		common.RunThreads(threads, func(tid int) {
			lo := len(frontier) * tid / threads
			hi := len(frontier) * (tid + 1) / threads
			next := parts[tid][:0]
			for _, u := range frontier[lo:hi] {
				offer := depth<<32 | uint64(u)
				for _, v := range adj[off[u]:off[u+1]] {
					if offerMin(&state[v], offer) {
						next = append(next, v)
					}
				}
			}
			parts[tid] = next
		})
		frontier = frontier[:0]
		for _, part := range parts {
			frontier = append(frontier, part...)
		}
		visited += len(frontier)
	}
	out := &BFSResult{Levels: make([]int32, n), Parents: make([]graph.VertexID, n), Visited: visited}
	for v, s := range state {
		if s == unvisited {
			out.Levels[v] = -1
			continue
		}
		out.Levels[v], out.Parents[v] = int32(s>>32), graph.VertexID(s)
	}
	return out, nil
}

// offerMin lowers *p to offer when offer is smaller, and reports whether
// it replaced unvisited.
func offerMin(p *uint64, offer uint64) bool {
	for s := atomic.LoadUint64(p); offer < s; s = atomic.LoadUint64(p) {
		if atomic.CompareAndSwapUint64(p, s, offer) {
			return s == unvisited
		}
	}
	return false
}
