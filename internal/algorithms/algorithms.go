// Package algorithms implements the paper's future-work extensions (§6):
// sparse matrix-vector multiplication (SpMV, plain and weighted), the
// frontier traversals (BFS, and the Hops, Reachable and WCC built on its
// edge map), and the blocked scatter-gather kernel (BlockSG) that the
// B-PPR engine runs. All of them run on the superstep driver
// (common.SuperstepLoop). SpMV reuses the hierarchical partitioning
// (internal/partition), the compressed partition-centric layout
// (internal/layout) and HiPa's pull kernels with one worker per partition
// group, as the HiPa PageRank engine does; the traversals and the weighted
// SpMV split the vertices or the frontier over the threads directly.
// PageRank-Delta and personalized PageRank are the Delta-PR and B-PPR
// engines, which the root package's PageRankDelta and PersonalizedPageRank
// run.
package algorithms

import (
	"fmt"
	"runtime"

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
// Each application is one superstep of HiPa's two pulls over one
// partitioning: in the scatter phase the intra pull stores in y[v] the sum
// of x over v's intra in-neighbours and each partition writes its
// compressed messages, and in the gather phase the inter pull adds each
// vertex's messages in ascending index. Every y[v] is the
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
	s := &spmv{lay: lay, groups: p.hier.Groups, n: n, bins: make([]float32, lay.NumMessages()+1)}
	// Slot n of both vectors, and slot M of the bins, is the +0 the pulls'
	// padding entries read.
	s.vecs = [2][]float32{make([]float32, n+1), make([]float32, n+1)}
	copy(s.vecs[0], x)
	common.RunSupersteps(superstep(p.cfg.Threads, k), common.PhaseKernels{StartIteration: s.flip, Scatter: s.scatter, Gather: s.gather})
	return s.vecs[k%2][:n], nil
}

// spmv is SpMVIterate's superstep state: thread tid pulls and scatters
// the partitions of group tid.
type spmv struct {
	lay    *layout.Layout
	groups []partition.Group
	n      int
	vecs   [2][]float32
	x, y   []float32
	bins   []float32
}

// flip starts iteration it: it reads vecs[it%2] and writes vecs[(it+1)%2].
func (s *spmv) flip(it int) { s.x, s.y = s.vecs[it%2], s.vecs[(it+1)%2][:s.n] }

// scatter stores each vertex's intra sum in y and writes the group's
// compressed messages.
func (s *spmv) scatter(tid int) {
	lay, gr := s.lay, s.groups[tid]
	for pi := gr.PartStart; pi < gr.PartEnd; pi++ {
		common.PullSELL(&lay.IntraPull, s.x, s.y, int(lay.IntraPull.Part[pi]), int(lay.IntraPull.Part[pi+1]))
		for bi := lay.SrcBlockStart[pi]; bi < lay.SrcBlockEnd[pi]; bi++ {
			b := lay.Blocks[bi]
			for m := b.MsgStart; m < b.MsgEnd; m++ {
				s.bins[m] = s.x[lay.MsgSrc[m]]
			}
		}
	}
}

// gather adds the messages to the group's vertices.
func (s *spmv) gather(tid int) {
	gr := s.groups[tid]
	for pi := gr.PartStart; pi < gr.PartEnd; pi++ {
		clo, chi := s.lay.InterPull.Chunks(pi)
		common.AddSELL(&s.lay.InterPull, s.bins, s.y, clo, chi)
	}
}
