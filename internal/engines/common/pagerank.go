package common

import (
	"hipa/internal/graph"
	"hipa/internal/par"
)

// InitRanks returns the uniform initial rank vector 1/|V|.
func InitRanks(n int) []float32 {
	r := make([]float32, n)
	FillInitRanks(r)
	return r
}

// FillInitRanks writes the uniform 1/n starting distribution into r,
// allocation-free for arena-backed buffers.
func FillInitRanks(r []float32) {
	if len(r) == 0 {
		return
	}
	v := float32(1.0 / float64(len(r)))
	for i := range r {
		r[i] = v
	}
}

// InvOutDegrees returns 1/outdeg(v) as float32, with 0 for dangling
// vertices; engines multiply instead of dividing on the hot path.
func InvOutDegrees(g *graph.Graph) []float32 {
	return InvOutDegreesWorkers(g, -1)
}

// InvOutDegreesWorkers is InvOutDegrees with an explicit worker count
// (positive = that many workers, 0 = all cores, negative = serial). Each
// entry depends only on its own vertex, so the output is identical at any
// setting.
func InvOutDegreesWorkers(g *graph.Graph, workers int) []float32 {
	n := g.NumVertices()
	inv := make([]float32, n)
	par.Blocks(par.Fit(par.Workers(workers), int64(n)), n, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			if d := g.OutDegree(graph.VertexID(v)); d > 0 {
				inv[v] = float32(1.0 / float64(d))
			}
		}
	})
	return inv
}

// DanglingSum returns the summed rank of vertices in [lo,hi) with zero
// out-degree; used for per-thread partial reductions.
func DanglingSum(ranks []float32, inv []float32, lo, hi int) float64 {
	var s float64
	for v := lo; v < hi; v++ {
		if inv[v] == 0 {
			s += float64(ranks[v])
		}
	}
	return s
}

// ReferencePageRank is a sequential float64 implementation used as the
// ground truth for all engines. It follows the identical formulation:
// rank'(v) = (1-d)/n + d(Σ_{u→v} rank(u)/outdeg(u) + S/n).
func ReferencePageRank(g *graph.Graph, iterations int, damping float64) []float64 {
	n := g.NumVertices()
	rank := make([]float64, n)
	next := make([]float64, n)
	if n == 0 {
		return rank
	}
	for v := range rank {
		rank[v] = 1.0 / float64(n)
	}
	base := (1 - damping) / float64(n)
	for it := 0; it < iterations; it++ {
		var dangling float64
		for v := 0; v < n; v++ {
			next[v] = 0
			if g.OutDegree(graph.VertexID(v)) == 0 {
				dangling += rank[v]
			}
		}
		for v := 0; v < n; v++ {
			if d := g.OutDegree(graph.VertexID(v)); d > 0 {
				contrib := rank[v] / float64(d)
				for _, dst := range g.OutNeighbors(graph.VertexID(v)) {
					next[dst] += contrib
				}
			}
		}
		redis := dangling / float64(n)
		for v := 0; v < n; v++ {
			next[v] = base + float64(damping*(next[v]+redis))
		}
		rank, next = next, rank
	}
	return rank
}

// SplitByWeight cuts [0,n) into `parts` contiguous ranges with approximately
// equal total weight, where weight(i) is given by the prefix-sum array
// prefix (len n+1, prefix[0]=0). Returns part boundaries of length parts+1.
// Used for edge-balanced vertex chunking in the vertex-centric engines.
func SplitByWeight(prefix []int64, parts int) []int {
	n := len(prefix) - 1
	bounds := make([]int, parts+1)
	bounds[parts] = n
	total := prefix[n]
	for p := 1; p < parts; p++ {
		target := total * int64(p) / int64(parts)
		lo, hi := bounds[p-1], n
		for lo < hi {
			mid := (lo + hi) / 2
			if prefix[mid] < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		// lo is the first boundary at or past the target; stepping back one
		// may be closer (a single heavy item should not be pulled into the
		// earlier part when that overshoots more than undershooting).
		if lo > bounds[p-1] && prefix[lo]-target > target-prefix[lo-1] {
			lo--
		}
		bounds[p] = lo
	}
	return bounds
}
