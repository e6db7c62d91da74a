package algorithms

import (
	"fmt"

	"hipa/internal/engines/common"
	"hipa/internal/graph"
)

// WeightedSpMV computes y[v] = Σ_{(u,v)∈E} w(u,v)·x[u] for an edge-weight
// function given as a weight per edge in CSR order (weights[i] belongs to
// the i-th entry of g's out-edge array).
//
// Weights break the inter-edge compression of §3.4 — two edges from the same
// source to the same partition no longer carry the same value — so this
// kernel builds no partitioning: one superstep pulls each vertex's weighted
// in-edges, one serial sum in in-edge order per vertex, so the output does
// not depend on the thread count.
func WeightedSpMV(g *graph.Graph, x []float32, weights []float32, cfg Config) ([]float32, error) {
	n := g.NumVertices()
	if len(x) != n {
		return nil, fmt.Errorf("algorithms: x has %d entries for %d vertices", len(x), n)
	}
	if int64(len(weights)) != g.NumEdges() {
		return nil, fmt.Errorf("algorithms: %d weights for %d edges", len(weights), g.NumEdges())
	}
	if n == 0 {
		return nil, fmt.Errorf("algorithms: empty graph")
	}
	y := make([]float32, n)
	off := g.OutOffsets()
	adj := g.OutEdges()

	// Weighted updates cannot share compressed messages, so each thread
	// pulls the in-edges of its own vertex range instead: writes stay
	// owner-exclusive, reads stream the weighted edges. The ranges carry
	// about equal in-edge counts.
	g.BuildIn()
	inOff := g.InOffsets()
	inAdj := g.InEdges()
	// Map each in-edge position back to its CSR slot (the weight index) by
	// replaying the exact scan order the CSC construction used: in-lists
	// were filled by iterating sources in order, so the i-th CSR slot
	// targeting v is the i-th entry of v's in-list. Exact for multi-edges.
	widx := make([]int64, g.NumEdges())
	cursor := make([]int64, n)
	for u := 0; u < n; u++ {
		for i := off[u]; i < off[u+1]; i++ {
			d := adj[i]
			widx[inOff[d]+cursor[d]] = i
			cursor[d]++
		}
	}

	threads := cfg.withDefaults(n).Threads
	bounds := common.SplitByWeight(inOff, threads)
	pull := func(tid int) {
		for v := bounds[tid]; v < bounds[tid+1]; v++ {
			var acc float32
			for ii := inOff[v]; ii < inOff[v+1]; ii++ {
				acc += float32(weights[widx[ii]] * x[inAdj[ii]])
			}
			y[v] = acc
		}
	}
	common.RunSupersteps(superstep(threads, 1), common.PhaseKernels{Scatter: pull})
	return y, nil
}
