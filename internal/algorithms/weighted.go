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
// kernel runs partition-centric but uncompressed: the partition structure
// still provides cache-resident accumulators and NUMA-local streaming, which
// is the part of HiPa that generalises (§1: "Our discussions and
// optimizations proposed for PageRank can also be applied to SpMV").
func WeightedSpMV(g *graph.Graph, x []float32, weights []float32, cfg Config) ([]float32, error) {
	n := g.NumVertices()
	if len(x) != n {
		return nil, fmt.Errorf("algorithms: x has %d entries for %d vertices", len(x), n)
	}
	if int64(len(weights)) != g.NumEdges() {
		return nil, fmt.Errorf("algorithms: %d weights for %d edges", len(weights), g.NumEdges())
	}
	p, err := prepare(g, cfg)
	if err != nil {
		return nil, err
	}
	y := make([]float32, n)
	off := g.OutOffsets()
	adj := g.OutEdges()

	// Weighted updates cannot share compressed messages, so each thread
	// pulls the in-edges targeting its own partitions instead — writes stay
	// owner-exclusive and cache-resident, reads stream the weighted edges.
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

	bar := common.NewBarrier(p.cfg.Threads)
	common.RunThreads(p.cfg.Threads, func(tid int) {
		gr := p.hier.Groups[tid]
		for pi := gr.PartStart; pi < gr.PartEnd; pi++ {
			part := p.hier.Partitions[pi]
			for v := int(part.VertexStart); v < int(part.VertexEnd); v++ {
				var acc float32
				for ii := inOff[v]; ii < inOff[v+1]; ii++ {
					acc += float32(weights[widx[ii]] * x[inAdj[ii]])
				}
				y[v] = acc
			}
		}
		bar.Wait()
	})
	return y, nil
}
