// Package layouttest is a reference for tests of the layout's readers.
package layouttest

import (
	"hipa/internal/graph"
	"hipa/internal/partition"
)

// IntraOut lists, for each vertex of g, its out-neighbours inside its own
// partition of h, in out-CSR order, a repeated edge repeated: the paper's
// intra push lists, which the layout stores only as its intra pull.
func IntraOut(g *graph.Graph, h *partition.Hierarchy) [][]graph.VertexID {
	out := make([][]graph.VertexID, g.NumVertices())
	for _, part := range h.Partitions {
		for v := part.VertexStart; v < part.VertexEnd; v++ {
			for _, d := range g.OutNeighbors(v) {
				if d >= part.VertexStart && d < part.VertexEnd {
					out[v] = append(out[v], d)
				}
			}
		}
	}
	return out
}
