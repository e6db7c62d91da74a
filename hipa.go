// Package hipa is a Go reproduction of "HiPa: Hierarchical Partitioning for
// Fast PageRank on NUMA Multicore Systems" (Chen & Chung, ICPP 2021).
//
// The package provides:
//
//   - graph construction, generation, and IO (Graph, NewGraphBuilder,
//     Generate, LoadGraph...);
//   - five PageRank engines — the paper's contribution HiPa plus its four
//     baselines (p-PR, v-PR, GPOP-like, Polymer-like) — all runnable through
//     the Engine interface;
//   - simulated NUMA machines (Skylake and Haswell presets) substituting
//     for the paper's testbeds, since Go has no NUMA placement or thread
//     pinning: engines execute in real parallel goroutines while a
//     deterministic machine model prices their memory behaviour;
//   - the full reproduction harness for every table and figure of the
//     paper's evaluation (Repro* functions);
//   - the future-work algorithms on the HiPa substrate (SpMV, PageRank-
//     Delta, personalized PageRank, BFS); PageRankDelta and
//     PersonalizedPageRank run the Delta-PR and B-PPR engines.
//
// Quickstart:
//
//	g, _ := hipa.Generate("journal", 256)
//	res, _ := hipa.HiPa.Run(g, hipa.Options{})
//	fmt.Println(res.Model.EstimatedSeconds, res.Model.RemoteFraction)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package hipa

import (
	"io"

	"hipa/internal/gen"
	"hipa/internal/graph"
	"hipa/internal/machine"
)

// Graph is an immutable directed graph in CSR form. See the methods on
// graph.Graph: NumVertices, NumEdges, OutNeighbors, BuildIn, ...
type Graph = graph.Graph

// Edge is a directed edge.
type Edge = graph.Edge

// VertexID identifies a vertex (dense 0..n-1).
type VertexID = graph.VertexID

// GraphBuilder accumulates edges and produces an immutable Graph.
type GraphBuilder = graph.Builder

// NewGraphBuilder returns a builder for a graph with n vertices.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// LoadGraph reads a graph from a binary (HGR1) file.
func LoadGraph(path string) (*Graph, error) { return graph.LoadBinary(path) }

// SaveGraph writes a graph to a binary (HGR1) file.
func SaveGraph(path string, g *Graph) error { return graph.SaveBinary(path, g) }

// ReadEdgeList parses a "src dst" text edge list.
func ReadEdgeList(r io.Reader, numVertices int) (*Graph, error) {
	return graph.ReadEdgeList(r, numVertices)
}

// Generate produces the synthetic analog of one of the paper's six
// evaluation datasets ("journal", "pld", "wiki", "kron", "twitter", "mpi"),
// scaled down by divisor (>= 1) with density and degree skew preserved.
func Generate(dataset string, divisor int) (*Graph, error) {
	return gen.GenerateByName(dataset, divisor)
}

// Datasets lists the catalog dataset names in the paper's order.
func Datasets() []string { return gen.Names() }

// RMAT generates a Graph500-style Kronecker graph with 2^scale vertices and
// edgeFactor edges per vertex.
func RMAT(scale, edgeFactor int, seed uint64) (*Graph, error) {
	cfg := gen.DefaultRMAT(scale, seed)
	cfg.EdgeFactor = edgeFactor
	return gen.RMAT(cfg)
}

// PowerLaw generates a directed power-law graph with the given vertex and
// edge counts; outAlpha (>1) controls out-degree skew, inAlpha (>=0) the
// destination popularity skew.
func PowerLaw(vertices int, edges int64, outAlpha, inAlpha float64, seed uint64) (*Graph, error) {
	return gen.PowerLaw(gen.PowerLawConfig{
		Vertices: vertices, Edges: edges,
		OutAlpha: outAlpha, InAlpha: inAlpha,
		Seed: seed, HotShuffle: true,
	})
}

// Uniform generates a uniform random multigraph with n vertices and m edges.
func Uniform(n int, m int64, seed uint64) (*Graph, error) { return gen.Uniform(n, m, seed) }

// Machine describes a simulated NUMA multicore system.
type Machine = machine.Machine

// Skylake returns the paper's primary testbed: 2x Xeon Silver 4210
// (2 NUMA nodes x 10 cores x 2 HT, 1MB L2, 13.75MB non-inclusive LLC).
func Skylake() *Machine { return machine.SkylakeSilver4210() }

// Haswell returns the paper's second testbed: 2x Xeon E5-2667
// (256KB L2, 20MB inclusive LLC).
func Haswell() *Machine { return machine.HaswellE52667() }

// ScaledMachine divides a machine's capacity parameters by div, preserving
// cache-to-working-set ratios for scaled-down datasets.
func ScaledMachine(m *Machine, div int) *Machine { return machine.Scaled(m, div) }

// SingleNodeMachine restricts a machine to one NUMA node (§4.5 experiment).
func SingleNodeMachine(m *Machine) *Machine { return machine.SingleNode(m) }
