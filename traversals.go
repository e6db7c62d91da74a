package hipa

import "hipa/internal/algorithms"

// FrameworkConfig configures the frontier traversals WCC, Hops and
// Reachable (the paper's §6 "more generic use scenarios"): Threads
// (0 = GOMAXPROCS) and a round cap, MaxIterations. A zero MaxIterations
// runs until the frontier is empty, which all three reach within n+1
// rounds. No output depends on Threads.
type FrameworkConfig = algorithms.TraversalConfig

// WCCResult holds weakly-connected-component labels, or Reachable's flags.
type WCCResult = algorithms.TraversalResult[uint32]

// WCC computes weakly connected components by synchronous min-label
// propagation over BFS's edge map (labels are each component's smallest
// vertex ID).
func WCC(g *Graph, cfg FrameworkConfig) (*WCCResult, error) {
	return algorithms.WCC(g, cfg)
}

// HopsResult holds single-source hop distances.
type HopsResult = algorithms.TraversalResult[int32]

// UnreachableHops is the distance label of unreached vertices.
const UnreachableHops = algorithms.Unreachable

// Hops computes shortest hop distances from source along out-edges
// (unweighted SSSP): BFS's levels.
func Hops(g *Graph, source VertexID, cfg FrameworkConfig) (*HopsResult, error) {
	return algorithms.Hops(g, source, cfg)
}

// Reachable computes forward reachability flags (0/1) from source: the
// vertices BFS reaches.
func Reachable(g *Graph, source VertexID, cfg FrameworkConfig) (*WCCResult, error) {
	return algorithms.Reachable(g, source, cfg)
}
