package hipa

import "hipa/internal/framework"

// FrameworkConfig configures the generic partition-centric framework (the
// paper's §6 "more generic use scenarios"): vertex programs in
// gather-apply-scatter form running on the HiPa substrate with convergence
// by deactivation. A zero MaxIterations runs until no vertex is active,
// which WCC, Hops and Reachable reach within n+1 iterations.
type FrameworkConfig = framework.Config

// WCCResult holds weakly-connected-component labels.
type WCCResult = framework.Result[uint32]

// WCC computes weakly connected components (labels are each component's
// smallest vertex ID).
func WCC(g *Graph, cfg FrameworkConfig) (*WCCResult, error) {
	return framework.WCC(g, cfg)
}

// HopsResult holds single-source hop distances.
type HopsResult = framework.Result[int32]

// UnreachableHops is the distance label of unreached vertices.
const UnreachableHops = framework.Unreachable

// Hops computes shortest hop distances from source along out-edges
// (unweighted SSSP) via min-plus label correction.
func Hops(g *Graph, source VertexID, cfg FrameworkConfig) (*HopsResult, error) {
	return framework.Hops(g, source, cfg)
}

// Reachable computes forward reachability flags (0/1) from source.
func Reachable(g *Graph, source VertexID, cfg FrameworkConfig) (*WCCResult, error) {
	return framework.Reachable(g, source, cfg)
}
