package hipa

import (
	"fmt"
	"runtime"

	"hipa/internal/algorithms"
	"hipa/internal/engines/bppr"
	"hipa/internal/machine"
	"hipa/internal/obs"
	"hipa/internal/platform"
)

// AlgoConfig configures the parallel substrate for the extension algorithms
// (SpMV, weighted SpMV, PageRank-Delta, personalized PageRank, BFS) — the
// paper's §6 future work. SpMV and the two PageRanks run on HiPa's
// hierarchical partitioning, which PartitionBytes and NumNodes shape;
// weighted SpMV and BFS build none: they split the vertices or the
// frontier over the threads. No output depends on Threads.
type AlgoConfig = algorithms.Config

// SpMV computes y[v] = Σ_{u→v} x[u] (adjacency-matrix transpose product)
// with HiPa's intra and inter pulls.
func SpMV(g *Graph, x []float32, cfg AlgoConfig) ([]float32, error) {
	return algorithms.SpMV(g, x, cfg)
}

// SpMVIterate applies SpMV k times over one partitioning.
func SpMVIterate(g *Graph, x []float32, k int, cfg AlgoConfig) ([]float32, error) {
	return algorithms.SpMVIterate(g, x, k, cfg)
}

// DeltaOptions configures PageRankDelta.
type DeltaOptions struct {
	algorithms.Config
	// Damping factor (0 = 0.85).
	Damping float64
	// Tolerance is Delta-PR's (Options.Tolerance): the run stops once an
	// iteration's L∞ rank change falls below it, and a vertex propagates
	// its change only while the change exceeds Tolerance/16. 0 selects
	// 1e-7.
	Tolerance float64
	// MaxIterations bounds the run (0 = 20).
	MaxIterations int
}

// DeltaResult reports a PageRankDelta run.
type DeltaResult struct {
	Ranks      []float32
	Iterations int
	// ActiveHistory records each iteration's active-set size
	// (IterationStats.ActiveVertices): the vertices whose change the
	// iteration propagates, every vertex in the first. It shrinks as the
	// computation converges.
	ActiveHistory []int
}

// PageRankDelta computes PageRank incrementally, propagating only rank
// changes above a gate derived from Tolerance: a cold run of the Delta-PR
// engine on the native platform.
func PageRankDelta(g *Graph, o DeltaOptions) (*DeltaResult, error) {
	eo, err := engineOptions(o.Config)
	if err != nil {
		return nil, err
	}
	eo.Damping = o.Damping
	eo.Tolerance = o.Tolerance
	eo.Iterations = o.MaxIterations
	eo.Obs = &obs.Recorder{}
	res, err := Delta.Run(g, eo)
	if err != nil {
		return nil, err
	}
	active := make([]int, len(res.Iters))
	for i, st := range res.Iters {
		active[i] = int(st.ActiveVertices)
	}
	return &DeltaResult{Ranks: res.Ranks, Iterations: res.Iterations, ActiveHistory: active}, nil
}

// BFSResult reports a breadth-first search.
type BFSResult = algorithms.BFSResult

// BFS runs a level-synchronous parallel breadth-first search from source.
func BFS(g *Graph, source VertexID, cfg AlgoConfig) (*BFSResult, error) {
	return algorithms.BFS(g, source, cfg)
}

// WeightedSpMV computes y[v] = Σ w(u,v)·x[u] with weights given per edge in
// CSR order. Weighted updates cannot share compressed messages, so this
// kernel builds no partitioning: each thread pulls the weighted in-edges of
// its own vertex range.
func WeightedSpMV(g *Graph, x, weights []float32, cfg AlgoConfig) ([]float32, error) {
	return algorithms.WeightedSpMV(g, x, weights, cfg)
}

// PersonalizedPageRank computes PageRank with restarts, and dangling mass,
// sent uniformly to the given source vertices, which must be in range and
// distinct. It runs one B-PPR query on the native platform, so iterations
// is a cap: the run stops earlier once an iteration's L∞ rank change falls
// below B-PPR's default tolerance of 1e-7.
func PersonalizedPageRank(g *Graph, sources []VertexID, iterations int, damping float64, cfg AlgoConfig) ([]float32, error) {
	// An empty seed set is B-PPR's global PageRank, and Options reads a
	// zero iteration count or damping as its default; here all three are
	// caller errors.
	switch {
	case len(sources) == 0:
		return nil, fmt.Errorf("hipa: personalized PageRank needs at least one source")
	case iterations < 1:
		return nil, fmt.Errorf("hipa: personalized PageRank needs at least one iteration, got %d", iterations)
	case damping <= 0 || damping >= 1:
		return nil, fmt.Errorf("hipa: damping %g out of (0,1)", damping)
	}
	o, err := engineOptions(cfg)
	if err != nil {
		return nil, err
	}
	o.Iterations = iterations
	o.Damping = damping
	prep, err := bppr.Engine{}.Prepare(g, o)
	if err != nil {
		return nil, err
	}
	br, err := bppr.ExecBatch(prep, o, []bppr.Query{{Seeds: sources}})
	if err != nil {
		return nil, err
	}
	return br.Ranks[0], nil
}

// engineOptions maps an AlgoConfig onto the Options of a registered
// engine: the native platform on the Skylake testbed with NumNodes nodes
// (0 = 2), Threads (0 = GOMAXPROCS, at most the machine's logical cores)
// and PartitionBytes (0 = 256KB).
func engineOptions(cfg AlgoConfig) (Options, error) {
	nodes := cfg.NumNodes
	if nodes < 0 {
		return Options{}, fmt.Errorf("hipa: negative NUMA node count %d", nodes)
	}
	if nodes == 0 {
		nodes = 2
	}
	m := machine.WithNodes(machine.SkylakeSilver4210(), nodes)
	threads := cfg.Threads
	if threads == 0 {
		threads = min(runtime.GOMAXPROCS(0), m.LogicalCores())
	}
	pb := cfg.PartitionBytes
	if pb == 0 {
		pb = 256 << 10
	}
	return Options{Platform: platform.NewNative(m), Threads: threads, PartitionBytes: pb}, nil
}
