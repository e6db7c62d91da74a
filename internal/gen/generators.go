package gen

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"

	"hipa/internal/graph"
)

// chunkRNG derives an independent deterministic PRNG stream for chunk i of a
// generation seeded with seed. PCG streams with distinct increments are
// statistically independent.
func chunkRNG(seed uint64, chunk int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9E3779B97F4A7C15*uint64(chunk+1)))
}

// parallelEdges runs fn(chunk, rng, out) over nChunks chunks concurrently and
// concatenates the per-chunk edge slices in chunk order, keeping the overall
// result deterministic regardless of scheduling.
func parallelEdges(seed uint64, nChunks int, fn func(chunk int, rng *rand.Rand) []graph.Edge) []graph.Edge {
	parts := make([][]graph.Edge, nChunks)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for c := 0; c < nChunks; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			parts[c] = fn(c, chunkRNG(seed, c))
		}(c)
	}
	wg.Wait()
	var total int
	for _, p := range parts {
		total += len(p)
	}
	all := make([]graph.Edge, 0, total)
	for _, p := range parts {
		all = append(all, p...)
	}
	return all
}

func numChunks(m int64) int {
	p := runtime.GOMAXPROCS(0)
	if m < 1<<14 || p <= 1 {
		return 1
	}
	return p * 4
}

// Uniform generates an Erdős–Rényi-style G(n, m) multigraph: m directed
// edges with independently uniform endpoints.
func Uniform(n int, m int64, seed uint64) (*graph.Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gen: Uniform needs n > 0, got %d", n)
	}
	if m < 0 {
		return nil, fmt.Errorf("gen: Uniform needs m >= 0, got %d", m)
	}
	nc := numChunks(m)
	per := m / int64(nc)
	edges := parallelEdges(seed, nc, func(c int, rng *rand.Rand) []graph.Edge {
		cnt := per
		if c == nc-1 {
			cnt = m - per*int64(nc-1)
		}
		out := make([]graph.Edge, cnt)
		for i := range out {
			out[i] = graph.Edge{
				Src: graph.VertexID(rng.IntN(n)),
				Dst: graph.VertexID(rng.IntN(n)),
			}
		}
		return out
	})
	b := graph.NewBuilder(n)
	b.AddEdges(edges)
	return b.Build(), nil
}

// RMATConfig parameterises the recursive-matrix (Kronecker) generator used
// by Graph500. Probabilities must sum to 1.
type RMATConfig struct {
	Scale      int     // number of vertices = 2^Scale
	EdgeFactor int     // edges = EdgeFactor * 2^Scale
	A, B, C, D float64 // quadrant probabilities (Graph500: .57 .19 .19 .05)
	Seed       uint64
	// Noise perturbs the quadrant probabilities per recursion level, as in
	// the Graph500 reference implementation, to avoid exact self-similarity.
	Noise float64
}

// DefaultRMAT returns the Graph500 reference parameters for the given scale.
func DefaultRMAT(scale int, seed uint64) RMATConfig {
	return RMATConfig{
		Scale: scale, EdgeFactor: 16,
		A: 0.57, B: 0.19, C: 0.19, D: 0.05,
		Seed: seed, Noise: 0.05,
	}
}

// RMAT generates a Kronecker/R-MAT graph. It reproduces the skewed power-law
// degree structure of the paper's `kron` dataset (Graph500 generator [4]).
func RMAT(cfg RMATConfig) (*graph.Graph, error) {
	if cfg.Scale < 1 || cfg.Scale > 30 {
		return nil, fmt.Errorf("gen: RMAT scale %d out of range [1,30]", cfg.Scale)
	}
	if cfg.EdgeFactor < 1 {
		return nil, fmt.Errorf("gen: RMAT edge factor %d < 1", cfg.EdgeFactor)
	}
	sum := cfg.A + cfg.B + cfg.C + cfg.D
	if math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("gen: RMAT probabilities sum to %g, want 1", sum)
	}
	n := 1 << cfg.Scale
	m := int64(cfg.EdgeFactor) * int64(n)
	nc := numChunks(m)
	per := m / int64(nc)
	edges := parallelEdges(cfg.Seed, nc, func(c int, rng *rand.Rand) []graph.Edge {
		cnt := per
		if c == nc-1 {
			cnt = m - per*int64(nc-1)
		}
		out := make([]graph.Edge, cnt)
		for i := range out {
			out[i] = rmatEdge(cfg, rng)
		}
		return out
	})
	b := graph.NewBuilder(n)
	b.AddEdges(edges)
	return b.Build(), nil
}

// jitter draws the per-level noise factor 1 + noise·(2u−1). Each product is
// rounded by an explicit conversion, here and where the factor is applied:
// Go may fuse a multiply and an add into one instruction (arm64 does),
// which rounds once and would draw different graphs than amd64.
func jitter(noise float64, rng *rand.Rand) float64 {
	u := float64(rng.Float64())
	return 1 + float64(noise*(float64(2*u)-1))
}

func rmatEdge(cfg RMATConfig, rng *rand.Rand) graph.Edge {
	var src, dst uint32
	a, b, c := cfg.A, cfg.B, cfg.C
	for level := 0; level < cfg.Scale; level++ {
		// Perturb probabilities per level (Graph500-style noise).
		na, nb, nc3 := a, b, c
		if cfg.Noise > 0 {
			na = float64(na * jitter(cfg.Noise, rng))
			nb = float64(nb * jitter(cfg.Noise, rng))
			nc3 = float64(nc3 * jitter(cfg.Noise, rng))
		}
		r := rng.Float64()
		switch {
		case r < na:
			// top-left quadrant: both bits 0
		case r < na+nb:
			dst |= 1 << level
		case r < na+nb+nc3:
			src |= 1 << level
		default:
			src |= 1 << level
			dst |= 1 << level
		}
	}
	return graph.Edge{Src: src, Dst: dst}
}

// PowerLawConfig parameterises the power-law generator used for social- and
// web-graph analogs. Out-degrees follow a discrete Pareto distribution with
// exponent OutAlpha, scaled so the expected edge total is Edges; edge
// destinations are drawn from a Zipf(InAlpha) popularity distribution over
// vertices, producing the skewed in-degree typical of followers/hyperlinks
// ("a tiny fraction of vertices are responsible for a major fraction of
// edges", paper §1).
type PowerLawConfig struct {
	Vertices int
	Edges    int64
	OutAlpha float64 // out-degree tail exponent, > 1 (2.0-2.3 typical)
	InAlpha  float64 // destination popularity skew, >= 0 (0 = uniform)
	Seed     uint64
	// HotShuffle scatters the hot (popular) vertices across the ID space
	// instead of concentrating them at low IDs, mimicking crawl ordering.
	HotShuffle bool
	// MaxInShare caps any single vertex's share of the in-edge mass
	// (0 disables). Scaled-down graphs have relatively fatter Zipf heads
	// than their paper-scale originals (the top-vertex share of a Zipf
	// distribution grows as N shrinks); capping at the original's share
	// keeps hub granularity comparable.
	MaxInShare float64
}

// PowerLaw generates a directed power-law multigraph per cfg.
func PowerLaw(cfg PowerLawConfig) (*graph.Graph, error) {
	if cfg.Vertices <= 0 {
		return nil, fmt.Errorf("gen: PowerLaw needs vertices > 0")
	}
	if cfg.Edges < 0 {
		return nil, fmt.Errorf("gen: PowerLaw needs edges >= 0")
	}
	if cfg.OutAlpha <= 1 {
		return nil, fmt.Errorf("gen: PowerLaw OutAlpha must be > 1, got %g", cfg.OutAlpha)
	}
	if cfg.InAlpha < 0 {
		return nil, fmt.Errorf("gen: PowerLaw InAlpha must be >= 0, got %g", cfg.InAlpha)
	}
	n := cfg.Vertices
	rng := chunkRNG(cfg.Seed, 0)

	// Draw raw Pareto out-degrees, then rescale to hit the edge target.
	raw := make([]float64, n)
	var rawSum float64
	maxDeg := float64(n) // clip extreme tail
	for i := range raw {
		u := float64(rng.Float64())
		d := math.Pow(1-u, -1/(cfg.OutAlpha-1)) // Pareto xmin=1
		if d > maxDeg {
			d = maxDeg
		}
		raw[i] = d
		rawSum += d
	}
	degrees := make([]int64, n)
	var assigned int64
	scale := float64(cfg.Edges) / rawSum
	for i := range raw {
		d := int64(raw[i] * scale)
		degrees[i] = d
		assigned += d
	}
	// Distribute the rounding remainder deterministically.
	for assigned < cfg.Edges {
		v := rng.IntN(n)
		degrees[v]++
		assigned++
	}
	for assigned > cfg.Edges {
		v := rng.IntN(n)
		if degrees[v] > 0 {
			degrees[v]--
			assigned--
		}
	}

	// Destination popularity: Zipf over a (possibly shuffled) ranking.
	var perm []int32
	if cfg.HotShuffle {
		perm = make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	}
	var table *AliasTable
	if cfg.InAlpha > 0 {
		weights := zipfWeights(n, cfg.InAlpha)
		if cfg.MaxInShare > 0 {
			capWeights(weights, cfg.MaxInShare)
		}
		var err error
		table, err = NewAliasTable(weights)
		if err != nil {
			return nil, err
		}
	}

	// Prefix-sum degrees so chunks know their vertex ranges; parallelise
	// destination sampling by vertex range.
	starts := make([]int64, n+1)
	for i := 0; i < n; i++ {
		starts[i+1] = starts[i] + degrees[i]
	}
	nc := numChunks(cfg.Edges)
	// Split vertices into nc contiguous ranges of roughly equal edge counts.
	bounds := make([]int, nc+1)
	bounds[nc] = n
	for c := 1; c < nc; c++ {
		target := cfg.Edges * int64(c) / int64(nc)
		lo, hi := bounds[c-1], n
		for lo < hi {
			mid := (lo + hi) / 2
			if starts[mid] < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		bounds[c] = lo
	}
	edges := parallelEdges(cfg.Seed+1, nc, func(c int, rng *rand.Rand) []graph.Edge {
		loV, hiV := bounds[c], bounds[c+1]
		out := make([]graph.Edge, 0, starts[hiV]-starts[loV])
		for v := loV; v < hiV; v++ {
			for k := int64(0); k < degrees[v]; k++ {
				var dst int
				if table != nil {
					dst = table.Sample(rng)
				} else {
					dst = rng.IntN(n)
				}
				if perm != nil {
					dst = int(perm[dst])
				}
				out = append(out, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(dst)})
			}
		}
		return out
	})
	b := graph.NewBuilder(n)
	b.AddEdges(edges)
	return b.Build(), nil
}
