package bppr_test

import (
	"math/rand/v2"
	"runtime"
	"testing"

	"hipa/internal/engines/bppr"
	"hipa/internal/engines/common"
	"hipa/internal/gen"
	"hipa/internal/graph"
	"hipa/internal/machine"
	"hipa/internal/platform"
)

// BenchmarkBPPRQuery times width-1 personalized PageRank queries the way
// hipaserve answers /v1/ppr on the journal-shaped 18,750-vertex graph of
// the rank-small and serve-update benchmarks: one artifact prepared once
// on the unscaled Skylake preset with the serving defaults (native
// platform, GOMAXPROCS threads per node, tolerance 1e-7, at most 100
// iterations), then one Exec per query, each seeded at one vertex drawn
// zipf(1.2) over a fixed shuffle of the vertices. It reports the time per
// query and the supersteps per query that pushed a sparse frontier.
func BenchmarkBPPRQuery(b *testing.B) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Vertices: 18750, Edges: 267578, OutAlpha: 2.3, InAlpha: 0.9, Seed: 1, HotShuffle: true})
	if err != nil {
		b.Fatal(err)
	}
	m := machine.SkylakeSilver4210()
	o := common.Options{
		Machine:    m,
		Platform:   platform.NewNative(m),
		Iterations: 100,
		Tolerance:  1e-7,
		Threads:    min(runtime.GOMAXPROCS(0)*m.NUMANodes, m.LogicalCores()),
	}
	prep, err := (bppr.Engine{}).Prepare(g, o)
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumVertices()
	rng := rand.New(rand.NewPCG(1, 2))
	hot := rng.Perm(n)
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(n-1))
	queries := make([][]bppr.Query, 1024)
	for i := range queries {
		queries[i] = []bppr.Query{{Seeds: []graph.VertexID{graph.VertexID(hot[zipf.Uint64()])}}}
	}
	pushed := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br, err := bppr.ExecBatch(prep, o, queries[i%len(queries)])
		if err != nil {
			b.Fatal(err)
		}
		pushed += br.PushIterations
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/query")
	b.ReportMetric(float64(pushed)/float64(b.N), "push_iters/query")
}
