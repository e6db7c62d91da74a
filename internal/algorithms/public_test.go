package algorithms_test

// PageRank-Delta and personalized PageRank run the Delta-PR and B-PPR
// engines behind the root package's PageRankDelta and PersonalizedPageRank,
// which import this package; these tests call the public functions from
// an external test package.

import (
	"math"
	"testing"

	"hipa"
	"hipa/internal/gen"
	"hipa/internal/graph"
)

func testCfg() hipa.AlgoConfig {
	return hipa.AlgoConfig{Threads: 4, PartitionBytes: 256, NumNodes: 2}
}

// TestPageRankDeltaEpsilonZeroMatchesReference: a zero tolerance selects
// Delta-PR's default, 1e-7, whose propagation gate (tolerance/16) keeps
// the capped run within float32 noise of the same number of power
// iterations.
func TestPageRankDeltaEpsilonZeroMatchesReference(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Vertices: 800, Edges: 10000, OutAlpha: 2.0, InAlpha: 0.8, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	const iters = 12
	res, err := hipa.PageRankDelta(g, hipa.DeltaOptions{Config: testCfg(), Tolerance: 0, MaxIterations: iters})
	if err != nil {
		t.Fatal(err)
	}
	ref := hipa.ReferencePageRank(g, iters, 0.85)
	for v := range ref {
		if math.Abs(float64(res.Ranks[v])-ref[v]) > 1e-4*ref[v]+1e-5 {
			t.Fatalf("rank[%d] = %g, want %g", v, res.Ranks[v], ref[v])
		}
	}
	if s := hipa.RankSum(res.Ranks); math.Abs(s-1) > 1e-3 {
		t.Errorf("rank sum = %f", s)
	}
}

// TestPageRankDeltaEpsilonPrunes runs at tolerance 1.6e-6, a propagation
// gate of 1e-7.
func TestPageRankDeltaEpsilonPrunes(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Vertices: 1500, Edges: 20000, OutAlpha: 2.1, InAlpha: 1.0, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	res, err := hipa.PageRankDelta(g, hipa.DeltaOptions{Config: testCfg(), Tolerance: 1.6e-6, MaxIterations: 50})
	if err != nil {
		t.Fatal(err)
	}
	// The active set must shrink over iterations and eventually converge.
	if len(res.ActiveHistory) != res.Iterations {
		t.Fatalf("%d active-set sizes for %d iterations", len(res.ActiveHistory), res.Iterations)
	}
	first := res.ActiveHistory[0]
	last := res.ActiveHistory[len(res.ActiveHistory)-1]
	if last >= first {
		t.Errorf("active set did not shrink: %v", res.ActiveHistory)
	}
	// Result approximates the converged PageRank.
	ref := hipa.ReferencePageRank(g, 50, 0.85)
	var worst float64
	for v := range ref {
		if d := math.Abs(float64(res.Ranks[v]) - ref[v]); d > worst {
			worst = d
		}
	}
	if worst > 1e-4 {
		t.Errorf("worst abs error vs converged PR: %g", worst)
	}
}

// danglingHeavyGraph builds a 400-vertex graph where only the first half has
// out-edges: half the rank mass is dangling and redistributed uniformly every
// iteration, the case where delta propagation is easiest to get wrong (the
// dangling deltas travel through the redistribution term, not the edges).
func danglingHeavyGraph() *graph.Graph {
	b := graph.NewBuilder(400)
	x := uint64(0x9E3779B97F4A7C15)
	for v := 0; v < 200; v++ {
		for k := 0; k < 3; k++ {
			x = x*6364136223846793005 + 1442695040888963407
			b.AddEdge(graph.VertexID(v), graph.VertexID(int(x>>33)%400))
		}
	}
	return b.Build()
}

// TestPageRankDeltaFirstActiveSetSkipsDangling: the first iteration's
// active set is the vertices that propagate their starting mass, so on the
// dangling-heavy graph it is the 200 vertices with out-edges, not all 400.
func TestPageRankDeltaFirstActiveSetSkipsDangling(t *testing.T) {
	res, err := hipa.PageRankDelta(danglingHeavyGraph(), hipa.DeltaOptions{Config: testCfg(), MaxIterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.ActiveHistory[0]; got != 200 {
		t.Fatalf("iteration 0 reports %d active vertices, want the 200 with out-edges", got)
	}
}

// TestPageRankDeltaMatchesExactRanks: a converged PageRankDelta run (a
// 1e-8 propagation gate, tolerance 1.6e-7, and a generous budget) must
// agree with exact power-iteration ranks on each example graph, including
// the dangling-heavy one.
func TestPageRankDeltaMatchesExactRanks(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*graph.Graph, error)
	}{
		{"power-law", func() (*graph.Graph, error) {
			return gen.PowerLaw(gen.PowerLawConfig{Vertices: 1000, Edges: 12000, OutAlpha: 2.1, InAlpha: 0.9, Seed: 61})
		}},
		{"uniform", func() (*graph.Graph, error) {
			return gen.Uniform(600, 7000, 7)
		}},
		{"dangling-heavy", func() (*graph.Graph, error) {
			return danglingHeavyGraph(), nil
		}},
	}
	const budget = 200
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			res, err := hipa.PageRankDelta(g, hipa.DeltaOptions{Config: testCfg(), Tolerance: 1.6e-7, MaxIterations: budget})
			if err != nil {
				t.Fatal(err)
			}
			if res.Iterations >= budget {
				t.Errorf("delta computation never converged within %d iterations", budget)
			}
			ref := hipa.ReferencePageRank(g, budget, 0.85)
			var worst float64
			for v := range ref {
				if d := math.Abs(float64(res.Ranks[v]) - ref[v]); d > worst {
					worst = d
				}
			}
			// float32 accumulation against a float64 reference: 1e-5 is ~40×
			// the ulp of a typical rank here and far below any rank's value.
			if worst > 1e-5 {
				t.Errorf("worst abs error vs exact ranks: %g, want <= 1e-5", worst)
			}
			if s := hipa.RankSum(res.Ranks); math.Abs(s-1) > 1e-3 {
				t.Errorf("rank sum = %f, want 1", s)
			}
		})
	}
}

func TestPageRankDeltaErrors(t *testing.T) {
	g, _ := gen.Uniform(10, 20, 1)
	if _, err := hipa.PageRankDelta(g, hipa.DeltaOptions{Config: testCfg(), Damping: 2}); err == nil {
		t.Error("expected error for damping out of range")
	}
	if _, err := hipa.PageRankDelta(g, hipa.DeltaOptions{Config: testCfg(), Tolerance: -1}); err == nil {
		t.Error("expected error for negative tolerance")
	}
	empty := graph.NewBuilder(0).Build()
	if _, err := hipa.PageRankDelta(empty, hipa.DeltaOptions{Config: testCfg()}); err == nil {
		t.Error("expected error for empty graph")
	}
}

// TestPersonalizedPageRank: 30 iterations is a cap; the query retires at
// B-PPR's default tolerance first.
func TestPersonalizedPageRank(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Vertices: 1000, Edges: 12000, OutAlpha: 2.1, InAlpha: 0.9, Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	src := []graph.VertexID{7}
	ranks, err := hipa.PersonalizedPageRank(g, src, 30, 0.85, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Mass conserved.
	var sum float64
	for _, r := range ranks {
		sum += float64(r)
	}
	if math.Abs(sum-1) > 1e-3 {
		t.Fatalf("personalized rank sum = %f", sum)
	}
	// The source dominates its own personalized ranking.
	for v, r := range ranks {
		if graph.VertexID(v) != 7 && float64(r) > float64(ranks[7]) {
			// Allowed only for extremely central hubs; the source's restart
			// mass should usually win. Check it is at least top-5.
			top := 0
			for _, r2 := range ranks {
				if r2 > ranks[7] {
					top++
				}
			}
			if top > 5 {
				t.Fatalf("source rank %g ranked below %d vertices", ranks[7], top)
			}
			break
		}
	}
	// Sequential reference for personalized PR.
	ref := refPersonalized(g, src, 30, 0.85)
	for v := range ref {
		if math.Abs(ref[v]-float64(ranks[v])) > 1e-4 {
			t.Fatalf("rank[%d] = %g, want %g", v, ranks[v], ref[v])
		}
	}
}

func refPersonalized(g *graph.Graph, sources []graph.VertexID, iters int, d float64) []float64 {
	n := g.NumVertices()
	tele := make([]float64, n)
	for _, s := range sources {
		tele[s] += 1 / float64(len(sources))
	}
	rank := append([]float64(nil), tele...)
	next := make([]float64, n)
	for it := 0; it < iters; it++ {
		var dangling float64
		for i := range next {
			next[i] = 0
		}
		for v := 0; v < n; v++ {
			deg := g.OutDegree(graph.VertexID(v))
			if deg == 0 {
				dangling += rank[v]
				continue
			}
			c := rank[v] / float64(deg)
			for _, dst := range g.OutNeighbors(graph.VertexID(v)) {
				next[dst] += c
			}
		}
		restart := (1 - d) + d*dangling
		for v := 0; v < n; v++ {
			rank[v] = restart*tele[v] + d*next[v]
		}
	}
	return rank
}

func TestPersonalizedPageRankErrors(t *testing.T) {
	g, _ := gen.Uniform(10, 30, 2)
	if _, err := hipa.PersonalizedPageRank(g, nil, 5, 0.85, testCfg()); err == nil {
		t.Error("expected error for no sources")
	}
	if _, err := hipa.PersonalizedPageRank(g, []graph.VertexID{99}, 5, 0.85, testCfg()); err == nil {
		t.Error("expected error for bad source")
	}
	if _, err := hipa.PersonalizedPageRank(g, []graph.VertexID{3, 1, 3}, 5, 0.85, testCfg()); err == nil {
		t.Error("expected error for duplicate sources")
	}
	if _, err := hipa.PersonalizedPageRank(g, []graph.VertexID{0}, 0, 0.85, testCfg()); err == nil {
		t.Error("expected error for zero iterations")
	}
	if _, err := hipa.PersonalizedPageRank(g, []graph.VertexID{0}, 5, 2, testCfg()); err == nil {
		t.Error("expected error for bad damping")
	}
	if _, err := hipa.PersonalizedPageRank(g, []graph.VertexID{0}, 5, 0, testCfg()); err == nil {
		t.Error("expected error for zero damping")
	}
}

// Uniform personalization over ALL vertices equals standard PageRank.
func TestPersonalizedUniformEqualsStandard(t *testing.T) {
	g, err := gen.Uniform(300, 3000, 74)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]graph.VertexID, g.NumVertices())
	for i := range all {
		all[i] = graph.VertexID(i)
	}
	got, err := hipa.PersonalizedPageRank(g, all, 15, 0.85, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	ref := hipa.ReferencePageRank(g, 15, 0.85)
	for v := range ref {
		if math.Abs(ref[v]-float64(got[v])) > 1e-4 {
			t.Fatalf("uniform personalization [%d] = %g, want %g", v, got[v], ref[v])
		}
	}
}
