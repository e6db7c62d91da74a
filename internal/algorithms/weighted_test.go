package algorithms

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"hipa/internal/gen"
	"hipa/internal/graph"
)

// refWeightedSpMV is the sequential ground truth.
func refWeightedSpMV(g *graph.Graph, x, w []float32) []float32 {
	y := make([]float32, g.NumVertices())
	off := g.OutOffsets()
	adj := g.OutEdges()
	for u := 0; u < g.NumVertices(); u++ {
		for i := off[u]; i < off[u+1]; i++ {
			y[adj[i]] += w[i] * x[u]
		}
	}
	return y
}

func TestWeightedSpMVMatchesReference(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Vertices: 800, Edges: 10000, OutAlpha: 2.1, InAlpha: 0.9, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(7, 8))
	x := make([]float32, g.NumVertices())
	for i := range x {
		x[i] = rng.Float32()
	}
	w := make([]float32, g.NumEdges())
	for i := range w {
		w[i] = rng.Float32() * 3
	}
	got, err := WeightedSpMV(g, x, w, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	want := refWeightedSpMV(g, x, w)
	for v := range want {
		if math.Abs(float64(got[v]-want[v])) > 1e-2*(1+math.Abs(float64(want[v]))) {
			t.Fatalf("y[%d] = %f, want %f", v, got[v], want[v])
		}
	}
}

func TestWeightedSpMVUnitWeightsEqualSpMV(t *testing.T) {
	g, err := gen.Uniform(500, 6000, 72)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, g.NumVertices())
	for i := range x {
		x[i] = float32(i % 7)
	}
	ones := make([]float32, g.NumEdges())
	for i := range ones {
		ones[i] = 1
	}
	a, err := WeightedSpMV(g, x, ones, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := SpMV(g, x, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for v := range a {
		if math.Abs(float64(a[v]-b[v])) > 1e-3 {
			t.Fatalf("unit-weighted [%d] = %f vs unweighted %f", v, a[v], b[v])
		}
	}
}

func TestWeightedSpMVErrors(t *testing.T) {
	g, _ := gen.Uniform(10, 20, 1)
	w := make([]float32, g.NumEdges())
	if _, err := WeightedSpMV(g, make([]float32, 3), w, testCfg()); err == nil {
		t.Error("expected error for x length mismatch")
	}
	if _, err := WeightedSpMV(g, make([]float32, 10), w[:5], testCfg()); err == nil {
		t.Error("expected error for weight length mismatch")
	}
}

// Property: multi-edges keep distinct weights (each CSR slot counted once).
func TestPropertyWeightedSpMVMultiEdges(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 21))
		n := rng.IntN(60) + 2
		b := graph.NewBuilder(n)
		for i := 0; i < rng.IntN(300); i++ {
			// Small vertex range forces plenty of duplicate edges.
			b.AddEdge(graph.VertexID(rng.IntN(n)), graph.VertexID(rng.IntN(n)))
		}
		g := b.Build()
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(rng.IntN(5))
		}
		w := make([]float32, g.NumEdges())
		for i := range w {
			w[i] = float32(rng.IntN(4))
		}
		got, err := WeightedSpMV(g, x, w, testCfg())
		if err != nil {
			return false
		}
		want := refWeightedSpMV(g, x, w)
		for v := range want {
			if math.Abs(float64(got[v]-want[v])) > 1e-2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
