package hipa

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

func TestPublicAPIQuickstart(t *testing.T) {
	g, err := Generate("journal", 2048)
	if err != nil {
		t.Fatal(err)
	}
	res, err := HiPa.Run(g, Options{Machine: ScaledMachine(Skylake(), 2048), Iterations: 5, PartitionBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	if s := RankSum(res.Ranks); math.Abs(s-1) > 1e-3 {
		t.Fatalf("rank sum = %f", s)
	}
	if res.Model == nil {
		t.Fatal("no model report")
	}
}

func TestPublicGraphBuilding(t *testing.T) {
	b := NewGraphBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	if g.NumEdges() != 2 {
		t.Fatal("builder broken")
	}
	var buf bytes.Buffer
	buf.WriteString("0 1\n1 2\n2 0\n")
	g2, err := ReadEdgeList(&buf, 0)
	if err != nil || g2.NumVertices() != 3 {
		t.Fatalf("edge list: %v", err)
	}
	path := t.TempDir() + "/g.bin"
	if err := SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	g3, err := LoadGraph(path)
	if err != nil || g3.NumEdges() != 2 {
		t.Fatalf("binary round trip: %v", err)
	}
}

func TestPublicGenerators(t *testing.T) {
	if len(Datasets()) != 6 {
		t.Error("catalog size")
	}
	g, err := RMAT(8, 4, 1)
	if err != nil || g.NumVertices() != 256 {
		t.Fatalf("RMAT: %v", err)
	}
	g2, err := PowerLaw(100, 500, 2.1, 0.9, 2)
	if err != nil || g2.NumEdges() != 500 {
		t.Fatalf("PowerLaw: %v", err)
	}
	g3, err := Uniform(10, 20, 3)
	if err != nil || g3.NumEdges() != 20 {
		t.Fatalf("Uniform: %v", err)
	}
}

func TestPublicMachines(t *testing.T) {
	if Skylake().LogicalCores() != 40 {
		t.Error("skylake")
	}
	if Haswell().L2.SizeBytes != 256<<10 {
		t.Error("haswell")
	}
	if SingleNodeMachine(Skylake()).NUMANodes != 1 {
		t.Error("single node")
	}
	if ScaledMachine(Skylake(), 256).L2.SizeBytes >= Skylake().L2.SizeBytes {
		t.Error("scaled")
	}
}

func TestEnginesList(t *testing.T) {
	names := map[string]bool{}
	for _, e := range Engines() {
		names[e.Name()] = true
	}
	for _, want := range []string{"HiPa", "p-PR", "v-PR", "GPOP", "Polymer"} {
		if !names[want] {
			t.Errorf("missing engine %s", want)
		}
	}
}

func TestTopK(t *testing.T) {
	ranks := []float32{0.1, 0.5, 0.2, 0.9, 0.3}
	top := TopK(ranks, 3)
	if len(top) != 3 || top[0] != 3 || top[1] != 1 || top[2] != 4 {
		t.Fatalf("TopK = %v, want [3 1 4]", top)
	}
	if got := TopK(ranks, 99); len(got) != 5 {
		t.Fatalf("TopK overshoot = %v", got)
	}
	// Large-k path (sort-based).
	big := make([]float32, 3000)
	for i := range big {
		big[i] = float32(i % 997)
	}
	topBig := TopK(big, 2500)
	for i := 1; i < len(topBig); i++ {
		if big[topBig[i-1]] < big[topBig[i]] {
			t.Fatal("TopK large-k not descending")
		}
	}
}

func TestReproFacade(t *testing.T) {
	cfg := NewReproConfig()
	cfg.Divisor = 4096
	cfg.Iterations = 3
	cfg.Datasets = []string{"journal"}
	rows, tbl, err := ReproTable1(cfg)
	if err != nil || len(rows) != 1 {
		t.Fatalf("ReproTable1: %v", err)
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
	if _, _, err := ReproOverhead(cfg); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReproAblations(cfg, "journal"); err != nil {
		t.Fatal(err)
	}
}

func TestReferencePageRankPublic(t *testing.T) {
	g, _ := Uniform(50, 200, 9)
	r := ReferencePageRank(g, 10, 0.85)
	var sum float64
	for _, x := range r {
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("sum = %f", sum)
	}
}

func TestPublicWeightedAndPersonalized(t *testing.T) {
	g, err := Uniform(200, 2000, 31)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, g.NumVertices())
	w := make([]float32, g.NumEdges())
	for i := range x {
		x[i] = 1
	}
	for i := range w {
		w[i] = 2
	}
	y, err := WeightedSpMV(g, x, w, AlgoConfig{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range y {
		sum += float64(v)
	}
	if math.Abs(sum-float64(2*g.NumEdges())) > 1 {
		t.Fatalf("weighted mass = %f, want %d", sum, 2*g.NumEdges())
	}
	pr, err := PersonalizedPageRank(g, []VertexID{0, 1}, 10, 0.85, AlgoConfig{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s := RankSum(pr); math.Abs(s-1) > 1e-3 {
		t.Fatalf("personalized rank sum = %f", s)
	}
}

// TestAlgorithmsThreadInvariance: the public algorithms' outputs are a
// function of the graph and the inputs alone, so the GOMAXPROCS default of
// AlgoConfig.Threads and FrameworkConfig.Threads sizes resources only. The
// graph has dangling vertices and a dozen partitions; x is signed. The
// traversals compare their values, iterations and active histories.
func TestAlgorithmsThreadInvariance(t *testing.T) {
	g, err := PowerLaw(3000, 40000, 2.1, 0.9, 17)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, g.NumVertices())
	for i := range x {
		x[i] = float32(i%13) - 6.5
	}
	bits := func(vs []float32) []uint32 {
		out := make([]uint32, len(vs))
		for i, v := range vs {
			out[i] = math.Float32bits(v)
		}
		return out
	}
	runs := []struct {
		name string
		run  func(cfg AlgoConfig) (any, error)
	}{
		{"SpMV", func(cfg AlgoConfig) (any, error) {
			y, err := SpMV(g, x, cfg)
			return bits(y), err
		}},
		{"SpMVIterate", func(cfg AlgoConfig) (any, error) {
			y, err := SpMVIterate(g, x, 3, cfg)
			return bits(y), err
		}},
		{"PageRankDelta", func(cfg AlgoConfig) (any, error) {
			res, err := PageRankDelta(g, DeltaOptions{Config: cfg, Tolerance: 1e-6, MaxIterations: 40})
			if err != nil {
				return nil, err
			}
			return []any{bits(res.Ranks), res.Iterations, res.ActiveHistory}, nil
		}},
		{"PersonalizedPageRank", func(cfg AlgoConfig) (any, error) {
			r, err := PersonalizedPageRank(g, []VertexID{5, 900, 2000}, 40, 0.85, cfg)
			return bits(r), err
		}},
		{"BFS", func(cfg AlgoConfig) (any, error) {
			return BFS(g, 1, cfg)
		}},
		{"WeightedSpMV", func(cfg AlgoConfig) (any, error) {
			w := make([]float32, g.NumEdges())
			for i := range w {
				w[i] = float32(i%7)*0.37 - 1
			}
			y, err := WeightedSpMV(g, x, w, cfg)
			return bits(y), err
		}},
		{"WCC", func(cfg AlgoConfig) (any, error) {
			return WCC(g, FrameworkConfig{Threads: cfg.Threads})
		}},
		{"Hops", func(cfg AlgoConfig) (any, error) {
			return Hops(g, 1, FrameworkConfig{Threads: cfg.Threads})
		}},
		{"Reachable", func(cfg AlgoConfig) (any, error) {
			return Reachable(g, 1, FrameworkConfig{Threads: cfg.Threads})
		}},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			var want any
			for _, threads := range []int{1, 2, 4, 8} {
				got, err := r.run(AlgoConfig{Threads: threads, PartitionBytes: 1024})
				if err != nil {
					t.Fatal(err)
				}
				if threads == 1 {
					want = got
				} else if !reflect.DeepEqual(got, want) {
					t.Fatalf("threads=%d: output differs from threads=1", threads)
				}
			}
		})
	}
}
