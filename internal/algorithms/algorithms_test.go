package algorithms

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"hipa/internal/gen"
	"hipa/internal/graph"
	"hipa/internal/layout/layouttest"
)

func testCfg() Config {
	return Config{Threads: 4, PartitionBytes: 256, NumNodes: 2}
}

// refSpMV is the sequential ground truth: y[v] = sum over in-edges x[u].
func refSpMV(g *graph.Graph, x []float32) []float32 {
	y := make([]float32, g.NumVertices())
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.OutNeighbors(graph.VertexID(u)) {
			y[v] += x[u]
		}
	}
	return y
}

func TestSpMVMatchesReference(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Vertices: 1000, Edges: 12000, OutAlpha: 2.1, InAlpha: 0.9, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, g.NumVertices())
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range x {
		x[i] = rng.Float32()
	}
	got, err := SpMV(g, x, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	want := refSpMV(g, x)
	for v := range want {
		if math.Abs(float64(got[v]-want[v])) > 1e-3*(1+math.Abs(float64(want[v]))) {
			t.Fatalf("SpMV[%d] = %f, want %f", v, got[v], want[v])
		}
	}
}

// TestSpMVBitIdenticalToPush: each y[v] is the float32 sum a serial push
// over the partitioning produces, first v's intra in-neighbours in source
// order, then its messages in index order, for signed x with ±0 entries, at
// every thread count.
func TestSpMVBitIdenticalToPush(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Vertices: 3000, Edges: 40000, OutAlpha: 2.1, InAlpha: 0.9, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 99))
	x := make([]float32, g.NumVertices())
	for i := range x {
		switch rng.IntN(8) {
		case 0:
		case 1:
			x[i] = float32(math.Copysign(0, -1))
		default:
			x[i] = (rng.Float32() - 0.5) * float32(rng.IntN(1000))
		}
	}
	cfg := Config{PartitionBytes: 1024, NumNodes: 2}
	p, err := prepare(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lay := p.lay
	want := make([]float32, len(x))
	for u, dsts := range layouttest.IntraOut(g, p.hier) {
		for _, d := range dsts {
			want[d] += x[u]
		}
	}
	for _, b := range lay.Blocks {
		for m := b.MsgStart; m < b.MsgEnd; m++ {
			u := lay.MsgSrc[m]
			for _, d := range g.OutNeighbors(u) {
				if p.hier.PartitionOfVertex(d) == int(b.DstPart) {
					want[d] += x[u]
				}
			}
		}
	}
	for _, threads := range []int{1, 2, 4, 8} {
		cfg.Threads = threads
		got, err := SpMV(g, x, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if math.Float32bits(got[v]) != math.Float32bits(want[v]) {
				t.Fatalf("threads=%d: y[%d] = %g, push gives %g", threads, v, got[v], want[v])
			}
		}
	}
}

func TestSpMVErrors(t *testing.T) {
	g, _ := gen.Uniform(10, 20, 1)
	if _, err := SpMV(g, make([]float32, 5), testCfg()); err == nil {
		t.Error("expected error for length mismatch")
	}
	empty := graph.NewBuilder(0).Build()
	if _, err := SpMV(empty, nil, testCfg()); err == nil {
		t.Error("expected error for empty graph")
	}
}

func TestSpMVIterateCountsPaths(t *testing.T) {
	// Path graph 0->1->2->3: starting from e0, k applications move the unit.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	x := []float32{1, 0, 0, 0}
	y, err := SpMVIterate(g, x, 3, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{0, 0, 0, 1}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y = %v, want %v", y, want)
		}
	}
	if _, err := SpMVIterate(g, x, -1, testCfg()); err == nil {
		t.Error("expected error for negative k")
	}
	y0, _ := SpMVIterate(g, x, 0, testCfg())
	if y0[0] != 1 {
		t.Error("k=0 should return a copy of x")
	}
}

// Property: SpMV is linear: A(x+z) = Ax + Az.
func TestPropertySpMVLinear(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		n := rng.IntN(200) + 10
		b := graph.NewBuilder(n)
		for i := 0; i < rng.IntN(1000); i++ {
			b.AddEdge(graph.VertexID(rng.IntN(n)), graph.VertexID(rng.IntN(n)))
		}
		g := b.Build()
		x := make([]float32, n)
		z := make([]float32, n)
		sum := make([]float32, n)
		for i := range x {
			x[i] = float32(rng.IntN(8))
			z[i] = float32(rng.IntN(8))
			sum[i] = x[i] + z[i]
		}
		ax, err := SpMV(g, x, testCfg())
		if err != nil {
			return false
		}
		az, err := SpMV(g, z, testCfg())
		if err != nil {
			return false
		}
		asum, err := SpMV(g, sum, testCfg())
		if err != nil {
			return false
		}
		for v := range asum {
			if math.Abs(float64(asum[v]-(ax[v]+az[v]))) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func refBFSLevels(g *graph.Graph, src graph.VertexID) []int32 {
	levels := make([]int32, g.NumVertices())
	for i := range levels {
		levels[i] = -1
	}
	levels[src] = 0
	queue := []graph.VertexID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.OutNeighbors(u) {
			if levels[v] == -1 {
				levels[v] = levels[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return levels
}

// refBFSParents is the serial min-parent rule: each reached vertex's parent
// is its smallest in-neighbour one level shallower, the source's is
// itself, and an unreachable vertex's is 0.
func refBFSParents(g *graph.Graph, src graph.VertexID, levels []int32) []graph.VertexID {
	parents := make([]graph.VertexID, g.NumVertices())
	for v := range parents {
		if levels[v] > 0 {
			parents[v] = math.MaxUint32
		}
	}
	parents[src] = src
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.OutNeighbors(graph.VertexID(u)) {
			if levels[u] >= 0 && levels[v] == levels[u]+1 && graph.VertexID(u) < parents[v] {
				parents[v] = graph.VertexID(u)
			}
		}
	}
	return parents
}

// TestBFSMatchesReference: levels, parents and the visit count equal the
// serial references bit for bit at every thread count.
func TestBFSMatchesReference(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Vertices: 2000, Edges: 30000, OutAlpha: 2.0, InAlpha: 0.9, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	want := refBFSLevels(g, 0)
	wantParents := refBFSParents(g, 0, want)
	visited := 0
	for v := range want {
		if want[v] >= 0 {
			visited++
		}
	}
	for _, threads := range []int{1, 2, 4, 8} {
		res, err := BFS(g, 0, Config{Threads: threads, PartitionBytes: 256, NumNodes: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Levels, want) {
			t.Fatalf("threads=%d: levels differ from the serial BFS", threads)
		}
		if !slices.Equal(res.Parents, wantParents) {
			t.Fatalf("threads=%d: parents differ from the serial min-parent rule", threads)
		}
		if res.Visited != visited {
			t.Errorf("threads=%d: Visited = %d, want %d", threads, res.Visited, visited)
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	// 2,3,4 unreachable.
	g := b.Build()
	res, err := BFS(g, 0, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 2 {
		t.Errorf("Visited = %d, want 2", res.Visited)
	}
	for _, v := range []int{2, 3, 4} {
		if res.Levels[v] != -1 {
			t.Errorf("unreachable vertex %d has level %d", v, res.Levels[v])
		}
	}
}

func TestBFSErrors(t *testing.T) {
	g, _ := gen.Uniform(10, 20, 1)
	if _, err := BFS(g, 99, testCfg()); err == nil {
		t.Error("expected error for bad source")
	}
	empty := graph.NewBuilder(0).Build()
	if _, err := BFS(empty, 0, testCfg()); err == nil {
		t.Error("expected error for empty graph")
	}
}

// Property: BFS levels satisfy the triangle property — for every edge (u,v),
// level(v) <= level(u)+1 when u is reachable.
func TestPropertyBFSLevels(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 9))
		n := rng.IntN(300) + 2
		b := graph.NewBuilder(n)
		for i := 0; i < rng.IntN(1500); i++ {
			b.AddEdge(graph.VertexID(rng.IntN(n)), graph.VertexID(rng.IntN(n)))
		}
		g := b.Build()
		src := graph.VertexID(rng.IntN(n))
		res, err := BFS(g, src, testCfg())
		if err != nil {
			return false
		}
		for u := 0; u < n; u++ {
			if res.Levels[u] < 0 {
				continue
			}
			for _, v := range g.OutNeighbors(graph.VertexID(u)) {
				if res.Levels[v] < 0 || res.Levels[v] > res.Levels[u]+1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Regression: on graphs smaller than the thread count, the worker count
// must still equal the partition group count (found by fuzz-order quick
// seeds: 4 threads on a 3-vertex graph used to panic).
func TestTinyGraphThreadClamp(t *testing.T) {
	for n := 1; n <= 8; n++ {
		b := graph.NewBuilder(n)
		for v := 0; v+1 < n; v++ {
			b.AddEdge(graph.VertexID(v), graph.VertexID(v+1))
		}
		g := b.Build()
		x := make([]float32, n)
		x[0] = 1
		if _, err := SpMV(g, x, Config{Threads: 4, PartitionBytes: 16, NumNodes: 2}); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		w := make([]float32, g.NumEdges())
		if _, err := WeightedSpMV(g, x, w, Config{Threads: 4, PartitionBytes: 16, NumNodes: 2}); err != nil {
			t.Fatalf("weighted n=%d: %v", n, err)
		}
		if _, err := BFS(g, 0, Config{Threads: 7, PartitionBytes: 16, NumNodes: 2}); err != nil {
			t.Fatalf("bfs n=%d: %v", n, err)
		}
	}
}
