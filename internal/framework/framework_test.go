package framework

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"hipa/internal/gen"
	"hipa/internal/graph"
)

func testCfg() Config {
	return Config{Threads: 4, PartitionBytes: 256, NumNodes: 2, MaxIterations: 200}
}

// refComponents computes weak components with a sequential union-find.
func refComponents(g *graph.Graph) []int {
	parent := make([]int, g.NumVertices())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, d := range g.OutNeighbors(graph.VertexID(v)) {
			union(v, int(d))
		}
	}
	out := make([]int, g.NumVertices())
	for v := range out {
		out[v] = find(v)
	}
	return out
}

func TestWCCMatchesUnionFind(t *testing.T) {
	// A graph with several components: three chains plus isolated vertices.
	b := graph.NewBuilder(20)
	for _, e := range [][2]uint32{{0, 1}, {1, 2}, {2, 3}, {5, 6}, {7, 6}, {10, 11}, {11, 12}, {12, 10}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.Build()
	res, err := WCC(g, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	ref := refComponents(g)
	// Same partition into components: labels equal iff reference roots equal.
	for u := 0; u < g.NumVertices(); u++ {
		for v := u + 1; v < g.NumVertices(); v++ {
			same := ref[u] == ref[v]
			gotSame := res.Values[u] == res.Values[v]
			if same != gotSame {
				t.Fatalf("component disagreement for (%d,%d): ref %v, got %v", u, v, same, gotSame)
			}
		}
	}
	// Labels are canonical: the minimum vertex ID of the component.
	if res.Values[0] != 0 || res.Values[3] != 0 {
		t.Errorf("chain 0-3 label = %d, want 0", res.Values[3])
	}
	if res.Values[4] != 4 {
		t.Errorf("isolated vertex label = %d, want 4", res.Values[4])
	}
}

func TestWCCRandomGraphs(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 17))
		n := rng.IntN(300) + 2
		b := graph.NewBuilder(n)
		for i := 0; i < rng.IntN(2*n); i++ {
			b.AddEdge(graph.VertexID(rng.IntN(n)), graph.VertexID(rng.IntN(n)))
		}
		g := b.Build()
		res, err := WCC(g, testCfg())
		if err != nil {
			return false
		}
		ref := refComponents(g)
		canon := map[int]uint32{}
		for v := 0; v < n; v++ {
			if want, ok := canon[ref[v]]; ok {
				if res.Values[v] != want {
					return false
				}
			} else {
				canon[ref[v]] = res.Values[v]
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHopsMatchesBFSLevels(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Vertices: 1500, Edges: 20000, OutAlpha: 2.1, InAlpha: 0.9, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Hops(g, 0, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Sequential BFS reference.
	want := make([]int32, g.NumVertices())
	for i := range want {
		want[i] = Unreachable
	}
	want[0] = 0
	queue := []graph.VertexID{0}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.OutNeighbors(u) {
			if want[v] == Unreachable {
				want[v] = want[u] + 1
				queue = append(queue, v)
			}
		}
	}
	for v := range want {
		if res.Values[v] != want[v] {
			t.Fatalf("hops[%d] = %d, want %d", v, res.Values[v], want[v])
		}
	}
}

func TestReachable(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4) // not reachable from 0
	g := b.Build()
	res, err := Reachable(g, 0, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{1, 1, 1, 0, 0, 0}
	for v, w := range want {
		if res.Values[v] != w {
			t.Fatalf("reach[%d] = %d, want %d", v, res.Values[v], w)
		}
	}
}

func TestFrameworkConvergenceBookkeeping(t *testing.T) {
	// A simple chain: activity should decrease monotonically to zero and
	// the run must terminate before MaxIterations.
	b := graph.NewBuilder(50)
	for v := 0; v < 49; v++ {
		b.AddEdge(graph.VertexID(v), graph.VertexID(v+1))
	}
	g := b.Build()
	res, err := Hops(g, 0, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 || res.Iterations >= 200 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
	last := res.ActiveHistory[len(res.ActiveHistory)-1]
	if last != 0 {
		t.Fatalf("final active count = %d, want 0", last)
	}
	// On a chain, exactly one vertex is active per level.
	for i, a := range res.ActiveHistory[:len(res.ActiveHistory)-1] {
		if a != 1 {
			t.Fatalf("iteration %d: active = %d, want 1 on a chain", i, a)
		}
	}

	// A zero MaxIterations runs until nothing is active, however long the
	// chain: 300 vertices need 300 rounds.
	long := graph.NewBuilder(300)
	for v := 0; v < 299; v++ {
		long.AddEdge(graph.VertexID(v), graph.VertexID(v+1))
	}
	lg := long.Build()
	cfg := testCfg()
	cfg.MaxIterations = 0
	hops, err := Hops(lg, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v, h := range hops.Values {
		if h != int32(v) {
			t.Fatalf("MaxIterations 0: hops[%d] = %d, want %d", v, h, v)
		}
	}
	wcc, err := WCC(lg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v, l := range wcc.Values {
		if l != 0 {
			t.Fatalf("MaxIterations 0: wcc[%d] = %d, want 0", v, l)
		}
	}
}

func TestFrameworkMaxIterations(t *testing.T) {
	// An oscillating program would never converge; MaxIterations must bound
	// it. Use Hops on a cycle but with MaxIterations 3: labels keep
	// improving around the ring longer than 3 iterations.
	b := graph.NewBuilder(64)
	for v := 0; v < 64; v++ {
		b.AddEdge(graph.VertexID(v), graph.VertexID((v+1)%64))
	}
	g := b.Build()
	cfg := testCfg()
	cfg.MaxIterations = 3
	res, err := Hops(g, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 3 {
		t.Fatalf("iterations = %d, want <= 3", res.Iterations)
	}
}

func TestFrameworkEmptyGraph(t *testing.T) {
	empty := graph.NewBuilder(0).Build()
	if _, err := WCC(empty, testCfg()); err == nil {
		t.Fatal("expected error for empty graph")
	}
}

func TestFrameworkThreadCounts(t *testing.T) {
	g, err := gen.Uniform(500, 4000, 71)
	if err != nil {
		t.Fatal(err)
	}
	var first []uint32
	for _, threads := range []int{1, 2, 4, 8, 16} {
		cfg := testCfg()
		cfg.Threads = threads
		res, err := WCC(g, cfg)
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if first == nil {
			first = res.Values
			continue
		}
		for v := range first {
			if res.Values[v] != first[v] {
				t.Fatalf("threads=%d: nondeterministic WCC at %d", threads, v)
			}
		}
	}
}
