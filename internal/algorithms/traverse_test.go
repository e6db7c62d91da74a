package algorithms

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"hipa/internal/engines/common"
	"hipa/internal/gen"
	"hipa/internal/graph"
)

func traversalCfg() TraversalConfig {
	return TraversalConfig{Threads: 4, MaxIterations: 200}
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

// refFrontier is the serial synchronous frontier computation the
// traversals implement. Each round every active vertex u offers
// send(vals[u]) along its out-edges, every vertex keeps the minimum of its
// value and its offers, and the vertices whose value fell are the next
// round's active set. It runs at most rounds rounds and returns the
// rounds that had an active vertex and each round's active count; a round
// with none ends the run and records its 0.
func refFrontier(g *graph.Graph, vals []int64, active []bool, send func(int64) int64, rounds int) (int, []int) {
	iters := 0
	var history []int
	next := make([]int64, len(vals))
	for r := 0; r < rounds; r++ {
		copy(next, vals)
		count := 0
		for u := range vals {
			if !active[u] {
				continue
			}
			count++
			for _, v := range g.OutNeighbors(graph.VertexID(u)) {
				next[v] = min(next[v], send(vals[u]))
			}
		}
		history = append(history, count)
		if count == 0 {
			break
		}
		iters++
		for v := range vals {
			active[v] = next[v] < vals[v]
		}
		copy(vals, next)
	}
	return iters, history
}

// refWCC is refFrontier's min-label propagation over the symmetrised graph.
func refWCC(g *graph.Graph, rounds int) ([]uint32, int, []int) {
	n := g.NumVertices()
	vals, active := make([]int64, n), make([]bool, n)
	for v := range vals {
		vals[v], active[v] = int64(v), true
	}
	iters, history := refFrontier(g.Symmetrize(), vals, active, func(l int64) int64 { return l }, rounds)
	labels := make([]uint32, n)
	for v, l := range vals {
		labels[v] = uint32(l)
	}
	return labels, iters, history
}

// refHops is refFrontier's hop-count relaxation from source.
func refHops(g *graph.Graph, source graph.VertexID, rounds int) ([]int32, int, []int) {
	n := g.NumVertices()
	vals, active := make([]int64, n), make([]bool, n)
	for v := range vals {
		vals[v] = int64(Unreachable)
	}
	vals[source], active[source] = 0, true
	iters, history := refFrontier(g, vals, active, func(d int64) int64 { return d + 1 }, rounds)
	hops := make([]int32, n)
	for v, d := range vals {
		hops[v] = int32(d)
	}
	return hops, iters, history
}

func TestWCCMatchesUnionFind(t *testing.T) {
	// A graph with several components: three chains plus isolated vertices.
	b := graph.NewBuilder(20)
	for _, e := range [][2]uint32{{0, 1}, {1, 2}, {2, 3}, {5, 6}, {7, 6}, {10, 11}, {11, 12}, {12, 10}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.Build()
	res, err := WCC(g, traversalCfg())
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
		res, err := WCC(g, traversalCfg())
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
	res, err := Hops(g, 0, traversalCfg())
	if err != nil {
		t.Fatal(err)
	}
	for v, level := range refBFSLevels(g, 0) {
		want := level
		if level < 0 {
			want = Unreachable
		}
		if res.Values[v] != want {
			t.Fatalf("hops[%d] = %d, want %d", v, res.Values[v], want)
		}
	}
}

func TestReachable(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4) // not reachable from 0
	g := b.Build()
	res, err := Reachable(g, 0, traversalCfg())
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
	res, err := Hops(g, 0, traversalCfg())
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
	cfg := traversalCfg()
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
	cfg := traversalCfg()
	cfg.MaxIterations = 3
	res, err := Hops(g, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 3 {
		t.Fatalf("iterations = %d, want <= 3", res.Iterations)
	}
}

// TestFrameworkEmptyGraph: an empty graph, and a source outside [0, n),
// are errors.
func TestFrameworkEmptyGraph(t *testing.T) {
	empty := graph.NewBuilder(0).Build()
	if _, err := WCC(empty, traversalCfg()); err == nil {
		t.Fatal("expected error for empty graph")
	}
	if _, err := Hops(empty, 0, traversalCfg()); err == nil {
		t.Fatal("expected Hops error for empty graph")
	}
	g, _ := gen.Uniform(10, 20, 1)
	for _, src := range []graph.VertexID{10, 15} {
		if _, err := Hops(g, src, traversalCfg()); err == nil {
			t.Errorf("expected Hops error for source %d of 10 vertices", src)
		}
		if _, err := Reachable(g, src, traversalCfg()); err == nil {
			t.Errorf("expected Reachable error for source %d of 10 vertices", src)
		}
	}
}

func TestFrameworkThreadCounts(t *testing.T) {
	g, err := gen.Uniform(500, 4000, 71)
	if err != nil {
		t.Fatal(err)
	}
	var first []uint32
	for _, threads := range []int{1, 2, 4, 8, 16} {
		cfg := traversalCfg()
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

// TestTraversalsMatchFrontierReference: on a skewed graph, WCC's and
// Hops' values, iteration counts and active histories equal the serial
// synchronous frontier computation's, uncapped (history ending in 0) and
// capped below convergence (no trailing 0).
func TestTraversalsMatchFrontierReference(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Vertices: 5000, Edges: 9000, OutAlpha: 2.1, InAlpha: 0.9, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	for _, cap := range []int{0, 3} {
		rounds := cap
		if cap == 0 {
			rounds = n + 1
		}
		cfg := TraversalConfig{Threads: 4, MaxIterations: cap}
		labels, iters, history := refWCC(g, rounds)
		wcc, err := WCC(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(wcc.Values, labels) || wcc.Iterations != iters || !slices.Equal(wcc.ActiveHistory, history) {
			t.Errorf("cap %d: WCC ran %d rounds, history %v; reference %d, %v (labels equal: %v)",
				cap, wcc.Iterations, wcc.ActiveHistory, iters, history, slices.Equal(wcc.Values, labels))
		}
		hops, iters, history := refHops(g, 3, rounds)
		hr, err := Hops(g, 3, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(hr.Values, hops) || hr.Iterations != iters || !slices.Equal(hr.ActiveHistory, history) {
			t.Errorf("cap %d: Hops ran %d rounds, history %v; reference %d, %v (hops equal: %v)",
				cap, hr.Iterations, hr.ActiveHistory, iters, history, slices.Equal(hr.Values, hops))
		}
		if last := history[len(history)-1]; cap == 0 && last != 0 || cap > 0 && (len(history) != cap || last == 0) {
			t.Errorf("cap %d: reference history %v: want a trailing 0 exactly when uncapped", cap, history)
		}
	}
}

// TestTraversalWarmRunIsAllocationFree: once a traversal is built, its
// frontiers hold every vertex, so re-seeding it and running its superstep
// loop again allocates nothing.
func TestTraversalWarmRunIsAllocationFree(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Vertices: 5000, Edges: 9000, OutAlpha: 2.1, InAlpha: 0.9, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	rounds := g.NumVertices() + 1
	for _, c := range []struct {
		name string
		t    *traversal
		seed func(*traversal)
	}{
		{"BFS", newBFS(g, 3, 4), func(t *traversal) { t.seedBFS(3) }},
		{"WCC", newWCC(g, 4), (*traversal).seedWCC},
	} {
		cfg := superstep(c.t.threads, rounds)
		cfg.Frontier = c.t
		loop := common.NewSuperstepLoop(cfg, c.t.kernels())
		first := loop.Run(rounds)
		allocs := testing.AllocsPerRun(5, func() {
			c.seed(c.t)
			if again := loop.Run(rounds); again != first {
				t.Errorf("%s: warm run took %d rounds, the first %d", c.name, again, first)
			}
		})
		loop.Close()
		if allocs != 0 {
			t.Errorf("%s: a warm traversal allocated %g times", c.name, allocs)
		}
	}
}

// FuzzTraversalsMatchReference: on small graphs with self-loops, duplicate
// edges and isolated vertices, WCC labels each vertex with the smallest ID
// of its union-find component, and Hops and Reachable agree with a serial
// BFS, at 1 and 4 threads. The first byte sizes the graph, the second
// picks the source, and each later pair of bytes is an edge.
func FuzzTraversalsMatchReference(f *testing.F) {
	f.Add([]byte{5, 0, 0, 1, 1, 2, 2, 2, 1, 2})
	f.Add([]byte{40, 7, 7, 3, 3, 7, 9, 9, 20, 21, 21, 20, 0, 39})
	f.Add([]byte{1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%64
		source := graph.VertexID(int(data[1]) % n)
		b := graph.NewBuilder(n)
		for i := 2; i+1 < len(data); i += 2 {
			b.AddEdge(graph.VertexID(int(data[i])%n), graph.VertexID(int(data[i+1])%n))
		}
		g := b.Build()
		roots := refComponents(g)
		smallest := map[int]uint32{}
		for v := n - 1; v >= 0; v-- {
			smallest[roots[v]] = uint32(v)
		}
		levels := refBFSLevels(g, source)
		for _, threads := range []int{1, 4} {
			cfg := TraversalConfig{Threads: threads}
			wcc, err := WCC(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			hops, err := Hops(g, source, cfg)
			if err != nil {
				t.Fatal(err)
			}
			reach, err := Reachable(g, source, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for v := 0; v < n; v++ {
				if want := smallest[roots[v]]; wcc.Values[v] != want {
					t.Fatalf("threads=%d: wcc[%d] = %d, want %d", threads, v, wcc.Values[v], want)
				}
				wantHops, wantReach := levels[v], uint32(1)
				if levels[v] < 0 {
					wantHops, wantReach = Unreachable, 0
				}
				if hops.Values[v] != wantHops || reach.Values[v] != wantReach {
					t.Fatalf("threads=%d: vertex %d: hops %d reach %d, want %d and %d",
						threads, v, hops.Values[v], reach.Values[v], wantHops, wantReach)
				}
			}
		}
	})
}
