package enginetest

import (
	"fmt"
	"math"
	"testing"

	"hipa/internal/engines/bppr"
	"hipa/internal/engines/common"
	"hipa/internal/gen"
	"hipa/internal/graph"
	"hipa/internal/machine"
	"hipa/internal/obs"
)

// sparseStartGraph is a skewed fixture for B-PPR's sparse start: out-degrees
// 0–15 (every 11th vertex dangles), destinations drawn towards low IDs so
// hubs collect several addends per superstep, and every fifth edge
// repeated.
func sparseStartGraph(n int, seed uint64) *graph.Graph {
	b := graph.NewBuilder(n)
	x := seed*0x9E3779B97F4A7C15 + 1
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 33
	}
	for v := 0; v < n; v++ {
		if v%11 == 0 {
			continue
		}
		deg := int(next() % 16)
		for j := 0; j < deg; j++ {
			r := next() % uint64(n)
			d := graph.VertexID(r * r / uint64(n))
			b.AddEdge(graph.VertexID(v), d)
			if j%5 == 0 {
				b.AddEdge(graph.VertexID(v), d)
			}
		}
	}
	return b.Build()
}

// checkSparseStartBitExact runs seeds as a width-1 batch, which starts
// sparse, and as column 0 of a width-2 batch beside a uniform column,
// which pulls every superstep, and fails unless the two columns agree bit
// for bit, iteration count included. It returns the width-1 batch's push
// iterations.
func checkSparseStartBitExact(t *testing.T, prep *common.Prepared, o common.Options, seeds []graph.VertexID) int {
	t.Helper()
	solo, err := bppr.ExecBatch(prep, o, []bppr.Query{{Seeds: seeds}})
	if err != nil {
		t.Fatal(err)
	}
	pair, err := bppr.ExecBatch(prep, o, []bppr.Query{{Seeds: seeds}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if pair.PushIterations != 0 {
		t.Fatalf("seeds %v: a width-2 batch pushed %d iterations", seeds, pair.PushIterations)
	}
	if solo.Iterations[0] != pair.Iterations[0] {
		t.Fatalf("seeds %v: %d iterations at width 1, %d as column 0 of width 2", seeds, solo.Iterations[0], pair.Iterations[0])
	}
	for v, r := range solo.Ranks[0] {
		if math.Float32bits(r) != math.Float32bits(pair.Ranks[0][v]) {
			t.Fatalf("seeds %v: vertex %d rank %v (%#x) at width 1 after %d push iterations, %v (%#x) at width 2",
				seeds, v, r, math.Float32bits(r), solo.PushIterations, pair.Ranks[0][v], math.Float32bits(pair.Ranks[0][v]))
		}
	}
	return solo.PushIterations
}

// TestBPPRSparseStartBitExact: a width-1 personalized query, whose first
// supersteps push its frontier over the out-CSR, ranks bit for bit like
// the same query pulled as column 0 of a width-2 batch — on graphs of many
// partitions with duplicate edges, for one to three seeds including a
// zero-out-degree one, at 1, 2, 4 and 8 threads on one and two nodes.
func TestBPPRSparseStartBitExact(t *testing.T) {
	rmat, err := gen.RMAT(gen.RMATConfig{Scale: 12, EdgeFactor: 8, A: 0.57, B: 0.19, C: 0.19, D: 0.05, Seed: 3, Noise: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for _, gc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"skewed", sparseStartGraph(3000, 1)},
		{"rmat", rmat},
	} {
		g := gc.g
		n := g.NumVertices()
		hub := graph.VertexID(1)
		for v := 1; v < n; v++ {
			if g.OutDegree(graph.VertexID(v)) > g.OutDegree(hub) {
				hub = graph.VertexID(v)
			}
		}
		dangling := danglingSeed(t, g)
		seedSets := [][]graph.VertexID{
			{dangling},
			{pprSeeds(1, n)[0]},
			{hub},
			pprSeeds(2, n),
			{pprSeeds(3, n)[0], dangling},
			append(pprSeeds(4, n), hub),
		}
		for _, nodes := range []int{1, 2} {
			for _, threads := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("%s/%dnodes/%dthreads", gc.name, nodes, threads), func(t *testing.T) {
					o := testOptions(100)
					o.Machine = machine.WithNodes(o.Machine, nodes)
					o.PartitionBytes = 1 << 10
					o.Threads = threads
					prep, err := (bppr.Engine{}).Prepare(g, o)
					if err != nil {
						t.Fatal(err)
					}
					if P := prep.Partition().Hier.NumPartitions(); P < 2 {
						t.Fatalf("%d partitions, want several", P)
					}
					pushed := 0
					for _, seeds := range seedSets {
						pushed += checkSparseStartBitExact(t, prep, o, seeds)
					}
					if pushed < len(seedSets) {
						t.Fatalf("%d push iterations over %d queries; every query should push at least once", pushed, len(seedSets))
					}
				})
			}
		}
	}
}

// FuzzBPPRSparseStartBitExact is TestBPPRSparseStartBitExact over random
// small multi-partition graphs (64-vertex partitions, duplicate edges,
// dangling vertices) and seed sets of one to three vertices.
func FuzzBPPRSparseStartBitExact(f *testing.F) {
	f.Add(uint64(1), uint16(300), uint8(6), []byte{7, 0, 200, 1})
	f.Add(uint64(9), uint16(1000), uint8(12), []byte{0, 0})
	f.Add(uint64(42), uint16(130), uint8(2), []byte{1, 2, 3, 4, 5, 6})
	f.Fuzz(func(t *testing.T, graphSeed uint64, size uint16, degree uint8, seedBytes []byte) {
		n := 130 + int(size)%1200
		b := graph.NewBuilder(n)
		x := graphSeed
		next := func() uint64 {
			x = x*6364136223846793005 + 1442695040888963407
			return x >> 33
		}
		for v := 0; v < n; v++ {
			deg := int(next() % uint64(degree%16+1))
			for j := 0; j < deg; j++ {
				r := next() % uint64(n)
				b.AddEdge(graph.VertexID(v), graph.VertexID(r*r/uint64(n)))
			}
		}
		g := b.Build()
		var seeds []graph.VertexID
		for i := 0; i+1 < len(seedBytes) && len(seeds) < 3; i += 2 {
			v := graph.VertexID((int(seedBytes[i]) | int(seedBytes[i+1])<<8) % n)
			dup := false
			for _, s := range seeds {
				dup = dup || s == v
			}
			if !dup {
				seeds = append(seeds, v)
			}
		}
		if len(seeds) == 0 {
			seeds = []graph.VertexID{graph.VertexID(graphSeed % uint64(n))}
		}
		o := testOptions(100)
		o.Threads = 4
		prep, err := (bppr.Engine{}).Prepare(g, o)
		if err != nil {
			t.Fatal(err)
		}
		checkSparseStartBitExact(t, prep, o, seeds)
	})
}

// TestBPPRSparseStartCountsPushes: a seeded width-1 query on the
// journal-shaped fixture pushes at least one superstep, counted on the
// registry's push-iteration counter and in the batch result, and its
// push supersteps report their frontier as IterationStats.ActiveVertices
// (dense supersteps report every vertex); a uniform column pushes none and
// reports no frontier.
func TestBPPRSparseStartCountsPushes(t *testing.T) {
	g, err := gen.GenerateByName("journal", 1024)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(g.NumVertices())
	o := testOptions(100)
	o.Threads = 4
	prep, err := (bppr.Engine{}).Prepare(g, o)
	if err != nil {
		t.Fatal(err)
	}
	counter := obs.Default().Counter(bppr.MetricPushIterationsTotal, "engine", bppr.Name)
	for _, tc := range []struct {
		name  string
		seeds []graph.VertexID
	}{
		{"seeded", []graph.VertexID{graph.VertexID(n / 3)}},
		{"uniform", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			oo := o
			oo.Obs = &obs.Recorder{}
			before := counter.Value()
			br, err := bppr.ExecBatch(prep, oo, []bppr.Query{{Seeds: tc.seeds}})
			if err != nil {
				t.Fatal(err)
			}
			if got := counter.Value() - before; got != int64(br.PushIterations) {
				t.Fatalf("registry counted %d push iterations, the batch %d", got, br.PushIterations)
			}
			iters := oo.Obs.IterationStats()
			if len(iters) != br.Supersteps {
				t.Fatalf("%d iteration records for %d supersteps", len(iters), br.Supersteps)
			}
			sparse := 0
			for _, st := range iters {
				switch {
				case tc.seeds == nil && st.ActiveVertices != 0:
					t.Fatalf("uniform column reports %d active vertices at iteration %d", st.ActiveVertices, st.Iter)
				case tc.seeds != nil && (st.ActiveVertices < 1 || st.ActiveVertices > n):
					t.Fatalf("iteration %d reports %d active vertices of %d", st.Iter, st.ActiveVertices, n)
				case st.ActiveVertices > 0 && st.ActiveVertices < n:
					sparse++
				}
			}
			if sparse != br.PushIterations {
				t.Fatalf("%d iterations report a frontier, %d pushed", sparse, br.PushIterations)
			}
			if tc.seeds == nil && br.PushIterations != 0 {
				t.Fatalf("uniform column pushed %d iterations", br.PushIterations)
			}
			if tc.seeds != nil && br.PushIterations < 1 {
				t.Fatalf("seeded column pushed no iteration")
			}
			t.Logf("%d of %d supersteps pushed", br.PushIterations, br.Supersteps)
		})
	}
}
