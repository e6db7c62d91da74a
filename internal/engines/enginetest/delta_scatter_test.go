package enginetest

import (
	"fmt"
	"math"
	"testing"

	"hipa/internal/engines/common"
	"hipa/internal/engines/delta"
	"hipa/internal/gen"
	"hipa/internal/graph"
	"hipa/internal/layout/layouttest"
)

// refDelta is a serial Delta-PR in the form the engine had before its
// scatter learned to pull: each active partition pushes the non-zero sends
// of its vertices, in ascending source order, along their intra out-edges;
// every vertex then adds the non-zero sends of its inter in-neighbours in
// ascending source order (the order of its messages); then the gated delta
// recurrence runs partition by partition. It returns the ranks, the
// frontier report and the partition-iterations that scattered. A
// partition counts as pushing when its active out-edges, times 20, are
// fewer than its intra pull entries.
func refDelta(prep *common.Prepared, o common.Options) ([]float32, common.FrontierReport, int64) {
	g := prep.Graph()
	g.BuildIn()
	hier, lay, inv := prep.Partition().Hier, prep.Partition().Lay, prep.Partition().Inv
	n, P := g.NumVertices(), hier.NumPartitions()
	intraOut := layouttest.IntraOut(g, hier)
	d := float32(o.Damping)
	base := float32((1 - o.Damping) / float64(n))
	eps := float32(o.Tolerance / 16)

	ranks, acc, send := make([]float32, n), make([]float32, n), make([]float32, n)
	partRes := make([]float32, P)
	partDang := make([]float64, P)
	counts := make([]int32, P)
	edges := make([]int64, P)
	correct := true
	var activeVerts int64

	// gate regates vertex v of partition p on its new delta nd.
	gate := func(p, v int, nd float32) {
		ad := nd
		if ad < 0 {
			ad = -ad
		}
		if inv[v] == 0 {
			partDang[p] += float64(nd)
			send[v] = 0
			return
		}
		if ad > eps {
			send[v] = nd * inv[v]
			counts[p]++
			edges[p] += g.OutDegree(graph.VertexID(v))
		} else {
			send[v] = 0
		}
	}

	switch w := o.Warm; {
	case w == nil || w.Delta == nil:
		if w == nil {
			common.FillInitRanks(ranks)
		} else {
			copy(ranks, w.Ranks)
		}
		for p, part := range hier.Partitions {
			for v := int(part.VertexStart); v < int(part.VertexEnd); v++ {
				gate(p, v, ranks[v])
			}
			activeVerts += int64(counts[p])
		}
	default:
		copy(ranks, w.Ranks)
		dl := w.Delta
		var seed float64
		for _, u := range dl.Touched {
			wu := w.Ranks[u]
			newDeg, oldDeg := g.OutDegree(u), dl.Prev.OutDegree(u)
			if newDeg > 0 {
				c := float32(wu * inv[u])
				for _, v := range g.OutNeighbors(u) {
					acc[v] += c
				}
			}
			if oldDeg > 0 {
				c := float32(wu * float32(1.0/float64(oldDeg)))
				for _, v := range dl.Prev.OutNeighbors(u) {
					acc[v] -= c
				}
			}
			switch {
			case oldDeg > 0 && newDeg == 0:
				seed += float64(wu)
			case oldDeg == 0 && newDeg > 0:
				seed -= float64(wu)
			}
		}
		partDang[0] = seed
		correct = false
		for _, v := range dl.Perturbed {
			counts[hier.PartitionOfVertex(v)]++
		}
		activeVerts = int64(len(dl.Perturbed))
	}

	rep := common.FrontierReport{TotalPartitions: P, TotalVertices: int64(n)}
	var scattered int64
	for it := 0; it < o.Iterations; it++ {
		rep.IterationsExecuted++
		for p := range counts {
			if counts[p] > 0 {
				rep.ActivePartitionIterations++
			} else {
				rep.PartitionsSkipped++
			}
			if edges[p] > 0 {
				scattered++
				ip := &lay.IntraPull
				if edges[p]*20 < ip.Chunk[ip.Part[p+1]]-ip.Chunk[ip.Part[p]] {
					rep.PushPartitionIterations++
				}
			}
		}
		rep.ActiveVertexIterations += activeVerts

		// Scatter: the intra push of every active partition.
		for p, part := range hier.Partitions {
			if counts[p] == 0 {
				continue
			}
			for v := int(part.VertexStart); v < int(part.VertexEnd); v++ {
				if c := send[v]; c != 0 {
					for _, dst := range intraOut[v] {
						acc[dst] += c
					}
				}
			}
		}
		// Reduce: the dangling deltas in partition order.
		var sum float64
		for p := range partDang {
			sum += partDang[p]
		}
		redis := float32(o.Damping * sum / float64(n))
		// Gather: every message, then the recurrence.
		for v := 0; v < n; v++ {
			p := hier.PartitionOfVertex(graph.VertexID(v))
			for _, u := range g.InNeighbors(graph.VertexID(v)) {
				if hier.PartitionOfVertex(u) != p && send[u] != 0 {
					acc[v] += send[u]
				}
			}
		}
		first := it == 0 && correct
		activeVerts = 0
		var pending float64
		for p, part := range hier.Partitions {
			partDang[p], counts[p], edges[p] = 0, 0, 0
			var res float64
			for v := int(part.VertexStart); v < int(part.VertexEnd); v++ {
				nd := float32(d*acc[v]) + redis
				if first {
					nd += base - ranks[v]
				}
				acc[v] = 0
				ranks[v] += nd
				res = max(res, math.Abs(float64(nd)))
				gate(p, v, nd)
			}
			partRes[p] = float32(res)
			activeVerts += int64(counts[p])
			pending += partDang[p]
		}
		var res float64
		for _, r := range partRes {
			res = max(res, float64(r))
		}
		if activeVerts == 0 && pending == 0 || res < o.Tolerance {
			break
		}
	}
	return ranks, rep, scattered
}

// checkDeltaMatchesRef runs one Delta-PR Exec and fails unless its ranks,
// iteration count and frontier report are the serial reference's bit for
// bit. It returns the pushing and scattering partition-iterations and the
// ranks.
func checkDeltaMatchesRef(t *testing.T, name string, prep *common.Prepared, o common.Options) (pushed, scattered int64, ranks []float32) {
	t.Helper()
	res, err := (delta.Engine{}).Exec(prep, o)
	if err != nil {
		t.Fatal(err)
	}
	want, wantRep, scattered := refDelta(prep, o)
	if *res.Frontier != wantRep {
		t.Fatalf("%s: frontier report %+v, reference %+v", name, *res.Frontier, wantRep)
	}
	if res.Iterations != wantRep.IterationsExecuted {
		t.Fatalf("%s: %d iterations, reference %d", name, res.Iterations, wantRep.IterationsExecuted)
	}
	for v, r := range res.Ranks {
		if math.Float32bits(r) != math.Float32bits(want[v]) {
			t.Fatalf("%s: vertex %d rank %v (%#x), reference %v (%#x)", name, v, r, math.Float32bits(r), want[v], math.Float32bits(want[v]))
		}
	}
	return wantRep.PushPartitionIterations, scattered, res.Ranks
}

// deltaRefOptions are the options of the Delta-PR reference tests: 1 KB
// partitions and an explicit damping, tolerance and iteration cap.
func deltaRefOptions(threads int, tol float64) common.Options {
	o := testOptions(200)
	o.PartitionBytes = 1 << 10
	o.Threads = threads
	o.Damping = 0.85
	o.Tolerance = tol
	return o
}

// warmReplay applies batches mutation batches of size batchSize to g and
// runs Delta-PR cold on g, warm from the cold ranks, then warm with each
// batch's delta on the advanced artifact, checking every Exec against the
// reference. It returns each Exec's pushing and scattering
// partition-iterations.
func warmReplay(t *testing.T, g *graph.Graph, o common.Options, seed uint64, batches, batchSize int) [][2]int64 {
	t.Helper()
	var counts [][2]int64
	check := func(name string, prep *common.Prepared, o common.Options) []float32 {
		pushed, scattered, ranks := checkDeltaMatchesRef(t, name, prep, o)
		counts = append(counts, [2]int64{pushed, scattered})
		return ranks
	}
	prep, err := (delta.Engine{}).Prepare(g, o)
	if err != nil {
		t.Fatal(err)
	}
	ranks := check("cold", prep, o)
	od := o
	od.Warm = &common.WarmStart{Ranks: ranks}
	check("warm dense", prep, od)

	vg := graph.NewVersioned(g)
	stream, err := gen.NewMutationStream(vg, seed, batchSize)
	if err != nil {
		t.Fatal(err)
	}
	prev := vg.Version()
	_, versions, err := stream.Batches(batches)
	if err != nil {
		t.Fatal(err)
	}
	for i, ver := range versions {
		d, err := vg.DeltaBetween(prev, ver)
		if err != nil {
			t.Fatal(err)
		}
		if prep, err = prep.Advance(d, o); err != nil {
			t.Fatal(err)
		}
		ow := o
		ow.Warm = &common.WarmStart{Ranks: ranks, Delta: d}
		ranks, prev = check(fmt.Sprintf("warm delta %d", i), prep, ow), ver
	}
	return counts
}

// fanGraph is a skewed graph of parts 256-vertex partitions (1 KB at 4
// bytes a vertex) with no dangling vertex. In an even partition, 240 fan
// vertices without in-edges each send 12 intra-edges, some repeated, to
// the partition's last 16 vertices, the receivers; each receiver sends 4
// intra-edges to receivers, 3 edges into the odd partitions and one to
// the next partition's first vertex, just past the intra range. An odd
// partition's vertices each send 8 intra-edges, one edge to another odd
// partition and one to an even partition's receivers. A cold Delta-PR
// Exec pulls every partition first; from the second superstep the fans
// are quiet, and an even partition's receivers push, several of them
// into each receiver.
func fanGraph(parts int, seed uint64) *graph.Graph {
	const per, fans = 256, 240
	b := graph.NewBuilder(parts * per)
	x := seed*0x9E3779B97F4A7C15 + 1
	next := func(n int) int {
		x = x*6364136223846793005 + 1442695040888963407
		return int((x >> 33) % uint64(n))
	}
	odd := func() int { return (2*next(parts/2)+1)*per + next(per) }
	for p := 0; p < parts; p++ {
		lo := p * per
		for i := 0; i < per; i++ {
			v := graph.VertexID(lo + i)
			switch {
			case p%2 == 0 && i < fans:
				for j := 0; j < 12; j++ {
					b.AddEdge(v, graph.VertexID(lo+fans+next(per-fans)))
				}
			case p%2 == 0:
				for j := 0; j < 4; j++ {
					b.AddEdge(v, graph.VertexID(lo+fans+next(per-fans)))
				}
				for j := 0; j < 3; j++ {
					b.AddEdge(v, graph.VertexID(odd()))
				}
				if p+1 < parts {
					b.AddEdge(v, graph.VertexID(lo+per))
				}
			default:
				for j := 0; j < 8; j++ {
					b.AddEdge(v, graph.VertexID(lo+next(per)))
				}
				b.AddEdge(v, graph.VertexID(odd()))
				b.AddEdge(v, graph.VertexID(2*next(parts/2)*per+fans+next(per-fans)))
			}
		}
	}
	return b.Build()
}

// TestDeltaScatterBothDirectionsBitExact: Delta-PR, whose scatter pushes a
// partition's active sources over the out-CSR or pulls its intra-edges by
// their active out-edges, ranks bit for bit like the serial all-push
// reference, with the same iteration count and frontier report — cold,
// warm from converged ranks, and warm from graph deltas, at 1 and 8
// threads, on the fan graph and on a skewed 3,000-vertex graph with
// dangling vertices and repeated edges. The fan graph's cold Exec both
// pushes and pulls.
func TestDeltaScatterBothDirectionsBitExact(t *testing.T) {
	for _, gc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"fan", fanGraph(8, 1)},
		{"skewed", sparseStartGraph(3000, 1)},
	} {
		for _, threads := range []int{1, 8} {
			for _, tol := range []float64{1e-6, 1e-8} {
				t.Run(fmt.Sprintf("%s/%dthreads/tol%g", gc.name, threads, tol), func(t *testing.T) {
					counts := warmReplay(t, gc.g, deltaRefOptions(threads, tol), 42, 3, 8)
					t.Logf("pushed/scattered partition-iterations per Exec: %v", counts)
					if cold := counts[0]; gc.name == "fan" && (cold[0] == 0 || cold[0] == cold[1]) {
						t.Fatalf("the cold Exec pushed %d of %d scattering partition-iterations; want both directions", cold[0], cold[1])
					}
				})
			}
		}
	}
}

// FuzzDeltaScatterBitExact is TestDeltaScatterBothDirectionsBitExact over
// random small multi-partition graphs (duplicate edges, dangling vertices)
// and mutation batches.
func FuzzDeltaScatterBitExact(f *testing.F) {
	f.Add(uint64(1), uint16(300), uint8(6), uint64(7), uint8(16))
	f.Add(uint64(9), uint16(1000), uint8(12), uint64(3), uint8(64))
	f.Add(uint64(42), uint16(130), uint8(2), uint64(5), uint8(1))
	f.Fuzz(func(t *testing.T, graphSeed uint64, size uint16, degree uint8, mutSeed uint64, batch uint8) {
		n := 300 + int(size)%1500
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
		warmReplay(t, b.Build(), deltaRefOptions(4, 1e-7), mutSeed, 2, int(batch)%64+1)
	})
}
