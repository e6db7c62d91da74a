package common

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"hipa/internal/gen"
	"hipa/internal/graph"
	"hipa/internal/layout"
	"hipa/internal/layout/layouttest"
	"hipa/internal/partition"
)

// pushGather is the paper's gather, decoded from the graph rather than the
// layout: for each destination partition q, block by block in DstBlocks
// order, message by message, it adds the message's bin to each of its
// destinations in adjacency order. Message m of block p->q is the m-th
// group of p's inter-edges into q in source order, one per (source, q) run
// when compressed and one per edge when not — the build's grouping.
func pushGather(g *graph.Graph, h *partition.Hierarchy, lay *layout.Layout, bins, acc []float32) {
	per, P := h.VerticesPerPartition, lay.NumPartitions
	next := make(map[[2]int]int64)
	for _, b := range lay.Blocks {
		next[[2]int{int(b.SrcPart), int(b.DstPart)}] = b.MsgStart
	}
	// dsts[m] lists message m's destinations.
	dsts := make([][]graph.VertexID, lay.NumMessages())
	for u := 0; u < g.NumVertices(); u++ {
		p, lastQ := u/per, -1
		var m int64
		for _, d := range g.OutNeighbors(graph.VertexID(u)) {
			q := int(d) / per
			if q == p {
				continue
			}
			if !lay.Compressed || q != lastQ {
				m = next[[2]int{p, q}]
				next[[2]int{p, q}]++
				lastQ = q
			}
			dsts[m] = append(dsts[m], d)
		}
	}
	for q := 0; q < P; q++ {
		for _, bi := range lay.DstBlocks[q] {
			b := lay.Blocks[bi]
			for m := b.MsgStart; m < b.MsgEnd; m++ {
				for _, d := range dsts[m] {
					acc[d] += bins[m]
				}
			}
		}
	}
}

// TestInterPullMatchesPush: the gather's inter pull leaves every
// accumulator bitwise equal to the paper's push decode of the same bins
// into the same intra sums, with both kernel sets, compressed and
// uncompressed. The R-MAT graph keeps its duplicate edges, which repeat a
// message in a row, and its hubs collect thousands of messages, where any
// change to a destination's add order shows in the float32 sums.
func TestInterPullMatchesPush(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 13, EdgeFactor: 16, A: 0.57, B: 0.19, C: 0.19, D: 0.05, Seed: 3, Noise: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	dup := false
	for v := 0; v < n && !dup; v++ {
		row := g.OutNeighbors(graph.VertexID(v))
		for i := 1; i < len(row); i++ {
			dup = dup || row[i] == row[i-1]
		}
	}
	if !dup {
		t.Fatal("fixture: the graph has no duplicate edge")
	}
	hier, err := partition.Build(g, partition.Config{PartitionBytes: 4 << 10, BytesPerVertex: 4, NumNodes: 2, GroupsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(13, 0))
	for _, compress := range []bool{true, false} {
		lay, err := layout.Build(g, hier, compress)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]int, n)
		for c := 0; c+1 < len(lay.InterPull.Chunk); c++ {
			if v := lay.InterPull.Lanes(c)[0]; int(v) < n {
				rows[v] = int(lay.InterPull.Chunk[c+1]-lay.InterPull.Chunk[c]) / layout.PullLanes
			}
		}
		if hub := slices.Max(rows); hub < 1000 {
			t.Fatalf("compress=%v: longest inter pull row %d, want a hub of at least 1000 messages", compress, hub)
		}
		for _, avx2 := range []bool{false, true} {
			t.Run(fmt.Sprintf("compress=%v/avx2=%v", compress, avx2), func(t *testing.T) {
				if avx2 {
					needAVX2(t)
				}
				s := NewSGState(g, hier, lay, 0.85, 1)
				for i := range s.Acc {
					s.Acc[i] = rng.Float32() * 1e-3
				}
				for m := range s.Bins[:lay.NumMessages()] {
					s.Bins[m] = rng.Float32() * 1e-4
				}
				want := slices.Clone(s.Acc)
				pushGather(g, hier, lay, s.Bins, want)
				withKernels(avx2, func() {
					for p := 0; p < hier.NumPartitions(); p++ {
						clo, chi := lay.InterPull.Chunks(p)
						AddSELL(&lay.InterPull, s.Bins, s.Acc, clo, chi)
					}
				})
				for v := range want {
					if math.Float32bits(s.Acc[v]) != math.Float32bits(want[v]) {
						t.Fatalf("Acc[%d] = %v, push %v", v, s.Acc[v], want[v])
					}
				}
			})
		}
	}
}

// BenchmarkGatherPartition times one thread's gather phase over every
// partition of an R-MAT graph, and reports, once per kernel set, the cost
// per inter pull entry (ns/entry, padding counted), per rank-updated
// vertex, the pull's padding entries as a percentage of its inter-edges
// (pad_pct), and the bytes of index stream per entry (stream_B/entry). Two
// shapes: "l2", scale 15 in 8 KB partitions, whose pull stays in the
// private caches, and "stream", scale 19 with 31 edges per vertex in 256 KB
// partitions (8 of them, rank-large's partition size), whose 60 MB or more
// of pull streams from memory.
func BenchmarkGatherPartition(b *testing.B) {
	for _, c := range []struct {
		name                  string
		scale, factor, pbytes int
	}{{"l2", 15, 16, 8 << 10}, {"stream", 19, 31, 256 << 10}} {
		b.Run(c.name, func(b *testing.B) {
			g, err := gen.RMAT(gen.RMATConfig{Scale: c.scale, EdgeFactor: c.factor, A: 0.57, B: 0.19, C: 0.19, D: 0.05, Seed: 1, Noise: 0.05})
			if err != nil {
				b.Fatal(err)
			}
			hier, err := partition.Build(g, partition.Config{PartitionBytes: c.pbytes, BytesPerVertex: 4, NumNodes: 1, GroupsPerNode: 1})
			if err != nil {
				b.Fatal(err)
			}
			lay, err := layout.Build(g, hier, true)
			if err != nil {
				b.Fatal(err)
			}
			s := NewSGState(g, hier, lay, 0.85, 1)
			P := hier.NumPartitions()
			for p := 0; p < P; p++ {
				s.ScatterPartition(p, 0)
			}
			st := lay.InterPullStats()
			entries := float64(st.Entries + st.Padding)
			eachKernel(b, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for p := 0; p < P; p++ {
						s.GatherPartition(p, 0)
					}
				}
				per := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				b.ReportMetric(per/entries, "ns/entry")
				b.ReportMetric(per/float64(g.NumVertices()), "ns/vertex")
				b.ReportMetric(100*st.PadShare, "pad_pct")
				b.ReportMetric(float64(st.IndexBytes)/entries, "stream_B/entry")
			})
		})
	}
}

// BenchmarkScatterPartition times one thread's dense scatter — the intra
// pull plus the message bins — over every partition of a journal-shaped
// power-law graph of 18,750 vertices, one 256 KB partition as in the
// rank-small benchmark. It reports, once per kernel set, the cost per real
// edge, padding not counted, and the pull's padding entries as a
// percentage of its intra edges (pad_pct).
func BenchmarkScatterPartition(b *testing.B) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Vertices: 18750, Edges: 267578, OutAlpha: 2.3, InAlpha: 0.9, Seed: 1, HotShuffle: true})
	if err != nil {
		b.Fatal(err)
	}
	hier, err := partition.Build(g, partition.Config{PartitionBytes: 256 << 10, BytesPerVertex: 4, NumNodes: 1, GroupsPerNode: 1})
	if err != nil {
		b.Fatal(err)
	}
	lay, err := layout.Build(g, hier, true)
	if err != nil {
		b.Fatal(err)
	}
	s := NewSGState(g, hier, lay, 0.85, 1)
	P := hier.NumPartitions()
	eachKernel(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for p := 0; p < P; p++ {
				s.ScatterPartition(p, 0)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.NumEdges()), "ns/edge")
		b.ReportMetric(100*lay.IntraPullStats().PadShare, "pad_pct")
	})
}

// TestMaxAbsDiff4MatchesScalar: the branch-free fold, applied to four
// vertices as the unrolled rank update applies it, returns what the scalar
// compare-and-negate fold returns, on random values and on the special
// ones — signed zeros, subnormals, infinities and NaN, which both folds
// skip.
func TestMaxAbsDiff4MatchesScalar(t *testing.T) {
	scalar := func(res float64, pairs [8]float32) float64 {
		for i := 0; i < 8; i += 2 {
			d := float64(pairs[i] - pairs[i+1])
			if d < 0 {
				d = -d
			}
			if d > res {
				res = d
			}
		}
		return res
	}
	special := []float32{
		0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-39, -1e-39,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		1, -1, math.MaxFloat32, -math.MaxFloat32,
	}
	rng := rand.New(rand.NewPCG(5, 0))
	draw := func() float32 {
		if rng.IntN(4) == 0 {
			return special[rng.IntN(len(special))]
		}
		return (rng.Float32() - 0.5) * float32(math.Pow(10, float64(rng.IntN(12)-8)))
	}
	for trial := 0; trial < 20000; trial++ {
		var p [8]float32
		for i := range p {
			p[i] = draw()
		}
		res := []float64{0, 1e-6, math.Inf(1)}[rng.IntN(3)]
		want := scalar(res, p)
		got := maxAbsDiff(maxAbsDiff(maxAbsDiff(maxAbsDiff(res, p[0], p[1]), p[2], p[3]), p[4], p[5]), p[6], p[7])
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("maxAbsDiff folds (%v, %v) = %v, scalar fold %v", res, p, got, want)
		}
	}
}

// TestIntraPullMatchesPush: one dense pinned scatter, with the node's
// intra pull split over its threads, leaves Acc bitwise equal to a serial
// push over the intra out-neighbours (layouttest.IntraOut). The graph has several partitions and intra
// hubs of in-degree ≥ 1000, where any change to a destination's add order
// shows in the float32 sums.
func TestIntraPullMatchesPush(t *testing.T) {
	// 16,384 vertices in four 16 KB partitions; the low-ID R-MAT hubs
	// collect thousands of intra in-edges.
	g, err := gen.RMAT(gen.RMATConfig{Scale: 14, EdgeFactor: 16, A: 0.57, B: 0.19, C: 0.19, D: 0.05, Seed: 7, Noise: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	inv := InvOutDegrees(g)
	rng := rand.New(rand.NewPCG(11, 0))
	warm := make([]float32, n)
	for v := range warm {
		warm[v] = rng.Float32() / float32(n)
	}
	for _, threads := range []int{2, 8, 40} {
		hier, err := partition.Build(g, partition.Config{PartitionBytes: 16 << 10, BytesPerVertex: 4, NumNodes: 2, GroupsPerNode: threads / 2})
		if err != nil {
			t.Fatal(err)
		}
		lay, err := layout.Build(g, hier, true)
		if err != nil {
			t.Fatal(err)
		}
		if hier.NumPartitions() < 2 {
			t.Fatalf("%d partitions, want several", hier.NumPartitions())
		}
		intraOut := layouttest.IntraOut(g, hier)
		in := make([]int, n)
		for _, dsts := range intraOut {
			for _, d := range dsts {
				in[d]++
			}
		}
		if hub := slices.Max(in); hub < 1000 {
			t.Fatalf("largest intra in-degree %d, want an intra hub of at least 1000", hub)
		}

		want := make([]float32, n)
		for v, dsts := range intraOut {
			c := warm[v] * inv[v]
			for _, d := range dsts {
				want[d] += c
			}
		}
		for _, procs := range []int{1, 2} {
			s := NewSGState(g, hier, lay, 0.85, threads)
			s.SetRanks(warm)
			k := PinnedKernels(s, hier.Groups)
			l := NewSuperstepLoop(SuperstepConfig{Threads: threads, Parallelism: procs}, k)
			l.runPhase(SpanScatter, 0, k.Scatter)
			l.Close()
			for v := range want {
				if math.Float32bits(s.Acc[v]) != math.Float32bits(want[v]) {
					t.Fatalf("threads %d procs %d: Acc[%d] = %v, push %v", threads, procs, v, s.Acc[v], want[v])
				}
			}
		}
	}
}
