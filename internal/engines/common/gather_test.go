package common

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"hipa/internal/gen"
	"hipa/internal/graph"
	"hipa/internal/layout"
	"hipa/internal/partition"
)

// TestGatherBlockMatchesMessageLoop: the flat, unrolled decode performs the
// same float32 adds in the same order as a per-message loop, for streams of
// every length around the unroll width, repeated destinations included.
func TestGatherBlockMatchesMessageLoop(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 0))
	const n = 8
	for length := 1; length <= 13; length++ {
		for trial := 0; trial < 20; trial++ {
			// Random message boundaries; the first destination always opens
			// a message.
			var msgs [][]graph.VertexID
			for i := 0; i < length; i++ {
				if i == 0 || rng.IntN(3) == 0 {
					msgs = append(msgs, nil)
				}
				msgs[len(msgs)-1] = append(msgs[len(msgs)-1], graph.VertexID(rng.IntN(n)))
			}
			var dst []graph.VertexID
			bins := make([]float32, len(msgs))
			for k, m := range msgs {
				bins[k] = rng.Float32()
				dst = append(dst, m[0]|layout.FirstDst)
				dst = append(dst, m[1:]...)
			}
			want := make([]float32, n)
			for k, m := range msgs {
				for _, d := range m {
					want[d] += bins[k]
				}
			}
			got := make([]float32, n)
			gatherBlock(got, bins, dst)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("length %d trial %d: acc[%d] = %v, want %v", length, trial, v, got[v], want[v])
				}
			}
		}
	}
}

// BenchmarkGatherPartition times one thread's gather phase over every
// partition of a small R-MAT graph split into 16 partitions, and reports
// the cost per decoded message destination and per rank-updated vertex,
// once per kernel set.
func BenchmarkGatherPartition(b *testing.B) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 15, EdgeFactor: 16, A: 0.57, B: 0.19, C: 0.19, D: 0.05, Seed: 1, Noise: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	hier, err := partition.Build(g, partition.Config{PartitionBytes: 8 << 10, BytesPerVertex: 4, NumNodes: 1, GroupsPerNode: 1})
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
	eachKernel(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for p := 0; p < P; p++ {
				s.GatherPartition(p, 0)
			}
		}
		per := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(per/float64(len(lay.MsgDst)), "ns/dst")
		b.ReportMetric(per/float64(g.NumVertices()), "ns/vertex")
	})
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
		b.ReportMetric(100*float64(lay.PullPadding())/float64(lay.IntraEdges), "pad_pct")
	})
}

// TestMaxAbsDiff4MatchesScalar: the branch-free four-lane fold returns what
// the scalar compare-and-negate fold returns, on random values and on the
// special ones — signed zeros, subnormals, infinities and NaN, which both
// folds skip.
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
		got := maxAbsDiff4(res, p[0], p[1], p[2], p[3], p[4], p[5], p[6], p[7])
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("maxAbsDiff4(%v, %v) = %v, scalar fold %v", res, p, got, want)
		}
	}
}

// TestIntraPullMatchesPush: one dense pinned scatter, with the node's
// intra pull split over its threads, leaves Acc bitwise equal to a serial
// push over IntraOff/IntraDst. The graph has several partitions and intra
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
		in := make([]int, n)
		for _, d := range lay.IntraDst {
			in[d]++
		}
		if hub := slices.Max(in); hub < 1000 {
			t.Fatalf("largest intra in-degree %d, want an intra hub of at least 1000", hub)
		}

		want := make([]float32, n)
		for v := 0; v < n; v++ {
			c := warm[v] * inv[v]
			for _, d := range lay.IntraDst[lay.IntraOff[v]:lay.IntraOff[v+1]] {
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
