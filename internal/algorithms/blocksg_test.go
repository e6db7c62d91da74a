package algorithms

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"hipa/internal/engines/common"
	"hipa/internal/execbuf"
	"hipa/internal/gen"
	"hipa/internal/graph"
	"hipa/internal/layout"
	"hipa/internal/layout/layouttest"
	"hipa/internal/partition"
)

// TestBlockPullMatchesPush: one dense pinned scatter of the blocked kernel,
// with each node's intra pull split over its threads, leaves every active
// column of acc bitwise equal to a serial push over the intra
// out-neighbours (layouttest.IntraOut), and leaves the retired columns'
// entries untouched. The graph has several partitions and intra hubs of
// in-degree ≥ 1000, where any change to a destination's add order shows
// in the float32 sums.
func TestBlockPullMatchesPush(t *testing.T) {
	// 16,384 vertices in four 16 KB partitions; the low-ID R-MAT hubs
	// collect thousands of intra in-edges.
	g, err := gen.RMAT(gen.RMATConfig{Scale: 14, EdgeFactor: 16, A: 0.57, B: 0.19, C: 0.19, D: 0.05, Seed: 7, Noise: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	inv := common.InvOutDegrees(g)
	for _, tc := range []struct {
		b    int
		cols []int32 // active columns; the rest are retired
	}{
		{1, []int32{0}},
		{5, []int32{0, 2, 4}},
		{64, []int32{0, 5, 31, 63}}, // tiles of 8 steps: many tile and lane ends
	} {
		rng := rand.New(rand.NewPCG(11, uint64(tc.b)))
		ranks := make([]float32, n*tc.b)
		for i := range ranks {
			ranks[i] = rng.Float32() / float32(n)
		}
		want := make([]float32, n*tc.b)
		sentinel := float32(math.NaN())
		for _, threads := range []int{2, 4, 40} {
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
			clear(want)
			for v, dsts := range intraOut {
				for _, d := range dsts {
					for _, j := range tc.cols {
						want[int(d)*tc.b+int(j)] += ranks[v*tc.b+int(j)] * inv[v]
					}
				}
			}
			for _, procs := range []int{1, 2} {
				s, err := NewBlockSG(g, hier, lay, inv, 0.85, 0, threads, make([][]graph.VertexID, tc.b), nil)
				if err != nil {
					t.Fatal(err)
				}
				copy(s.ranksCur, ranks)
				for i := range ranks {
					s.contrib[i] = ranks[i] * inv[i/tc.b]
				}
				for i := range s.acc {
					s.acc[i] = sentinel
				}
				s.cols = append(s.cols[:0], tc.cols...)
				k := s.PinnedKernels(hier.Groups)
				common.RunSupersteps(common.SuperstepConfig{Threads: threads, Parallelism: procs, Iterations: 1},
					common.PhaseKernels{Scatter: k.Scatter})
				for v := 0; v < n; v++ {
					for j := 0; j < tc.b; j++ {
						got := math.Float32bits(s.acc[v*tc.b+j])
						if !slices.Contains(tc.cols, int32(j)) {
							if got != math.Float32bits(sentinel) {
								t.Fatalf("B=%d threads %d procs %d: retired acc[%d·B+%d] written", tc.b, threads, procs, v, j)
							}
							continue
						}
						if got != math.Float32bits(want[v*tc.b+j]) {
							t.Fatalf("B=%d threads %d procs %d: acc[%d·B+%d] = %v, push %v",
								tc.b, threads, procs, v, j, s.acc[v*tc.b+j], want[v*tc.b+j])
						}
					}
				}
			}
		}
	}
}

// TestBlockSGZeroSlotOnReusedArena: contribution row n, the +0 the pull's
// padding entries add, is +0 before the first pull even on an arena whose
// contribution block a wider batch left full of ranks, and the ranks then
// equal those of a fresh arena bit for bit. At B=1 on an arena last used at
// B=4, index n of the block holds column n%4 of vertex n/4.
func TestBlockSGZeroSlotOnReusedArena(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Vertices: 3001, Edges: 40000, OutAlpha: 2.1, InAlpha: 0.9, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	hier, err := partition.Build(g, partition.Config{PartitionBytes: 4 << 10, BytesPerVertex: 4, NumNodes: 2, GroupsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	lay, err := layout.Build(g, hier, true)
	if err != nil {
		t.Fatal(err)
	}
	if lay.IntraPullStats().Padding == 0 {
		t.Fatal("fixture layout has no pull padding")
	}
	inv := common.InvOutDegrees(g)
	// run ranks b uniform columns for 10 iterations on arena a and returns
	// the state after checking that row n started at +0.
	run := func(b int, a *execbuf.Arena) *BlockSG {
		s, err := NewBlockSG(g, hier, lay, inv, 0.85, 0, len(hier.Groups), make([][]graph.VertexID, b), a)
		if err != nil {
			t.Fatal(err)
		}
		for j, c := range s.contrib[n*b : (n+1)*b] {
			if math.Float32bits(c) != 0 {
				t.Fatalf("B=%d: contribution row n column %d = %v before the first pull, want +0", b, j, c)
			}
		}
		common.RunSupersteps(common.SuperstepConfig{Threads: len(hier.Groups), Parallelism: 1, Iterations: 10}, s.PinnedKernels(hier.Groups))
		return s
	}
	arena := &execbuf.Arena{}
	if wide := run(4, arena); math.Float32bits(wide.contrib[n]) == 0 {
		t.Fatal("the B=4 run left +0 at index n; the reuse would not show a stale slot")
	}
	got, want := make([]float32, n), make([]float32, n)
	run(1, arena).CopyColumn(0, got)
	run(1, nil).CopyColumn(0, want)
	for v := range want {
		if math.Float32bits(got[v]) != math.Float32bits(want[v]) {
			t.Fatalf("vertex %d: rank %v on the reused arena, %v on a fresh one", v, got[v], want[v])
		}
	}
}

// BenchmarkBlockScatter times one thread's dense scatter of the blocked
// kernel — the intra pull over the whole graph — at widths 1 and 8 on a
// journal-shaped power-law graph of 18,750 vertices, one 256 KB partition as
// in the rank-small benchmark. It reports the cost per real edge, padding
// not counted, and the pull's padding entries as a percentage of its intra
// edges (pad_pct).
func BenchmarkBlockScatter(b *testing.B) {
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
	inv := common.InvOutDegrees(g)
	for _, width := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("B=%d", width), func(b *testing.B) {
			s, err := NewBlockSG(g, hier, lay, inv, 0.85, 0, 1, make([][]graph.VertexID, width), nil)
			if err != nil {
				b.Fatal(err)
			}
			k := s.PinnedKernels(hier.Groups)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Scatter(0)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.NumEdges()), "ns/edge")
			b.ReportMetric(100*lay.IntraPullStats().PadShare, "pad_pct")
		})
	}
}
