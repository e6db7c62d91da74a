package common

import (
	"math/rand/v2"
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
// the cost per decoded message destination.
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := 0; p < P; p++ {
			s.GatherPartition(p, 0)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(lay.MsgDst)), "ns/dst")
}
