package graph

import (
	"math/rand"
	"os"
	"testing"
)

// benchWorkerCounts are the parallelism settings every Prepare-stage bench
// compares; outputs are bit-identical across them, so the ratios are pure
// build speedup.
var benchWorkerCounts = []struct {
	name    string
	workers int
}{{"serial", 1}, {"workers8", 8}}

func benchEdges(n, m int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{VertexID(rng.Intn(n)), VertexID(rng.Intn(n))}
	}
	return edges
}

func benchGraph(n, m int) *Graph {
	b := NewBuilder(n)
	b.AddEdges(benchEdges(n, m, 42))
	return b.Build()
}

// BenchmarkPrepareBuildCSR measures CSR construction (AddEdges and
// Builder.Build: one source scatter, then per-row sorts) from a shuffled edge
// list.
func BenchmarkPrepareBuildCSR(b *testing.B) {
	const n, m = 1 << 17, 1 << 21
	edges := benchEdges(n, m, 42)
	for _, wc := range benchWorkerCounts {
		b.Run(wc.name, func(b *testing.B) {
			b.SetBytes(int64(m) * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bld := NewBuilder(n)
				bld.Parallelism = wc.workers
				bld.AddEdges(edges)
				bld.Build()
			}
		})
	}
}

// BenchmarkPrepareBuildIn measures CSC (in-edge) construction from the CSR.
func BenchmarkPrepareBuildIn(b *testing.B) {
	g := benchGraph(1<<17, 1<<21)
	for _, wc := range benchWorkerCounts {
		b.Run(wc.name, func(b *testing.B) {
			b.SetBytes(g.NumEdges() * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// buildCSC directly: BuildIn memoizes on the graph, which
				// would make every op after the first free.
				buildCSC(g.numVertices, g.outOffsets, g.outEdges, wc.workers)
			}
		})
	}
}

// BenchmarkPrepareFingerprint measures the chunked content hash of the CSR.
func BenchmarkPrepareFingerprint(b *testing.B) {
	g := benchGraph(1<<17, 1<<21)
	for _, wc := range benchWorkerCounts {
		b.Run(wc.name, func(b *testing.B) {
			b.SetBytes(g.NumEdges()*4 + int64(g.NumVertices()+1)*8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// fingerprintCSR directly: Fingerprint memoizes on the graph.
				fingerprintCSR(g.numVertices, g.numEdges, g.outOffsets, g.outEdges, wc.workers)
			}
		})
	}
}

// benchGraphFile writes a graph of the serve-read benchmark's shape (300,000
// vertices, 4,281,250 edges, out-edges only, as the program's own graph
// files are) to a temporary HGR1 file and returns its path and size.
func benchGraphFile(b *testing.B) (*Graph, string, int64) {
	b.Helper()
	g := benchGraph(300_000, 4_281_250)
	path := b.TempDir() + "/g.hgr"
	if err := SaveBinary(path, g); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	return g, path, st.Size()
}

// BenchmarkLoadBinary measures LoadBinary, reading and validating a whole
// HGR1 file; MB/s is of the file.
func BenchmarkLoadBinary(b *testing.B) {
	_, path, size := benchGraphFile(b)
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadBinary(path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSaveBinary measures SaveBinary writing the same file.
func BenchmarkSaveBinary(b *testing.B) {
	g, path, size := benchGraphFile(b)
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := SaveBinary(path, g); err != nil {
			b.Fatal(err)
		}
	}
}
