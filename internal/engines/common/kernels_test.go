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
	"hipa/internal/partition"
)

// withKernels runs f with the given kernel set active and restores the
// process's own set afterwards.
func withKernels(avx2 bool, f func()) {
	defer func(active bool) { useAVX2 = active }(useAVX2)
	useAVX2 = avx2
	f()
}

// eachKernel runs bench once per kernel set, as the sub-benchmarks
// kernel=scalar and kernel=avx2; the second skips where AVX2 is missing.
func eachKernel(b *testing.B, bench func(b *testing.B)) {
	defer func(active bool) { useAVX2 = active }(useAVX2)
	for _, avx2 := range []bool{false, true} {
		useAVX2 = avx2
		b.Run("kernel="+KernelSet(), func(b *testing.B) {
			if avx2 && !hasAVX2 {
				b.Skip("AVX2 kernels not available on this host or build")
			}
			bench(b)
		})
	}
}

// needAVX2 skips a test that compares the AVX2 kernels with the scalar
// ones on a host or build without them.
func needAVX2(t *testing.T) {
	t.Helper()
	if !hasAVX2 {
		t.Skip("AVX2 kernels not available (no AVX2, no OS YMM support, non-amd64 or -tags purego); nothing to compare")
	}
}

// randomSELL builds SELL-8 pull arrays over n vertices, cut into a few
// partitions of random size. Each partition's vertices fill its chunks'
// lanes in random order, and its last chunk is padded with sink lanes when
// its size is not a multiple of 8. Rows are random ascending sources: about
// a fifth of them empty, one a hub of 1000–1500 entries. Each chunk is as
// wide as its longest lane, the rest of a lane being sink entries.
func randomSELL(rng *rand.Rand, n int) *layout.Layout {
	const lanes = layout.PullLanes
	sink := graph.VertexID(n)
	rows := make([][]graph.VertexID, n)
	hub := rng.IntN(n)
	for v := range rows {
		deg := 0
		switch {
		case v == hub:
			deg = 1000 + rng.IntN(501)
		case rng.IntN(5) > 0:
			deg = 1 + rng.IntN(24)
		}
		for range deg {
			rows[v] = append(rows[v], graph.VertexID(rng.IntN(n)))
		}
		slices.Sort(rows[v])
	}
	order := rng.Perm(n)
	lay := &layout.Layout{PullChunk: []int64{0}}
	for lo := 0; lo < n; {
		hi := min(n, lo+1+rng.IntN(n/2))
		for c := lo; c < hi; c += lanes {
			var perm [lanes]graph.VertexID
			width := 0
			for i := range perm {
				perm[i] = sink
				if c+i < hi {
					perm[i] = graph.VertexID(order[c+i])
					width = max(width, len(rows[perm[i]]))
				}
			}
			base := len(lay.PullIdx)
			lay.PullIdx = append(lay.PullIdx, make([]graph.VertexID, lanes*width)...)
			for i, v := range perm {
				for k := range width {
					u := sink
					if v != sink && k < len(rows[v]) {
						u = rows[v][k]
					}
					lay.PullIdx[base+k*lanes+i] = u
				}
			}
			lay.PullPerm = append(lay.PullPerm, perm[:]...)
			lay.PullChunk = append(lay.PullChunk, int64(len(lay.PullIdx)))
		}
		lo = hi
	}
	return lay
}

// randomContrib returns n+1 contributions, the last the sink's +0: mostly
// small positives, with zeros, subnormals, large values and +Inf mixed in.
func randomContrib(rng *rand.Rand, n int) []float32 {
	special := []float32{0, math.SmallestNonzeroFloat32, 1e-39, 1, math.MaxFloat32 / 4, float32(math.Inf(1))}
	contrib := make([]float32, n+1)
	for v := 0; v < n; v++ {
		if rng.IntN(16) == 0 {
			contrib[v] = special[rng.IntN(len(special))]
		} else {
			contrib[v] = rng.Float32() * 1e-3
		}
	}
	return contrib
}

// pullBoth runs PullSELL over [clo,chi) with each kernel set on a copy of
// acc and fails unless the two results are bitwise equal.
func pullBoth(t *testing.T, what string, lay *layout.Layout, contrib, acc []float32, clo, chi int) {
	t.Helper()
	want, got := slices.Clone(acc), slices.Clone(acc)
	withKernels(false, func() { PullSELL(lay, contrib, want, clo, chi) })
	withKernels(true, func() { PullSELL(lay, contrib, got, clo, chi) })
	for v := range want {
		if math.Float32bits(got[v]) != math.Float32bits(want[v]) {
			t.Fatalf("%s, chunks [%d,%d): acc[%d] = %v (avx2), %v (scalar)", what, clo, chi, v, got[v], want[v])
		}
	}
}

// TestPullKernelsMatch: the AVX2 pull stores, lane for lane, the bits the
// scalar pull stores. The layouts are random SELL-8 arrays with padded
// last chunks, empty rows and a hub row of at least 1000 entries, pulled
// whole and over random chunk ranges; and a built layout over two nodes,
// pulled in the per-thread slices PullSlices cuts, which start and end
// inside a node.
func TestPullKernelsMatch(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewPCG(23, 0))
	for trial := 0; trial < 40; trial++ {
		n := 9 + rng.IntN(600)
		lay := randomSELL(rng, n)
		contrib := randomContrib(rng, n)
		acc := make([]float32, n)
		for v := range acc {
			acc[v] = -1 // unstored lanes must keep it on both paths
		}
		chunks := len(lay.PullChunk) - 1
		what := fmt.Sprintf("trial %d (%d vertices, %d chunks)", trial, n, chunks)
		pullBoth(t, what, lay, contrib, acc, 0, chunks)
		for range 8 {
			clo := rng.IntN(chunks + 1)
			pullBoth(t, what, lay, contrib, acc, clo, clo+rng.IntN(chunks-clo+1))
		}
	}

	// A built layout: 6,003 vertices (not a multiple of 8) in 8 KB
	// partitions over two nodes.
	g, err := gen.PowerLaw(gen.PowerLawConfig{Vertices: 6003, Edges: 90000, OutAlpha: 2.3, InAlpha: 1.3, Seed: 5, HotShuffle: true})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	contrib := randomContrib(rng, n)
	for _, threads := range []int{2, 6, 40} {
		hier, err := partition.Build(g, partition.Config{PartitionBytes: 8 << 10, BytesPerVertex: 4, NumNodes: 2, GroupsPerNode: threads / 2})
		if err != nil {
			t.Fatal(err)
		}
		lay, err := layout.Build(g, hier, true)
		if err != nil {
			t.Fatal(err)
		}
		cuts := PullSlices(lay, hier, hier.Groups, make([]int32, 2*len(hier.Groups)))
		acc := make([]float32, n)
		for tid := range hier.Groups {
			pullBoth(t, fmt.Sprintf("threads %d, thread %d", threads, tid), lay, contrib, acc, int(cuts[2*tid]), int(cuts[2*tid+1]))
		}
	}
}

// TestRankUpdateKernelsMatch: the AVX2 rank update writes the scalar
// loop's ranks and contributions bit for bit and returns the same residual
// and dangling sum, over every length from 0 to 33 — so every split
// between the vector body and the scalar tail — with signed zeros,
// subnormals, infinities and NaN in the old ranks and the accumulators,
// and a dangling vertex in every lane position.
func TestRankUpdateKernelsMatch(t *testing.T) {
	needAVX2(t)
	special := []float32{
		0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-39, -1e-39,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		1, -1, math.MaxFloat32, -math.MaxFloat32,
	}
	rng := rand.New(rand.NewPCG(29, 0))
	draw := func() float32 {
		if rng.IntN(4) == 0 {
			return special[rng.IntN(len(special))]
		}
		return rng.Float32() * 1e-4
	}
	for length := 0; length <= 33; length++ {
		// Dangling patterns: none, all, every lane position in turn, random
		// ones, and all with accumulators whose ranks cancel, so the
		// dangling sum depends on the order of its adds.
		for pattern := 0; pattern < 15; pattern++ {
			ranks, acc, inv := make([]float32, length), make([]float32, length), make([]float32, length)
			for i := range ranks {
				ranks[i], acc[i] = draw(), draw()
				inv[i] = 1 / float32(1+rng.IntN(9))
				switch {
				case pattern == 1,
					pattern >= 2 && pattern < 10 && i%8 == pattern-2,
					pattern >= 10 && pattern < 14 && rng.IntN(3) == 0:
					inv[i] = 0
				case pattern == 14:
					acc[i] = []float32{math.MaxFloat32, 1, -math.MaxFloat32, 1}[i%4]
					inv[i] = 0
				}
			}
			d, base, redis := float32(0.85), draw(), rng.Float32()*1e-5
			res := []float64{0, 1e-6, math.Inf(1)}[rng.IntN(3)]
			type out struct {
				ranks, contrib []float32
				res, dangling  float64
			}
			run := func(avx2 bool) (o out) {
				o.ranks, o.contrib = slices.Clone(ranks), make([]float32, length)
				withKernels(avx2, func() {
					o.res, o.dangling = updateRanks(o.ranks, o.contrib, acc, inv, d, base, redis, res)
				})
				return o
			}
			want, got := run(false), run(true)
			what := fmt.Sprintf("length %d pattern %d", length, pattern)
			for i := range want.ranks {
				if math.Float32bits(got.ranks[i]) != math.Float32bits(want.ranks[i]) ||
					math.Float32bits(got.contrib[i]) != math.Float32bits(want.contrib[i]) {
					t.Fatalf("%s: vertex %d: rank %v contrib %v (avx2), rank %v contrib %v (scalar)",
						what, i, got.ranks[i], got.contrib[i], want.ranks[i], want.contrib[i])
				}
			}
			if math.Float64bits(got.res) != math.Float64bits(want.res) {
				t.Fatalf("%s: residual %v (avx2), %v (scalar)", what, got.res, want.res)
			}
			if math.Float64bits(got.dangling) != math.Float64bits(want.dangling) {
				t.Fatalf("%s: dangling %v (avx2), %v (scalar)", what, got.dangling, want.dangling)
			}
		}
	}
}

// TestCorruptPullPanics: a pull index past the sink, a lane past the sink
// and a chunk offset past the entries each make the pull panic, as a bounds
// check does, on the scalar path and on the AVX2 path; the AVX2 kernel
// clamps what it reads and skips what it cannot store, and its wrapper
// panics on what the kernel reports.
func TestCorruptPullPanics(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 0))
	const n = 100
	clean := randomSELL(rng, n)
	contrib := randomContrib(rng, n)
	chunks := len(clean.PullChunk) - 1
	corruptions := []struct {
		name   string
		modify func(l *layout.Layout)
	}{
		{"index past the sink", func(l *layout.Layout) { l.PullIdx[len(l.PullIdx)/2] = n + 1 }},
		{"index near 2^32", func(l *layout.Layout) { l.PullIdx[len(l.PullIdx)/3] = math.MaxUint32 - 3 }},
		{"lane past the sink", func(l *layout.Layout) { l.PullPerm[layout.PullLanes+3] = n + 2 }},
		{"chunk offset past the entries", func(l *layout.Layout) { l.PullChunk[chunks/2] = int64(len(l.PullIdx)) + 8 }},
	}
	for _, avx2 := range []bool{false, true} {
		name := "scalar"
		if avx2 {
			name = "avx2"
		}
		t.Run(name, func(t *testing.T) {
			if avx2 {
				needAVX2(t)
			}
			for _, c := range corruptions {
				lay := &layout.Layout{
					PullChunk: slices.Clip(slices.Clone(clean.PullChunk)),
					PullPerm:  slices.Clip(slices.Clone(clean.PullPerm)),
					PullIdx:   slices.Clip(slices.Clone(clean.PullIdx)),
				}
				c.modify(lay)
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s: the pull did not panic", c.name)
						}
					}()
					withKernels(avx2, func() { PullSELL(lay, contrib, make([]float32, n), 0, chunks) })
				}()
			}
		})
	}
}

// BenchmarkUpdateRanks times the rank update alone over the 18,750
// vertices of the rank-small shape, once per kernel set.
func BenchmarkUpdateRanks(b *testing.B) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Vertices: 18750, Edges: 267578, OutAlpha: 2.3, InAlpha: 0.9, Seed: 1, HotShuffle: true})
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumVertices()
	inv := InvOutDegrees(g)
	ranks, contrib, acc := make([]float32, n), make([]float32, n), make([]float32, n)
	FillInitRanks(acc)
	eachKernel(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			updateRanks(ranks, contrib, acc, inv, 0.85, 1e-5, 1e-6, 0)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/vertex")
	})
}
