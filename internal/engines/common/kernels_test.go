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

// randomSELL builds a SELL-8 pull over n vertices whose entries index n+1
// values, cut into a few partitions of random size. Each partition's
// vertices fill its chunks' lanes in random order, and its last chunk is
// padded with sink lanes when its size is not a multiple of 8. Rows are
// random ascending entries below n: about a fifth of them empty, one a hub
// of 1000–1500 entries. Each chunk is as wide as its longest lane, the rest
// of a lane being sink entries (n), and is encoded as layout.Build encodes
// it: narrow when its rows step by less than layout.EndOfRow, which they
// do when n is small.
func randomSELL(rng *rand.Rand, n int) *layout.SELL {
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
	lay := &layout.SELL{Chunk: []int64{0}}
	var idx []graph.VertexID
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
			base := len(idx)
			idx = append(idx, make([]graph.VertexID, lanes*width)...)
			for i, v := range perm {
				for k := range width {
					u := sink
					if v != sink && k < len(rows[v]) {
						u = rows[v][k]
					}
					idx[base+k*lanes+i] = u
				}
			}
			lay.Perm = append(lay.Perm, perm[:]...)
			lay.Chunk = append(lay.Chunk, int64(len(idx)))
		}
		lo = hi
	}
	lay.Encode(idx, sink, true)
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

// pullBoth runs PullSELL and AddSELL over [clo,chi) with each kernel set
// on copies of acc and fails unless the two sets' results are bitwise
// equal.
func pullBoth(t *testing.T, what string, lay *layout.SELL, contrib, acc []float32, clo, chi int) {
	t.Helper()
	for _, mode := range []struct {
		name string
		pull func(*layout.SELL, []float32, []float32, int, int)
	}{{"PullSELL", PullSELL}, {"AddSELL", AddSELL}} {
		want, got := slices.Clone(acc), slices.Clone(acc)
		withKernels(false, func() { mode.pull(lay, contrib, want, clo, chi) })
		withKernels(true, func() { mode.pull(lay, contrib, got, clo, chi) })
		for v := range want {
			if math.Float32bits(got[v]) != math.Float32bits(want[v]) {
				t.Fatalf("%s, %s, chunks [%d,%d): acc[%d] = %v (avx2), %v (scalar)", what, mode.name, clo, chi, v, got[v], want[v])
			}
		}
	}
}

// TestPullKernelsMatch: the AVX2 pull stores, lane for lane, the bits the
// scalar pull stores, from +0 (PullSELL) and from the accumulators
// (AddSELL), whose padding lanes must be neither read nor written. The
// layouts are random SELL-8 arrays with padded last chunks, empty rows and
// a hub row of at least 1000 entries, pulled whole and over random chunk
// ranges into random accumulators; a built layout over two nodes, its
// intra pull pulled in the per-thread slices PullSlices cuts, which start
// and end inside a node; and the same layout's inter pull added over the
// bins partition by partition.
func TestPullKernelsMatch(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewPCG(23, 0))
	for trial := 0; trial < 40; trial++ {
		n := 9 + rng.IntN(600)
		lay := randomSELL(rng, n)
		contrib := randomContrib(rng, n)
		acc := make([]float32, n)
		for v := range acc {
			acc[v] = rng.Float32() * 1e-2
		}
		chunks := len(lay.Chunk) - 1
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
		for v := range acc {
			acc[v] = rng.Float32() * 1e-2
		}
		for tid := range hier.Groups {
			pullBoth(t, fmt.Sprintf("threads %d, thread %d", threads, tid), &lay.IntraPull, contrib, acc, int(cuts[2*tid]), int(cuts[2*tid+1]))
		}
		bins := randomContrib(rng, int(lay.NumMessages()))
		ip := &lay.InterPull
		for p := 0; p < hier.NumPartitions(); p++ {
			pullBoth(t, fmt.Sprintf("threads %d, inter pull of partition %d", threads, p), ip, bins, acc, int(ip.Part[p]), int(ip.Part[p+1]))
		}
	}
}

// TestRankUpdateKernelsMatch: the AVX2 rank update writes the scalar
// loop's ranks and contributions bit for bit and returns the same residual
// and dangling sum, over every length from 0 to 33 — so every split
// between the vector body and the scalar tail — with signed zeros,
// subnormals, infinities and NaN in the old ranks, the accumulators and
// the addends, and a dangling vertex in every lane position. Each case
// runs in place (next is ranks, HiPa's update) and into a separate buffer
// (B-PPR's), without an addend and with a sparse one that dangling
// vertices carry too, so an addend out of its place in the sum, or a
// dangling sum taken before it, shows.
//
// The NaN drawn is the one an invalid operation (Inf − Inf, Inf·0) makes
// on amd64, so every NaN in flight has the same bits. When an add meets
// two NaNs that differ, x86 returns its first operand, and Go does not fix
// the operand order of a commutative add: the scalar loop's -race build
// returns the other of the two than its default build. With two kinds of
// NaN the sums would differ by build, not by kernel.
func TestRankUpdateKernelsMatch(t *testing.T) {
	needAVX2(t)
	special := []float32{
		0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-39, -1e-39,
		float32(math.Inf(1)), float32(math.Inf(-1)), math.Float32frombits(0xffc00000),
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
			ranks, acc, inv, add := make([]float32, length), make([]float32, length), make([]float32, length), make([]float32, length)
			for i := range ranks {
				ranks[i], acc[i] = draw(), draw()
				inv[i] = 1 / float32(1+rng.IntN(9))
				if rng.IntN(3) == 0 {
					add[i] = draw()
				}
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
				ranks, next, contrib []float32
				res, dangling        float64
			}
			for _, form := range []struct {
				name    string
				inPlace bool
				add     []float32
			}{
				{"in place", true, nil},
				{"separate", false, nil},
				{"in place with addend", true, add},
				{"separate with addend", false, add},
			} {
				run := func(avx2 bool) (o out) {
					o.ranks, o.next, o.contrib = slices.Clone(ranks), make([]float32, length), make([]float32, length)
					if form.inPlace {
						o.next = o.ranks
					}
					withKernels(avx2, func() {
						o.res, o.dangling = UpdateRanks(o.ranks, o.next, o.contrib, acc, inv, form.add, d, base, redis, res)
					})
					return o
				}
				want, got := run(false), run(true)
				what := fmt.Sprintf("length %d pattern %d %s", length, pattern, form.name)
				for i := range want.next {
					if math.Float32bits(got.next[i]) != math.Float32bits(want.next[i]) ||
						math.Float32bits(got.contrib[i]) != math.Float32bits(want.contrib[i]) {
						t.Fatalf("%s: vertex %d: rank %v contrib %v (avx2), rank %v contrib %v (scalar)",
							what, i, got.next[i], got.contrib[i], want.next[i], want.contrib[i])
					}
					if !form.inPlace && (math.Float32bits(got.ranks[i]) != math.Float32bits(ranks[i]) ||
						math.Float32bits(want.ranks[i]) != math.Float32bits(ranks[i])) {
						t.Fatalf("%s: vertex %d: the read buffer was written", what, i)
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
}

// chunkSELL builds one partition's pull over n vertices from the rows of
// its first len(rows) vertices, one chunk per PullLanes rows in the given
// order, padding lanes trailing, each chunk as wide as its longest row;
// layout.SELL.Encode encodes it.
func chunkSELL(n int, rows [][]graph.VertexID) *layout.SELL {
	const lanes = layout.PullLanes
	sink := graph.VertexID(n)
	lay := &layout.SELL{Chunk: []int64{0}}
	var idx []graph.VertexID
	for c := 0; c < len(rows); c += lanes {
		width := 0
		for v := c; v < min(c+lanes, len(rows)); v++ {
			width = max(width, len(rows[v]))
		}
		for k := range width {
			for i := range lanes {
				u, v := sink, c+i
				if v < len(rows) && k < len(rows[v]) {
					u = rows[v][k]
				}
				idx = append(idx, u)
			}
		}
		for i := range lanes {
			v := graph.VertexID(c + i)
			if c+i >= len(rows) {
				v = sink
			}
			lay.Perm = append(lay.Perm, v)
		}
		lay.Chunk = append(lay.Chunk, int64(len(idx)))
	}
	lay.Encode(idx, sink, true)
	return lay
}

// TestCorruptPullPanics: in a wide chunk, an index past the sink or near
// 2^32; in a narrow chunk, a first index past the sink, steps that run past
// the sink, and steps whose running index wraps past 2^32 back below the
// sink; a lane past the sink; and a chunk or encoding offset past the
// stream each make the pull panic, as a bounds check does, from +0
// (PullSELL, the intra pull) and from the accumulators (AddSELL, the inter
// pull), on the scalar path and on the AVX2 path; the AVX2 kernel clamps
// what it reads and skips what it cannot read or store, and its wrapper
// panics on what the kernel reports.
func TestCorruptPullPanics(t *testing.T) {
	const lanes = layout.PullLanes
	// 200,000 vertices, so one step of a row can be too long for a narrow
	// chunk. Chunk 0 is wide: each of its rows steps by 100,000; chunk 1
	// narrow: rows of consecutive vertices, of 2 to 9 entries; chunk 2
	// three short rows and five padding lanes.
	const n = 200000
	rows := make([][]graph.VertexID, 19)
	for v := range rows {
		switch {
		case v < lanes:
			rows[v] = []graph.VertexID{graph.VertexID(v), graph.VertexID(v + 100000), graph.VertexID(v + 150000)}
		case v < 2*lanes:
			for k := range 2 + v%lanes {
				rows[v] = append(rows[v], graph.VertexID(1000+8*v+k))
			}
		default:
			rows[v] = []graph.VertexID{graph.VertexID(v), graph.VertexID(v + 7)}
		}
	}
	clean := chunkSELL(n, rows)
	if clean.Narrow(0) || !clean.Narrow(1) || !clean.Narrow(2) {
		t.Fatalf("chunks narrow %v, %v, %v; want wide, narrow, narrow", clean.Narrow(0), clean.Narrow(1), clean.Narrow(2))
	}
	contrib := randomContrib(rand.New(rand.NewPCG(31, 0)), n)
	chunks := len(clean.Chunk) - 1
	set32 := func(l *layout.SELL, e int64, x uint32) { l.Enc[e], l.Enc[e+1] = uint16(x), uint16(x>>16) }
	// wrap is one narrow chunk of 65,538 steps whose lane 0 starts at 10
	// and steps by 65,534: its running index passes 2^32 and ends at 6.
	var wrapIdx []graph.VertexID
	const wrapSteps = 65538
	for k := range wrapSteps {
		for i := range lanes {
			x := graph.VertexID(100)
			if i == 0 {
				x = graph.VertexID(10 + uint32(k)*65534)
			}
			wrapIdx = append(wrapIdx, x)
		}
	}
	wrap := &layout.SELL{Chunk: []int64{0, int64(len(wrapIdx))}, Perm: []graph.VertexID{0, 100, 100, 100, 100, 100, 100, 100}}
	wrap.Encode(wrapIdx, 100, true)
	if !wrap.Narrow(0) {
		t.Fatal("the wrapping chunk is not narrow")
	}
	wrapContrib := randomContrib(rand.New(rand.NewPCG(32, 0)), 100)
	corruptions := []struct {
		name   string
		modify func(l *layout.SELL)
	}{
		{"wide index past the sink", func(l *layout.SELL) { set32(l, l.Off[0]+2*(lanes+3), n+1) }},
		{"wide index near 2^32", func(l *layout.SELL) { set32(l, l.Off[0]+2*(2*lanes+5), math.MaxUint32-3) }},
		{"narrow first index past the sink", func(l *layout.SELL) { set32(l, l.Off[1]+2*2, n+1) }},
		{"narrow steps past the sink", func(l *layout.SELL) {
			for e := l.Off[1] + 2*lanes + 7; e < l.Off[2]; e += lanes {
				l.Enc[e] = layout.EndOfRow - 1
			}
		}},
		{"lane past the sink", func(l *layout.SELL) { l.Perm[3] = n + 2 }},
		{"chunk offset past the entries", func(l *layout.SELL) { l.Chunk[chunks-1] = l.Chunk[chunks] + lanes }},
		{"encoding offset past the stream", func(l *layout.SELL) { l.Off[chunks-1] = int64(len(l.Enc)) + lanes }},
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
			for _, mode := range []struct {
				name string
				pull func(*layout.SELL, []float32, []float32, int, int)
			}{{"PullSELL", PullSELL}, {"AddSELL", AddSELL}} {
				panics := func(what string, lay *layout.SELL, vals []float32, n int) {
					defer func() {
						if recover() == nil {
							t.Errorf("%s, %s: the pull did not panic", what, mode.name)
						}
					}()
					withKernels(avx2, func() { mode.pull(lay, vals, make([]float32, n), 0, len(lay.Chunk)-1) })
				}
				for _, c := range corruptions {
					lay := &layout.SELL{
						Chunk: slices.Clip(slices.Clone(clean.Chunk)),
						Off:   slices.Clip(slices.Clone(clean.Off)),
						Perm:  slices.Clip(slices.Clone(clean.Perm)),
						Enc:   slices.Clip(slices.Clone(clean.Enc)),
					}
					c.modify(lay)
					panics(c.name, lay, contrib, n)
				}
				panics("narrow steps wrap past 2^32", wrap, wrapContrib, 100)
			}
		})
	}
}

// BenchmarkUpdateRanks times the rank update alone over the 18,750
// vertices of the rank-small shape, once per kernel set: HiPa's in place,
// and as teleport B-PPR's width-1 update of a personalized column, into a
// separate buffer with a sparse addend on its seeds.
func BenchmarkUpdateRanks(b *testing.B) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Vertices: 18750, Edges: 267578, OutAlpha: 2.3, InAlpha: 0.9, Seed: 1, HotShuffle: true})
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumVertices()
	inv := InvOutDegrees(g)
	ranks, next, contrib, acc, add := make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n)
	FillInitRanks(acc)
	for v := 0; v < n; v += n / 16 {
		add[v] = 0.15 / 16
	}
	perVertex := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/vertex")
	}
	eachKernel(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			UpdateRanks(ranks, ranks, contrib, acc, inv, nil, 0.85, 1e-5, 1e-6, 0)
		}
		perVertex(b)
	})
	b.Run("teleport", func(b *testing.B) {
		eachKernel(b, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				UpdateRanks(ranks, next, contrib, acc, inv, add, 0.85, 0, 0, 0)
			}
			perVertex(b)
		})
	})
}
