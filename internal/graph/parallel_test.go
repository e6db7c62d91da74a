package graph

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// referenceBuild is a naive CSR construction: one comparison sort of the
// whole edge list by (src, dst), with optional self-loop removal and dedup.
// The parallel scatter-and-sort Build must agree with it exactly.
func referenceBuild(n int, edges []Edge, dedup, noSelfLoops bool) (off []int64, out []VertexID) {
	es := make([]Edge, 0, len(edges))
	for _, e := range edges {
		if noSelfLoops && e.Src == e.Dst {
			continue
		}
		es = append(es, e)
	}
	slices.SortStableFunc(es, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
	if dedup {
		kept := es[:0]
		for i, e := range es {
			if i == 0 || e != es[i-1] {
				kept = append(kept, e)
			}
		}
		es = kept
	}
	off = make([]int64, n+1)
	out = make([]VertexID, len(es))
	for _, e := range es {
		off[e.Src+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	for i, e := range es {
		out[i] = e.Dst
	}
	return off, out
}

// buildMismatch builds edges with the given flags and parallelism and
// reports the first difference from the reference CSR (wantOff, wantOut), or
// nil. It also checks that every adjacency segment is sorted, strictly when
// deduplicated.
func buildMismatch(n int, edges []Edge, dedup, noLoops bool, parallelism int, wantOff []int64, wantOut []VertexID) error {
	b := NewBuilder(n)
	b.Dedup = dedup
	b.RemoveSelfLoops = noLoops
	b.Parallelism = parallelism
	b.AddEdges(edges)
	g := b.Build()
	if err := g.Validate(); err != nil {
		return err
	}
	if len(g.outOffsets) != len(wantOff) || len(g.outEdges) != len(wantOut) {
		return fmt.Errorf("sizes (%d,%d), want (%d,%d)", len(g.outOffsets), len(g.outEdges), len(wantOff), len(wantOut))
	}
	for i := range wantOff {
		if g.outOffsets[i] != wantOff[i] {
			return fmt.Errorf("offsets[%d] = %d, want %d", i, g.outOffsets[i], wantOff[i])
		}
	}
	for i := range wantOut {
		if g.outEdges[i] != wantOut[i] {
			return fmt.Errorf("edges[%d] = %d, want %d", i, g.outEdges[i], wantOut[i])
		}
	}
	for v := 0; v < n; v++ {
		seg := g.OutNeighbors(VertexID(v))
		for i := 1; i < len(seg); i++ {
			if seg[i] < seg[i-1] || (dedup && seg[i] == seg[i-1]) {
				return fmt.Errorf("segment of %d not sorted/deduped at %d", v, i)
			}
		}
	}
	return nil
}

// TestPropertyBuildMatchesReference: at every parallelism setting, with and
// without dedup and self-loop removal, Builder.Build produces exactly the
// reference CSR — fully sorted adjacency segments, bit-identical arrays.
func TestPropertyBuildMatchesReference(t *testing.T) {
	f := func(seed int64, nRaw uint8, mRaw uint16, dedup, noLoops bool) bool {
		n := int(nRaw)%80 + 1
		m := int(mRaw) % 700
		rng := rand.New(rand.NewSource(seed))
		edges := make([]Edge, m)
		for i := range edges {
			// A narrow ID range forces duplicates and self-loops.
			edges[i] = Edge{VertexID(rng.Intn(n)), VertexID(rng.Intn(n))}
		}
		wantOff, wantOut := referenceBuild(n, edges, dedup, noLoops)
		for _, par := range []int{1, 3, 8} {
			if err := buildMismatch(n, edges, dedup, noLoops, par, wantOff, wantOut); err != nil {
				t.Logf("parallelism %d: %v", par, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// rowSortEdges returns an edge list whose rows take every row-sort path of
// Build: rows just below, at and just above the short-row cutoff and hub
// rows of thousands of entries, each in random, ascending, descending and
// duplicate-heavy order (with a self-loop), plus background edges on the
// remaining vertices so the list spans several workers' chunks. The rows'
// entries are interleaved over the whole list, each row keeping its own
// order, so rows straddle chunk boundaries.
func rowSortEdges(rng *rand.Rand, n, background int) []Edge {
	// A third of the IDs come from each end of the range, so on a graph
	// above 2^22 vertices the top digit orders IDs whose low digits tie.
	id := func() VertexID {
		switch rng.Intn(3) {
		case 0:
			return VertexID(rng.Intn(min(n, 64)))
		case 1:
			return VertexID(n - 1 - rng.Intn(min(n, 64)))
		}
		return VertexID(rng.Intn(n))
	}
	var rows [][]VertexID
	for _, k := range []int{shortRow - 1, shortRow, shortRow + 1, 3000, 7000} {
		random := make([]VertexID, k)
		for i := range random {
			random[i] = id()
		}
		asc := slices.Clone(random)
		slices.Sort(asc)
		desc := slices.Clone(asc)
		slices.Reverse(desc)
		dups := make([]VertexID, k)
		for i := range dups {
			dups[i] = VertexID(rng.Intn(k/4 + 1))
		}
		dups[k/2] = VertexID(len(rows) + 3) // the row's own source
		rows = append(rows, random, asc, desc, dups)
	}
	var tokens []VertexID
	for src, row := range rows {
		for range row {
			tokens = append(tokens, VertexID(src))
		}
	}
	rng.Shuffle(len(tokens), func(i, j int) { tokens[i], tokens[j] = tokens[j], tokens[i] })
	next := make([]int, len(rows))
	edges := make([]Edge, 0, len(tokens)+background)
	for _, src := range tokens {
		edges = append(edges, Edge{src, rows[src][next[src]]})
		next[src]++
	}
	for i := 0; i < background; i++ {
		src := len(rows) + rng.Intn(n-len(rows))
		edges = append(edges, Edge{VertexID(src), VertexID(rng.Intn(n))})
	}
	return edges
}

// TestBuildRowSortPaths checks every row-sort path of Build — slices.Sort
// and radix sort either side of the cutoff, presorted rows, hub rows with
// one, two and three digit passes — against referenceBuild at parallelism 1,
// 3 and 8, under every combination of Dedup and RemoveSelfLoops (only both
// on for the 4M-vertex graph).
func TestBuildRowSortPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, tc := range []struct {
		n, background, passes int
	}{
		{n: 2000, background: 0, passes: 1},
		{n: 50000, background: 60000, passes: 2},
		// IDs above 2^22 need the third 11-bit digit.
		{n: 1<<22 + 5, background: 0, passes: 3},
	} {
		if got := radixPasses(tc.n); got != tc.passes {
			t.Fatalf("n=%d: %d radix passes, want %d", tc.n, got, tc.passes)
		}
		edges := rowSortEdges(rng, tc.n, tc.background)
		for _, dedup := range []bool{false, true} {
			for _, noLoops := range []bool{false, true} {
				if tc.passes == 3 && !(dedup && noLoops) {
					continue // each build is O(n) at 4M vertices; one flag set suffices
				}
				wantOff, wantOut := referenceBuild(tc.n, edges, dedup, noLoops)
				for _, par := range []int{1, 3, 8} {
					if err := buildMismatch(tc.n, edges, dedup, noLoops, par, wantOff, wantOut); err != nil {
						t.Errorf("n=%d dedup=%v noLoops=%v parallelism %d: %v", tc.n, dedup, noLoops, par, err)
					}
				}
			}
		}
	}
}

// TestBuildInWorkersIdentical: the CSC arrays are bit-identical at any
// worker count.
func TestBuildInWorkersIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	edges := make([]Edge, 5000)
	n := 300
	for i := range edges {
		edges[i] = Edge{VertexID(rng.Intn(n)), VertexID(rng.Intn(n))}
	}
	var ref *csc
	for _, workers := range []int{1, 2, 3, 8} {
		b := NewBuilder(n)
		b.AddEdges(edges)
		g := b.Build()
		g.BuildInWorkers(workers)
		in := g.in.Load()
		if ref == nil {
			ref = in
			continue
		}
		for i := range ref.offsets {
			if in.offsets[i] != ref.offsets[i] {
				t.Fatalf("workers=%d: inOffsets[%d] differs", workers, i)
			}
		}
		for i := range ref.edges {
			if in.edges[i] != ref.edges[i] {
				t.Fatalf("workers=%d: inEdges[%d] differs", workers, i)
			}
		}
	}
}

// TestConcurrentBuildInTransposeReaders hammers the lazy CSC build from many
// goroutines — concurrent BuildIn, Transpose, Symmetrize, and readers that
// must never observe a half-built form (run under -race in CI). Regression
// test for the race where inOffsets was published before inEdges and
// external callers bypassed the build lock.
func TestConcurrentBuildInTransposeReaders(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 200
		b := NewBuilder(n)
		for i := 0; i < 3000; i++ {
			b.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)))
		}
		g := b.Build()
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				switch w % 4 {
				case 0:
					g.BuildInWorkers(2)
				case 1:
					tr := g.Transpose()
					if tr.NumEdges() != g.NumEdges() {
						t.Error("transpose changed edge count")
					}
				case 2:
					// Reader: whenever the CSC is visible it must be complete
					// and consistent.
					for i := 0; i < 100; i++ {
						if g.HasInEdges() {
							off, in := g.InOffsets(), g.InEdges()
							if int64(len(in)) != off[n] {
								t.Errorf("observed half-built CSC: %d edges, offsets end %d", len(in), off[n])
							}
							var sum int64
							for v := 0; v < n; v++ {
								sum += g.InDegree(VertexID(v))
							}
							if sum != g.NumEdges() {
								t.Errorf("observed inconsistent CSC: in-degree sum %d", sum)
							}
						}
					}
				case 3:
					s := g.Symmetrize()
					if err := s.Validate(); err != nil {
						t.Errorf("symmetrize under concurrency: %v", err)
					}
				}
			}(w)
		}
		close(start)
		wg.Wait()
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTransposeAliasesCSC: Transpose must share the source graph's immutable
// CSC arrays, not deep-copy them.
func TestTransposeAliasesCSC(t *testing.T) {
	g := buildTestGraph(t)
	tr := g.Transpose()
	in := g.in.Load()
	if in == nil {
		t.Fatal("Transpose did not build the CSC form")
	}
	if len(tr.outEdges) > 0 && &tr.outEdges[0] != &in.edges[0] {
		t.Error("transpose copied the CSC edge array instead of aliasing it")
	}
	if &tr.outOffsets[0] != &in.offsets[0] {
		t.Error("transpose copied the CSC offset array instead of aliasing it")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFingerprintMemoizedAndDeterministic: the fingerprint is computed once
// per graph instance (memoized on the graph), is identical across worker
// counts and across content-identical instances, and differs for different
// content.
func TestFingerprintMemoizedAndDeterministic(t *testing.T) {
	build := func() *Graph {
		b := NewBuilder(500)
		for v := 0; v < 500; v++ {
			b.AddEdge(VertexID(v), VertexID((v*7+3)%500))
			b.AddEdge(VertexID(v), VertexID((v*13+1)%500))
		}
		return b.Build()
	}
	g1, g2 := build(), build()
	fp := g1.FingerprintWorkers(1)
	for _, workers := range []int{1, 2, 8} {
		h := build()
		if got := h.FingerprintWorkers(workers); got != fp {
			t.Errorf("workers=%d: fingerprint %x, want %x (must not depend on parallelism)", workers, got, fp)
		}
	}
	if g2.Fingerprint() != fp {
		t.Error("content-identical graphs have different fingerprints")
	}
	// Memoization: mutating the CSR after the first call must not change the
	// value — it was computed exactly once.
	g1.outEdges[0]++
	if g1.Fingerprint() != fp {
		t.Error("fingerprint recomputed instead of memoized")
	}
	g1.outEdges[0]--
	// Different content, different fingerprint.
	b := NewBuilder(500)
	b.AddEdge(0, 1)
	if b.Build().Fingerprint() == fp {
		t.Error("different graphs share a fingerprint")
	}
}

// TestFingerprintConcurrent: concurrent first calls agree (run under -race).
func TestFingerprintConcurrent(t *testing.T) {
	g := buildTestGraph(t)
	got := make([]uint64, 8)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = g.FingerprintWorkers(w%3 + 1)
		}(w)
	}
	wg.Wait()
	for w := 1; w < len(got); w++ {
		if got[w] != got[0] {
			t.Fatalf("concurrent fingerprints disagree: %x vs %x", got[w], got[0])
		}
	}
}

// TestValidateCatchesBadCSC: a truncated inEdges array or a non-monotone
// inOffsets must fail validation (regression: only inOffsets[n] was checked,
// so a short edge array validated fine and panicked later in InNeighbors).
func TestValidateCatchesBadCSC(t *testing.T) {
	mk := func() *Graph {
		g := buildTestGraph(t)
		g.BuildIn()
		return g
	}
	g := mk()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Truncated edge array.
	bad := mk()
	in := bad.in.Load()
	bad.in.Store(&csc{offsets: in.offsets, edges: in.edges[:len(in.edges)-1]})
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted a truncated inEdges array")
	}
	// Non-monotone offsets.
	bad2 := mk()
	in2 := bad2.in.Load()
	off := append([]int64(nil), in2.offsets...)
	off[2], off[3] = off[3], off[2]-1
	bad2.in.Store(&csc{offsets: off, edges: in2.edges})
	if err := bad2.Validate(); err == nil {
		t.Error("Validate accepted non-monotone inOffsets")
	}
	// Out-of-range source.
	bad3 := mk()
	in3 := bad3.in.Load()
	edges := append([]VertexID(nil), in3.edges...)
	edges[0] = VertexID(bad3.numVertices)
	bad3.in.Store(&csc{offsets: in3.offsets, edges: edges})
	if err := bad3.Validate(); err == nil {
		t.Error("Validate accepted an out-of-range in-edge source")
	}
}
