// Package graph provides the in-memory graph representation used throughout
// the HiPa reproduction: a Compressed Sparse Row (CSR) encoding of the
// out-edges plus, on demand, a Compressed Sparse Column (CSC) encoding of the
// in-edges.
//
// Vertex identifiers are 32-bit unsigned integers and edge endpoints are
// stored as 4-byte values, matching the paper's experimental setup ("The data
// types for vertices, edges and PageRank value are set to 4 bytes", §4.1).
// Offsets are 64-bit so graphs with more than 2^31 edges are representable.
//
// A Graph is immutable after construction. All query methods are safe for
// concurrent use, including concurrently with BuildIn: the CSC form is
// published as a single atomic pointer, so readers either see the complete
// in-edge form or none of it.
//
// Construction (Builder.Build, BuildIn, Fingerprint) is parallel by default
// and deterministic at any worker count: every parallel pass writes disjoint
// index ranges computed from prefix sums, so the resulting arrays are
// bit-identical whether built by one worker or many.
package graph

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"hipa/internal/par"
)

// VertexID identifies a vertex. IDs are dense: a graph with n vertices uses
// IDs 0..n-1.
type VertexID = uint32

// Edge is a directed edge from Src to Dst.
type Edge struct {
	Src VertexID
	Dst VertexID
}

// csc is the in-edge (CSC) form. Both arrays live behind one atomic pointer
// so they are published together: a reader can never observe offsets without
// the matching edge array.
type csc struct {
	// In-edges (sources of edges pointing at v) of vertex v are
	// edges[offsets[v]:offsets[v+1]], sorted ascending.
	offsets []int64
	edges   []VertexID
}

// Graph is an immutable directed graph in CSR form.
//
// The out-edge CSR is always present. The in-edge CSC is built lazily by
// BuildIn (or eagerly by the Builder when requested) because pull-based
// engines need it while push-based ones do not.
type Graph struct {
	numVertices int
	numEdges    int64

	// CSR: out-edges of vertex v are outEdges[outOffsets[v]:outOffsets[v+1]].
	outOffsets []int64
	outEdges   []VertexID

	// in holds the lazily built CSC form. Synchronization lives here, on the
	// graph itself: buildInOnce serializes concurrent builders, and the
	// single atomic publish keeps readers race-free — no external lock table
	// is needed (or allowed; one used to leak graphs).
	in          atomic.Pointer[csc]
	buildInOnce sync.Once

	// fp memoizes Fingerprint on the graph itself, so no global registry
	// pins fingerprinted graphs in memory.
	fp     uint64
	fpOnce sync.Once
}

// ErrNoInEdges is returned by methods that require the in-edge (CSC)
// representation when it has not been built.
var ErrNoInEdges = errors.New("graph: in-edge representation not built; call BuildIn first")

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.numVertices }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int64 { return g.numEdges }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v VertexID) int64 {
	return g.outOffsets[v+1] - g.outOffsets[v]
}

// InDegree returns the in-degree of v. It panics if the CSC form has not
// been built.
func (g *Graph) InDegree(v VertexID) int64 {
	in := g.in.Load()
	if in == nil {
		panic(ErrNoInEdges)
	}
	return in.offsets[v+1] - in.offsets[v]
}

// OutNeighbors returns the destinations of v's out-edges. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) OutNeighbors(v VertexID) []VertexID {
	return g.outEdges[g.outOffsets[v]:g.outOffsets[v+1]]
}

// InNeighbors returns the sources of v's in-edges. The returned slice aliases
// internal storage and must not be modified. It panics if the CSC form has
// not been built.
func (g *Graph) InNeighbors(v VertexID) []VertexID {
	in := g.in.Load()
	if in == nil {
		panic(ErrNoInEdges)
	}
	return in.edges[in.offsets[v]:in.offsets[v+1]]
}

// OutOffsets exposes the CSR offset array (length NumVertices+1). The slice
// aliases internal storage and must not be modified. It exists for engines
// that traverse edge ranges directly.
func (g *Graph) OutOffsets() []int64 { return g.outOffsets }

// OutEdges exposes the CSR edge array. Read-only.
func (g *Graph) OutEdges() []VertexID { return g.outEdges }

// InOffsets exposes the CSC offset array or nil. Read-only.
func (g *Graph) InOffsets() []int64 {
	if in := g.in.Load(); in != nil {
		return in.offsets
	}
	return nil
}

// InEdges exposes the CSC edge array or nil. Read-only.
func (g *Graph) InEdges() []VertexID {
	if in := g.in.Load(); in != nil {
		return in.edges
	}
	return nil
}

// InCSR exposes both CSC arrays (offsets, edges) from a single atomic load,
// or (nil, nil) when the in-edge form has not been built. Exec hot paths use
// this instead of separate InOffsets/InEdges calls so the pair is guaranteed
// to come from one publication. Read-only.
func (g *Graph) InCSR() ([]int64, []VertexID) {
	if in := g.in.Load(); in != nil {
		return in.offsets, in.edges
	}
	return nil, nil
}

// HasInEdges reports whether the CSC (in-edge) form has been built.
func (g *Graph) HasInEdges() bool { return g.in.Load() != nil }

// setIn installs an externally constructed CSC form (binary loader). It must
// only be called before the graph is shared.
func (g *Graph) setIn(offsets []int64, edges []VertexID) {
	g.in.Store(&csc{offsets: offsets, edges: edges})
}

// BuildIn constructs the in-edge (CSC) representation if absent, with the
// default parallelism (all cores). Safe for concurrent use: concurrent
// builders serialize on the graph's once-guard, and the form is published
// atomically, so readers either see all of it or none of it.
func (g *Graph) BuildIn() { g.BuildInWorkers(0) }

// BuildInWorkers is BuildIn with an explicit worker count (positive = that
// many workers, 0 = all cores, negative = serial). The CSC arrays are
// bit-identical at any worker count: the parallel fill preserves the serial
// ascending source order within every in-adjacency segment.
func (g *Graph) BuildInWorkers(workers int) {
	if g.in.Load() != nil {
		return
	}
	g.buildInOnce.Do(func() {
		if g.in.Load() != nil { // installed by the loader before sharing
			return
		}
		g.in.Store(buildCSC(g.numVertices, g.outOffsets, g.outEdges, workers))
	})
}

// buildCSC builds the in-edge form from the out-edge CSR: per-worker
// destination counts over contiguous source ranges, column-wise prefix sums
// into absolute write cursors, then a disjoint parallel fill in source order.
func buildCSC(n int, outOff []int64, outE []VertexID, workers int) *csc {
	inOff := make([]int64, n+1)
	inE := make([]VertexID, len(outE))
	if n == 0 || len(outE) == 0 {
		return &csc{offsets: inOff, edges: inE}
	}
	w := par.Fit(par.Workers(workers), int64(len(outE)))
	bounds := par.WeightedBounds(w, outOff)
	counts := make([]int64, w*n)
	par.Run(w, func(i int) {
		c := counts[i*n : (i+1)*n]
		for _, dst := range outE[outOff[bounds[i]]:outOff[bounds[i+1]]] {
			c[dst]++
		}
	})
	cursorsFromCounts(counts, w, n, inOff)
	par.Run(w, func(i int) {
		cur := counts[i*n : (i+1)*n]
		for src := bounds[i]; src < bounds[i+1]; src++ {
			for _, dst := range outE[outOff[src]:outOff[src+1]] {
				inE[cur[dst]] = VertexID(src)
				cur[dst]++
			}
		}
	})
	return &csc{offsets: inOff, edges: inE}
}

// cursorsFromCounts turns per-worker key counts (counts[w*n+k] = occurrences
// of key k in worker w's chunk) into the global offset array off (length
// n+1, off[k] = first index of key k) and, in place, absolute per-worker
// write cursors: after the call counts[w*n+k] is the index where worker w
// writes its first element with key k. Cursor values depend only on the
// counts, so any chunking that preserves element order yields an identical
// final layout.
func cursorsFromCounts(counts []int64, workers, n int, off []int64) {
	par.Blocks(workers, n, func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			var sum int64
			for w := 0; w < workers; w++ {
				sum += counts[w*n+k]
			}
			off[k+1] = sum
		}
	})
	for k := 0; k < n; k++ {
		off[k+1] += off[k]
	}
	par.Blocks(workers, n, func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			run := off[k]
			for w := 0; w < workers; w++ {
				c := counts[w*n+k]
				counts[w*n+k] = run
				run += c
			}
		}
	})
}

// FingerprintVersion identifies the fingerprint scheme. The version is mixed
// into every fingerprint, so changing the scheme (as the chunked-parallel v2
// rewrite did, and the v3 versioned-graph chain fingerprints do) changes all
// fingerprint values and thereby invalidates every fingerprint-keyed cache,
// such as the engines' preprocessing-artifact cache. v3 adds Versioned's
// chain fingerprints: a version's fingerprint mixes the snapshot fingerprint
// with the content hash of every mutation batch up to that version, so
// artifact-cache keys distinguish graph versions without materializing them.
const FingerprintVersion = 3

// fpChunkElems is the fixed chunk length of the fingerprint. Chunking is
// part of the hash definition — never derived from the worker count — so any
// parallelism produces the same value.
const fpChunkElems = 1 << 16

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Fingerprint returns a content hash of the graph's CSR arrays, memoized on
// the graph (graphs are immutable, so it is computed at most once per
// instance). Two graphs with identical topology share the fingerprint.
func (g *Graph) Fingerprint() uint64 { return g.FingerprintWorkers(0) }

// FingerprintWorkers is Fingerprint with an explicit worker count for the
// first (memoizing) computation: a keyed FNV-1a hash over fixed-size chunk
// hashes of the offset and edge arrays, computed chunk-parallel.
func (g *Graph) FingerprintWorkers(workers int) uint64 {
	g.fpOnce.Do(func() {
		g.fp = fingerprintCSR(g.numVertices, g.numEdges, g.outOffsets, g.outEdges, workers)
	})
	return g.fp
}

// setFingerprint installs a precomputed fingerprint, defeating the content
// hash. Versioned uses it when compaction folds a delta log into a fresh
// snapshot: the new Graph keeps the chain fingerprint the same version had
// before compaction, so artifact caches keyed by it (common.PrepCache) keep
// hitting — compaction reuses the snapshot artifact instead of invalidating
// it. Must only be called before the graph is shared.
func (g *Graph) setFingerprint(fp uint64) {
	g.fpOnce.Do(func() { g.fp = fp })
}

func fingerprintCSR(nv int, ne int64, off []int64, edges []VertexID, workers int) uint64 {
	offChunks := (len(off) + fpChunkElems - 1) / fpChunkElems
	edgeChunks := (len(edges) + fpChunkElems - 1) / fpChunkElems
	hashes := make([]uint64, offChunks+edgeChunks)
	w := par.Fit(par.Workers(workers), int64(len(off)+len(edges)))
	par.Blocks(w, len(hashes), func(_, lo, hi int) {
		for c := lo; c < hi; c++ {
			h := uint64(fnvOffset64)
			if c < offChunks {
				clo := c * fpChunkElems
				chi := min(clo+fpChunkElems, len(off))
				for _, o := range off[clo:chi] {
					h = (h ^ uint64(o)) * fnvPrime64
				}
			} else {
				clo := (c - offChunks) * fpChunkElems
				chi := min(clo+fpChunkElems, len(edges))
				for _, e := range edges[clo:chi] {
					h = (h ^ uint64(e)) * fnvPrime64
				}
			}
			hashes[c] = h
		}
	})
	fp := uint64(fnvOffset64)
	mix := func(x uint64) {
		fp ^= x
		fp *= fnvPrime64
	}
	mix(FingerprintVersion)
	mix(uint64(nv))
	mix(uint64(ne))
	for _, h := range hashes {
		mix(h)
	}
	return fp
}

// MaxOutDegree returns the largest out-degree in the graph, 0 for an empty
// graph.
func (g *Graph) MaxOutDegree() int64 {
	var max int64
	for v := 0; v < g.numVertices; v++ {
		if d := g.OutDegree(VertexID(v)); d > max {
			max = d
		}
	}
	return max
}

// DanglingCount returns the number of vertices with out-degree zero. PageRank
// must redistribute the rank of these vertices.
func (g *Graph) DanglingCount() int {
	c := 0
	for v := 0; v < g.numVertices; v++ {
		if g.OutDegree(VertexID(v)) == 0 {
			c++
		}
	}
	return c
}

// Symmetrize returns a new graph containing every edge of g in both
// directions, deduplicated (the undirected closure). Used by algorithms
// that ignore edge direction, such as weakly-connected components.
func (g *Graph) Symmetrize() *Graph {
	b := NewBuilder(g.numVertices)
	b.Dedup = true
	b.edges = make([]Edge, 0, 2*g.numEdges)
	for v := 0; v < g.numVertices; v++ {
		for _, d := range g.OutNeighbors(VertexID(v)) {
			b.AddEdge(VertexID(v), d)
			b.AddEdge(d, VertexID(v))
		}
	}
	return b.Build()
}

// Transpose returns a new graph whose out-edges are this graph's in-edges.
// The result aliases g's immutable CSC arrays instead of copying them (both
// graphs are immutable, so sharing is safe); it has no CSC form of its own.
func (g *Graph) Transpose() *Graph { return g.TransposeWorkers(0) }

// TransposeWorkers is Transpose with an explicit worker count for the CSC
// build it may trigger.
func (g *Graph) TransposeWorkers(workers int) *Graph {
	g.BuildInWorkers(workers)
	in := g.in.Load()
	return &Graph{
		numVertices: g.numVertices,
		numEdges:    g.numEdges,
		outOffsets:  in.offsets,
		outEdges:    in.edges,
	}
}

// Validate checks structural invariants and returns a descriptive error on
// the first violation. It is used by tests and by the binary loader.
func (g *Graph) Validate() error {
	n := g.numVertices
	if n < 0 {
		return fmt.Errorf("graph: negative vertex count %d", n)
	}
	if len(g.outOffsets) != n+1 {
		return fmt.Errorf("graph: offsets length %d, want %d", len(g.outOffsets), n+1)
	}
	if g.outOffsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d, want 0", g.outOffsets[0])
	}
	for v := 0; v < n; v++ {
		if g.outOffsets[v+1] < g.outOffsets[v] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", v)
		}
	}
	if g.outOffsets[n] != int64(len(g.outEdges)) {
		return fmt.Errorf("graph: offsets[n] = %d, want %d", g.outOffsets[n], len(g.outEdges))
	}
	if g.numEdges != int64(len(g.outEdges)) {
		return fmt.Errorf("graph: numEdges = %d, want %d", g.numEdges, len(g.outEdges))
	}
	for i, dst := range g.outEdges {
		if int(dst) >= n {
			return fmt.Errorf("graph: edge %d destination %d out of range [0,%d)", i, dst, n)
		}
	}
	if in := g.in.Load(); in != nil {
		if len(in.offsets) != n+1 {
			return fmt.Errorf("graph: in-edge offsets length %d, want %d", len(in.offsets), n+1)
		}
		if in.offsets[0] != 0 {
			return fmt.Errorf("graph: in-edge offsets[0] = %d, want 0", in.offsets[0])
		}
		for v := 0; v < n; v++ {
			if in.offsets[v+1] < in.offsets[v] {
				return fmt.Errorf("graph: in-edge offsets not monotone at vertex %d", v)
			}
		}
		if in.offsets[n] != g.numEdges {
			return fmt.Errorf("graph: in-edge offsets[n] = %d, want %d", in.offsets[n], g.numEdges)
		}
		if int64(len(in.edges)) != g.numEdges {
			return fmt.Errorf("graph: in-edge array length %d, want %d", len(in.edges), g.numEdges)
		}
		for i, src := range in.edges {
			if int(src) >= n {
				return fmt.Errorf("graph: in-edge %d source %d out of range", i, src)
			}
		}
	}
	return nil
}

// FromCSR constructs a graph directly from CSR arrays. The arrays are taken
// over (not copied); the caller must not modify them afterwards.
func FromCSR(numVertices int, outOffsets []int64, outEdges []VertexID) (*Graph, error) {
	g := &Graph{
		numVertices: numVertices,
		numEdges:    int64(len(outEdges)),
		outOffsets:  outOffsets,
		outEdges:    outEdges,
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Builder accumulates edges and produces an immutable Graph.
//
// The builder accepts edges in any order; Build sorts them into CSR form.
// Duplicate edges are preserved unless Dedup is set (real-world edge lists
// often contain duplicates; the Graph500 Kronecker generator produces them).
type Builder struct {
	numVertices int
	edges       []Edge
	// Dedup removes duplicate (src,dst) pairs during Build.
	Dedup bool
	// RemoveSelfLoops drops edges with Src == Dst during Build.
	RemoveSelfLoops bool
	// WithIn requests that the in-edge (CSC) form be built eagerly.
	WithIn bool
	// Parallelism is the worker count Build uses (positive = that many, 0 =
	// all cores, negative = serial). The produced graph is bit-identical at
	// any setting.
	Parallelism int
}

// NewBuilder returns a builder for a graph with numVertices vertices.
func NewBuilder(numVertices int) *Builder {
	return &Builder{numVertices: numVertices}
}

// AddEdge appends a directed edge. It panics if an endpoint is out of range.
func (b *Builder) AddEdge(src, dst VertexID) {
	if int(src) >= b.numVertices || int(dst) >= b.numVertices {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range for %d vertices", src, dst, b.numVertices))
	}
	b.edges = append(b.edges, Edge{src, dst})
}

// AddEdges appends a batch of directed edges. The batch is validated as a
// whole before any of it is appended, so an out-of-range edge panics with
// the builder unchanged.
func (b *Builder) AddEdges(edges []Edge) {
	for _, e := range edges {
		if int(e.Src) >= b.numVertices || int(e.Dst) >= b.numVertices {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range for %d vertices", e.Src, e.Dst, b.numVertices))
		}
	}
	b.edges = append(b.edges, edges...)
}

// NumPendingEdges returns the number of edges added so far (before
// dedup/self-loop filtering).
func (b *Builder) NumPendingEdges() int { return len(b.edges) }

// Build produces the immutable graph. The builder can be reused afterwards;
// its edge buffer is consumed.
//
// Construction is one counting scatter by source followed by a sort of each
// adjacency row: per-worker source counts over contiguous chunks of the edge
// list give the offsets and disjoint write cursors, every destination is
// written straight into its row, and the rows are then sorted (and, with
// Dedup, compacted) in parallel. A CSR with ascending rows is unique, so the
// graph is bit-identical at any Parallelism.
func (b *Builder) Build() *Graph {
	edges := b.edges
	b.edges = nil
	n := b.numVertices
	off := make([]int64, n+1)
	out := make([]VertexID, 0)
	if n > 0 && len(edges) > 0 {
		w := par.Fit(par.Workers(b.Parallelism), int64(len(edges)))
		bounds := par.Bounds(w, len(edges))
		noLoops := b.RemoveSelfLoops
		counts := make([]int64, w*n)
		par.Run(w, func(i int) {
			c := counts[i*n : (i+1)*n]
			for _, e := range edges[bounds[i]:bounds[i+1]] {
				if !noLoops || e.Src != e.Dst {
					c[e.Src]++
				}
			}
		})
		cursorsFromCounts(counts, w, n, off)
		out = make([]VertexID, off[n])
		par.Run(w, func(i int) {
			cur := counts[i*n : (i+1)*n]
			for _, e := range edges[bounds[i]:bounds[i+1]] {
				if !noLoops || e.Src != e.Dst {
					out[cur[e.Src]] = e.Dst
					cur[e.Src]++
				}
			}
		})
		sortRows(off, out, w, radixPasses(n))
		if b.Dedup {
			off, out = dedupRows(off, out, w)
		}
	}
	g := &Graph{
		numVertices: n,
		numEdges:    int64(len(out)),
		outOffsets:  off,
		outEdges:    out,
	}
	if b.WithIn {
		g.BuildInWorkers(b.Parallelism)
	}
	return g
}

// Row sorting: rows of at most shortRow entries go to slices.Sort; longer
// ones (R-MAT hub rows reach 10^5 entries) take an LSD radix sort over
// digitBits-bit digits of the vertex ID.
const (
	shortRow  = 128
	digitBits = 11
	digitMask = 1<<digitBits - 1
)

// radixPasses returns how many digits the largest vertex ID, n-1, spans.
func radixPasses(n int) int {
	return max(1, (bits.Len32(uint32(n-1))+digitBits-1)/digitBits)
}

// sortRows sorts every adjacency row out[off[v]:off[v+1]] ascending, rows
// split over workers by edge weight.
func sortRows(off []int64, out []VertexID, workers, passes int) {
	par.WeightedBlocks(workers, off, func(_, lo, hi int) {
		var buf []VertexID
		var digits []int
		for v := lo; v < hi; v++ {
			row := out[off[v]:off[v+1]]
			if len(row) <= shortRow {
				slices.Sort(row)
			} else {
				if cap(buf) < len(row) {
					// Doubling: rows ordered by growing length must
					// not allocate once per row.
					buf = make([]VertexID, max(len(row), 2*cap(buf)))
				}
				if digits == nil {
					digits = make([]int, 1<<digitBits)
				}
				radixSort(row, buf[:len(row)], digits, passes)
			}
		}
	})
}

// radixSort sorts row with passes LSD counting passes over digitBits-bit
// digits, ping-ponging through buf (same length) and digits (1<<digitBits
// counters).
func radixSort(row, buf []VertexID, digits []int, passes int) {
	src, dst := row, buf
	for p := 0; p < passes; p++ {
		shift := p * digitBits
		clear(digits)
		for _, x := range src {
			digits[x>>shift&digitMask]++
		}
		sum := 0
		for d, c := range digits {
			digits[d] = sum
			sum += c
		}
		for _, x := range src {
			d := x >> shift & digitMask
			dst[digits[d]] = x
			digits[d]++
		}
		src, dst = dst, src
	}
	if passes%2 == 1 {
		copy(row, src)
	}
}

// dedupRows drops repeated entries from the sorted rows: a parallel count of
// each row's distinct entries, a prefix sum into the new offsets, and a
// parallel copy of the first entry of every run.
func dedupRows(off []int64, out []VertexID, workers int) ([]int64, []VertexID) {
	n := len(off) - 1
	kept := make([]int64, n+1)
	par.WeightedBlocks(workers, off, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			row := out[off[v]:off[v+1]]
			for i := range row {
				if i == 0 || row[i] != row[i-1] {
					kept[v+1]++
				}
			}
		}
	})
	for v := 0; v < n; v++ {
		kept[v+1] += kept[v]
	}
	if kept[n] == off[n] {
		return off, out
	}
	dedup := make([]VertexID, kept[n])
	par.WeightedBlocks(workers, off, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			row := out[off[v]:off[v+1]]
			o := kept[v]
			for i, x := range row {
				if i == 0 || x != row[i-1] {
					dedup[o] = x
					o++
				}
			}
		}
	})
	return kept, dedup
}

// Stats summarises a graph for reporting (Table 1 of the paper).
type Stats struct {
	NumVertices  int
	NumEdges     int64
	AvgOutDegree float64
	MaxOutDegree int64
	Dangling     int
}

// ComputeStats returns summary statistics.
func ComputeStats(g *Graph) Stats {
	s := Stats{
		NumVertices:  g.NumVertices(),
		NumEdges:     g.NumEdges(),
		MaxOutDegree: g.MaxOutDegree(),
		Dangling:     g.DanglingCount(),
	}
	if s.NumVertices > 0 {
		s.AvgOutDegree = float64(s.NumEdges) / float64(s.NumVertices)
	}
	return s
}
