package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"hipa"
	"hipa/internal/graph"
)

// The benchmark makes its own inputs instead of calling the program's
// generators, so a change to those cannot shift what is measured.

// genChunks is the fixed number of independent random streams an edge list
// is drawn from. It never depends on GOMAXPROCS, so a seed gives the same
// graph on any host; the chunks are only scheduled over the workers.
const genChunks = 64

// Random stream identifiers: every use of the seed draws from its own PCG
// stream, so adding a draw to one input never shifts another.
const (
	streamRMAT uint64 = iota + 1
	streamDegrees
	streamDests
	streamMutations
	streamTraffic
)

func newRNG(seed, stream, chunk uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream<<32|chunk))
}

// forChunks runs fn(c) for every chunk c in [0, chunks) on at most workers
// goroutines and returns when all are done.
func forChunks(workers, chunks int, fn func(c int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, chunks); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := int(next.Add(1)) - 1; c < chunks; c = int(next.Add(1)) - 1 {
				fn(c)
			}
		}()
	}
	wg.Wait()
}

// rmat describes a Graph500 R-MAT graph: 2^scale vertices and
// edgeFactor·2^scale edges from the recursion a=.57, b=c=.19, d=.05.
type rmat struct{ scale, edgeFactor int }

func (r rmat) vertices() int { return 1 << r.scale }

// edges draws the edge list. Duplicates and self-loops are kept, as the
// Graph500 generator produces them.
func (r rmat) edges(seed uint64, workers int) []hipa.Edge {
	m := r.edgeFactor << r.scale
	out := make([]hipa.Edge, m)
	forChunks(workers, genChunks, func(c int) {
		rng := newRNG(seed, streamRMAT, uint64(c))
		for i := c * m / genChunks; i < (c+1)*m/genChunks; i++ {
			var src, dst uint32
			for bit := uint32(1); bit < 1<<r.scale; bit <<= 1 {
				switch p := rng.Float64(); {
				case p < 0.57:
				case p < 0.76:
					dst |= bit
				case p < 0.95:
					src |= bit
				default:
					src |= bit
					dst |= bit
				}
			}
			out[i] = hipa.Edge{Src: src, Dst: dst}
		}
	})
	return out
}

// hubShare caps one vertex's share of the in-edges at that of the largest
// hub of LiveJournal at full size (a 4.8M-vertex Zipf(0.9) head holds about
// 2%); uncapped, the head of a scaled-down graph holds two to three times
// more.
const hubShare = 0.02

// powerLaw describes a directed power-law graph: Pareto(outAlpha)
// out-degrees rescaled to the edge count, destinations drawn from a
// Zipf(inAlpha) popularity ranking whose hubs are shuffled over the IDs.
type powerLaw struct {
	n                 int
	m                 int64
	outAlpha, inAlpha float64
}

func (p powerLaw) vertices() int { return p.n }

func (p powerLaw) edges(seed uint64, workers int) []hipa.Edge {
	n := p.n
	rng := newRNG(seed, streamDegrees, 0)
	raw := make([]float64, n)
	var rawSum float64
	for v := range raw {
		raw[v] = math.Min(math.Pow(1-rng.Float64(), -1/(p.outAlpha-1)), float64(n))
		rawSum += raw[v]
	}
	deg := make([]int64, n)
	var assigned int64
	for v, d := range raw {
		deg[v] = int64(d * float64(p.m) / rawSum)
		assigned += deg[v]
	}
	for assigned < p.m {
		deg[rng.IntN(n)]++
		assigned++
	}
	for assigned > p.m {
		if v := rng.IntN(n); deg[v] > 0 {
			deg[v]--
			assigned--
		}
	}
	weight := make([]float64, n)
	for r := range weight {
		weight[r] = math.Pow(float64(r+1), -p.inAlpha)
	}
	// Cap the head at hubShare, re-capping as the total shrinks.
	for round := 0; round < 4; round++ {
		var sum float64
		for _, x := range weight {
			sum += x
		}
		for r, x := range weight {
			weight[r] = min(x, sum*hubShare)
		}
	}
	cdf := make([]float64, n)
	var total float64
	for r, x := range weight {
		total += x
		cdf[r] = total
	}
	hub := rng.Perm(n)
	start := make([]int64, n+1)
	for v, d := range deg {
		start[v+1] = start[v] + d
	}
	out := make([]hipa.Edge, p.m)
	forChunks(workers, genChunks, func(c int) {
		rng := newRNG(seed, streamDests, uint64(c))
		for v := c * n / genChunks; v < (c+1)*n/genChunks; v++ {
			for i := start[v]; i < start[v+1]; i++ {
				r := min(sort.SearchFloat64s(cdf, rng.Float64()*total), n-1)
				out[i] = hipa.Edge{Src: uint32(v), Dst: uint32(hub[r])}
			}
		}
	})
	return out
}

// edgeSource is a seeded graph description.
type edgeSource interface {
	vertices() int
	edges(seed uint64, workers int) []hipa.Edge
}

// build is the program's cold graph construction from an in-memory edge
// list: a fresh Builder, every edge added, Build.
func build(n int, edges []hipa.Edge) *hipa.Graph {
	b := hipa.NewGraphBuilder(n)
	b.AddEdges(edges)
	return b.Build()
}

// mirror is the benchmark's own view of a served graph under mutation, with
// the edge-set semantics of the program's versioned graphs: a row touched by
// a mutation becomes a sorted duplicate-free set, inserting an existing edge
// and deleting a missing one change nothing.
type mirror struct {
	g    *hipa.Graph
	rows map[uint32][]uint32
}

func (m *mirror) row(v uint32) []uint32 {
	if r, ok := m.rows[v]; ok {
		return r
	}
	return m.g.OutNeighbors(v)
}

func (m *mirror) apply(mu graph.Mutation) {
	r, ok := m.rows[mu.Src]
	if !ok {
		r = slices.Compact(slices.Clone(m.g.OutNeighbors(mu.Src)))
	}
	i, found := slices.BinarySearch(r, mu.Dst)
	switch {
	case mu.Op == graph.InsertEdge && !found:
		r = slices.Insert(r, i, mu.Dst)
	case mu.Op == graph.DeleteEdge && found:
		r = slices.Delete(r, i, i+1)
	}
	m.rows[mu.Src] = r
}

// mutationBatches draws count batches of size mutations against g, applied
// in order: every fourth mutation deletes an edge that exists at that point
// (found by probing random sources of the mirror), the rest insert uniform
// random edges.
func mutationBatches(g *hipa.Graph, seed uint64, count, size int) [][]graph.Mutation {
	rng := newRNG(seed, streamMutations, 0)
	mir := &mirror{g: g, rows: map[uint32][]uint32{}}
	n := g.NumVertices()
	batches := make([][]graph.Mutation, count)
	for b := range batches {
		batch := make([]graph.Mutation, 0, size)
		for i := 0; i < size; i++ {
			mu, ok := graph.Mutation{}, false
			for probe := 0; (i+1)%4 == 0 && !ok && probe < 16; probe++ {
				src := uint32(rng.IntN(n))
				if row := mir.row(src); len(row) > 0 {
					mu, ok = graph.Mutation{Op: graph.DeleteEdge, Src: src, Dst: row[rng.IntN(len(row))]}, true
				}
			}
			if !ok {
				mu = graph.Mutation{Op: graph.InsertEdge, Src: uint32(rng.IntN(n)), Dst: uint32(rng.IntN(n))}
			}
			mir.apply(mu)
			batch = append(batch, mu)
		}
		batches[b] = batch
	}
	return batches
}

// mutationsFingerprint hashes a mutation stream, so two runs can show they
// replayed the same one.
func mutationsFingerprint(batches [][]graph.Mutation) string {
	h := fnv.New64a()
	for _, b := range batches {
		for _, mu := range b {
			fmt.Fprintf(h, "%d %d %d\n", mu.Op, mu.Src, mu.Dst)
		}
		fmt.Fprintln(h, "commit")
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// inputInfo identifies one input in the report.
type inputInfo struct {
	Name        string `json:"name"`
	Vertices    int    `json:"vertices,omitempty"`
	Edges       int64  `json:"edges,omitempty"`
	Fingerprint string `json:"fingerprint"`
}

func graphInfo(name string, g *hipa.Graph) inputInfo {
	return inputInfo{name, g.NumVertices(), g.NumEdges(), fmt.Sprintf("%016x", g.Fingerprint())}
}

// hotVertices maps Zipf ranks to vertex IDs (a seeded shuffle), so the
// popular vertices of the request stream are spread over the graph.
func hotVertices(n int, seed uint64) []uint32 {
	perm := newRNG(seed, streamTraffic, 0).Perm(n)
	hot := make([]uint32, n)
	for i, v := range perm {
		hot[i] = uint32(v)
	}
	return hot
}
