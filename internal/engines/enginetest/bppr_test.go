package enginetest

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"hipa/internal/engines/bppr"
	"hipa/internal/engines/common"
	"hipa/internal/engines/delta"
	"hipa/internal/engines/hipa"
	"hipa/internal/engines/ppr"
	"hipa/internal/engines/vpr"
	"hipa/internal/gen"
	"hipa/internal/graph"
	"hipa/internal/machine"
	"hipa/internal/platform"
)

// referencePPR is the float64 ground truth for personalized PageRank with
// an arbitrary restart vector: rank'(v) = (1-d)·r(v) + d·(Σ_{u→v}
// rank(u)/outdeg(u) + S·r(v)), where r is uniform over the seeds (or over
// all vertices when seeds is empty) and S is the dangling mass — teleport
// and dangling redistribution both return to the restart vector.
func referencePPR(g *graph.Graph, seeds []graph.VertexID, iterations int, damping float64) []float64 {
	n := g.NumVertices()
	restart := make([]float64, n)
	if len(seeds) == 0 {
		for v := range restart {
			restart[v] = 1.0 / float64(n)
		}
	} else {
		w := 1.0 / float64(len(seeds))
		for _, s := range seeds {
			restart[s] += w
		}
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	copy(rank, restart)
	for it := 0; it < iterations; it++ {
		var dangling float64
		for v := 0; v < n; v++ {
			next[v] = 0
			if g.OutDegree(graph.VertexID(v)) == 0 {
				dangling += rank[v]
			}
		}
		for v := 0; v < n; v++ {
			if d := g.OutDegree(graph.VertexID(v)); d > 0 {
				contrib := rank[v] / float64(d)
				for _, dst := range g.OutNeighbors(graph.VertexID(v)) {
					next[dst] += contrib
				}
			}
		}
		for v := 0; v < n; v++ {
			next[v] = (1-damping)*restart[v] + damping*(next[v]+dangling*restart[v])
		}
		rank, next = next, rank
	}
	return rank
}

// danglingGraph is a small graph where half the vertices dangle, exercising
// the per-column dangling fold.
func danglingGraph() *graph.Graph {
	b := graph.NewBuilder(200)
	for v := 0; v < 100; v++ {
		b.AddEdge(graph.VertexID(v), graph.VertexID(v+100)) // 100..199 dangle
		b.AddEdge(graph.VertexID(v), graph.VertexID((v+1)%100))
	}
	return b.Build()
}

// pprSeeds derives a deterministic seed set for query q (LCG-scattered, two
// seeds per query) on an n-vertex graph.
func pprSeeds(q, n int) []graph.VertexID {
	x := uint64(q)*6364136223846793005 + 1442695040888963407
	a := graph.VertexID(int(x>>33) % n)
	x = x*6364136223846793005 + 1442695040888963407
	c := graph.VertexID(int(x>>33) % n)
	if c == a {
		c = graph.VertexID((int(c) + 1) % n)
	}
	return []graph.VertexID{a, c}
}

// TestBPPRUniformMatchesHiPaBitExact is the tentpole golden: a width-1
// uniform batch through the blocked kernel must reproduce the scalar HiPa
// engine bit for bit — same rank bits, same FNV fingerprint — on both
// machine presets.
func TestBPPRUniformMatchesHiPaBitExact(t *testing.T) {
	g := goldenGraph()
	for _, pm := range presetMachines() {
		t.Run(pm.name, func(t *testing.T) {
			o := testOptions(5)
			o.Machine = pm.m
			o.Threads = 8
			want, err := (hipa.Engine{}).Run(g, o)
			if err != nil {
				t.Fatal(err)
			}
			got, err := (bppr.Engine{}).Run(g, o)
			if err != nil {
				t.Fatal(err)
			}
			if d := common.MaxAbsDiff(want.Ranks, got.Ranks); d != 0 {
				t.Fatalf("B=1 batched ranks differ from scalar HiPa by %g; must be bit-identical", d)
			}
			if hw, hg := ranksFNV64(want.Ranks), ranksFNV64(got.Ranks); hw != hg {
				t.Fatalf("rank fingerprints differ: HiPa %s, B-PPR %s", hw, hg)
			}
		})
	}
}

// TestBPPRBatchSizeIndependence pins per-column batch invariance: each
// query's rank vector and executed-iteration count inside a mixed width-8
// batch must be bitwise the ones its solo width-1 run produces — including
// columns that retire mid-batch (the run is long enough, with the default
// tolerance, for the seeded columns to converge at different supersteps).
func TestBPPRBatchSizeIndependence(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"golden", goldenGraph()},
		{"dangling", danglingGraph()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.g.NumVertices()
			queries := []bppr.Query{
				{}, // uniform
				{Seeds: pprSeeds(1, n)},
				{Seeds: pprSeeds(2, n)},
				{Seeds: []graph.VertexID{0}},
				{Seeds: pprSeeds(4, n)},
				{}, // second uniform column
				{Seeds: pprSeeds(6, n)},
				{Seeds: pprSeeds(7, n)},
			}
			o := testOptions(80)
			o.Threads = 8
			prep, err := (bppr.Engine{}).Prepare(tc.g, o)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := bppr.ExecBatch(prep, o, queries)
			if err != nil {
				t.Fatal(err)
			}
			var retired int
			for q, query := range queries {
				solo, err := bppr.ExecBatch(prep, o, []bppr.Query{query})
				if err != nil {
					t.Fatalf("query %d solo: %v", q, err)
				}
				if d := common.MaxAbsDiff(batch.Ranks[q], solo.Ranks[0]); d != 0 {
					t.Errorf("query %d: batched ranks differ from solo by %g; columns must be batch-size independent", q, d)
				}
				if batch.Iterations[q] != solo.Supersteps {
					t.Errorf("query %d: executed %d iterations in batch, %d solo", q, batch.Iterations[q], solo.Supersteps)
				}
				if batch.Iterations[q] < batch.Supersteps {
					retired++
				}
			}
			if retired == 0 {
				t.Errorf("no column retired before the batch finished (%d supersteps) — the fixture no longer exercises per-column convergence", batch.Supersteps)
			}
		})
	}
}

// TestBPPRWorkerCountDeterminism: identical bits at any thread count, also
// with dangling mass in flight (all folds are serial in global
// partition/column order).
func TestBPPRWorkerCountDeterminism(t *testing.T) {
	g := danglingGraph()
	n := g.NumVertices()
	queries := []bppr.Query{{}, {Seeds: pprSeeds(1, n)}, {Seeds: pprSeeds(2, n)}, {Seeds: []graph.VertexID{7}}}
	var base *bppr.BatchResult
	var baseThreads int
	for _, threads := range []int{2, 8, 40} {
		o := testOptions(20)
		o.Threads = threads
		prep, err := (bppr.Engine{}).Prepare(g, o)
		if err != nil {
			t.Fatal(err)
		}
		br, err := bppr.ExecBatch(prep, o, queries)
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if base == nil {
			base, baseThreads = br, threads
			continue
		}
		for q := range queries {
			if d := common.MaxAbsDiff(base.Ranks[q], br.Ranks[q]); d != 0 {
				t.Errorf("query %d: ranks differ by %g between %d and %d threads", q, d, baseThreads, threads)
			}
		}
	}
}

// TestBPPRIntraPullThreadInvariant: on a skewed multi-partition graph with
// intra hubs, every column's ranks and executed-iteration count are bitwise
// equal at 2, 4 and 40 threads, drained by one or eight goroutines — the
// split intra pull's slices and their scheduling never reach the result.
// The batch mixes uniform and seeded columns that retire at different
// supersteps, so both the general and the column-scalar pull run.
func TestBPPRIntraPullThreadInvariant(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 14, EdgeFactor: 16, A: 0.57, B: 0.19, C: 0.19, D: 0.05, Seed: 7, Noise: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	queries := []bppr.Query{{}, {Seeds: pprSeeds(1, n)}, {Seeds: []graph.VertexID{0}}, {Seeds: pprSeeds(3, n)}}
	var base *bppr.BatchResult
	var baseName string
	for _, threads := range []int{2, 4, 40} {
		for _, procs := range []int{1, 8} {
			o := testOptions(60)
			o.PartitionBytes = 16 << 10
			o.Threads = threads
			o.GoParallelism = procs
			prep, err := (bppr.Engine{}).Prepare(g, o)
			if err != nil {
				t.Fatal(err)
			}
			br, err := bppr.ExecBatch(prep, o, queries)
			if err != nil {
				t.Fatalf("threads %d procs %d: %v", threads, procs, err)
			}
			name := fmt.Sprintf("threads %d procs %d", threads, procs)
			if base == nil {
				base, baseName = br, name
				if slices.Min(br.Iterations) == br.Supersteps {
					t.Fatalf("no column retired before the batch finished (%d supersteps)", br.Supersteps)
				}
				continue
			}
			for q := range queries {
				if ranksFNV64(base.Ranks[q]) != ranksFNV64(br.Ranks[q]) || common.MaxAbsDiff(base.Ranks[q], br.Ranks[q]) != 0 {
					t.Errorf("query %d: ranks differ between %s and %s", q, baseName, name)
				}
				if base.Iterations[q] != br.Iterations[q] {
					t.Errorf("query %d: %d iterations at %s, %d at %s", q, base.Iterations[q], baseName, br.Iterations[q], name)
				}
			}
		}
	}
}

// danglingSeed returns g's first vertex without out-edges. A column seeded
// there alone is a fixed point from the start — all its mass sits on the
// seed and returns to it — so it retires after one superstep at any
// tolerance, narrowing its batch deterministically.
func danglingSeed(t *testing.T, g *graph.Graph) graph.VertexID {
	t.Helper()
	for v := 0; v < g.NumVertices(); v++ {
		if g.OutDegree(graph.VertexID(v)) == 0 {
			return graph.VertexID(v)
		}
	}
	t.Fatal("fixture graph has no dangling vertex")
	return 0
}

// TestBPPRBatchZeroAllocsPerIteration extends the steady-state allocation
// gate to the batched path: the differential allocation count across extra
// supersteps must be zero (stack-resident per-partition scratch,
// arena-backed blocks, stored kernel method values) at width 16, at width 1,
// and for a batch that narrows to one active column mid-run — the last two
// run the single-column kernel.
func TestBPPRBatchZeroAllocsPerIteration(t *testing.T) {
	const iterShort, iterLong = 3, 13
	g := allocGraph(t)
	n := g.NumVertices()
	wide := make([]bppr.Query, 16)
	for q := 1; q < len(wide); q++ {
		wide[q] = bppr.Query{Seeds: pprSeeds(q, n)}
	}
	dg := danglingGraph()
	narrowing := []bppr.Query{{Seeds: []graph.VertexID{danglingSeed(t, dg)}}, {Seeds: pprSeeds(1, dg.NumVertices())}}
	o := testOptions(iterShort)
	o.Platform = platform.NewNative(o.Machine)
	o.Tolerance = 1e-30 // keep every other column active so supersteps stay exact
	prep, err := (bppr.Engine{}).Prepare(g, o)
	if err != nil {
		t.Fatal(err)
	}
	dprep, err := (bppr.Engine{}).Prepare(dg, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		prep    *common.Prepared
		queries []bppr.Query
		active  int // columns still active at the end of a run
	}{
		{"width16", prep, wide, 16},
		{"width1", prep, wide[1:2], 1},
		{"narrowing", dprep, narrowing, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			execN := func(iters int) {
				oo := o
				oo.Iterations = iters
				br, err := bppr.ExecBatch(tc.prep, oo, tc.queries)
				if err != nil {
					t.Fatal(err)
				}
				if got := br.ColSteps - int64(len(tc.queries)-tc.active); got != int64(tc.active*br.Supersteps) {
					t.Fatalf("col steps %d over %d supersteps: the batch did not keep %d of %d columns active",
						br.ColSteps, br.Supersteps, tc.active, len(tc.queries))
				}
			}
			execN(iterLong)
			short := testing.AllocsPerRun(5, func() { execN(iterShort) })
			long := testing.AllocsPerRun(5, func() { execN(iterLong) })
			if extra := long - short; extra != 0 {
				t.Errorf("%g extra allocs across %d extra supersteps (%g/iteration); the batched Exec must not allocate per iteration",
					extra, iterLong-iterShort, extra/float64(iterLong-iterShort))
			}
		})
	}
}

// TestBPPRNarrowedColumnMatchesSolo: in a width-2 batch whose other column
// retires early, the survivor finishes on the single-column kernel, and its
// ranks and iteration count must be bitwise those of its solo run. The
// dangling case retires a fixed-point column after one superstep; in the
// golden case the uniform column converges at the default tolerance long
// before the seeded one.
func TestBPPRNarrowedColumnMatchesSolo(t *testing.T) {
	dg, gg := danglingGraph(), goldenGraph()
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		queries []bppr.Query // the survivor second: the scalar path runs at column offset 1
	}{
		{"dangling", dg, []bppr.Query{{Seeds: []graph.VertexID{danglingSeed(t, dg)}}, {Seeds: pprSeeds(3, dg.NumVertices())}}},
		{"golden", gg, []bppr.Query{{}, {Seeds: pprSeeds(1, gg.NumVertices())}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			queries := tc.queries
			o := testOptions(80)
			o.Threads = 8
			prep, err := (bppr.Engine{}).Prepare(tc.g, o)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := bppr.ExecBatch(prep, o, queries)
			if err != nil {
				t.Fatal(err)
			}
			if batch.Iterations[1] <= batch.Iterations[0] || batch.Iterations[1] != batch.Supersteps {
				t.Fatalf("column iterations %v over %d supersteps: the batch never narrowed to its second column",
					batch.Iterations, batch.Supersteps)
			}
			for q, query := range queries {
				solo, err := bppr.ExecBatch(prep, o, []bppr.Query{query})
				if err != nil {
					t.Fatal(err)
				}
				if d := common.MaxAbsDiff(batch.Ranks[q], solo.Ranks[0]); d != 0 {
					t.Errorf("query %d: narrowed-batch ranks differ from solo by %g", q, d)
				}
				if batch.Iterations[q] != solo.Iterations[0] {
					t.Errorf("query %d: %d iterations in the batch, %d solo", q, batch.Iterations[q], solo.Iterations[0])
				}
			}
		})
	}
}

// TestBPPRRunsOnHiPaFamilyArtifacts: ExecBatch accepts any artifact built
// by hipa.PrepareArtifact, whatever engine stamped it, with bitwise the
// results of its own artifact; artifacts of other builders are refused,
// including the partition-centric p-PR one.
func TestBPPRRunsOnHiPaFamilyArtifacts(t *testing.T) {
	g := danglingGraph()
	n := g.NumVertices()
	queries := []bppr.Query{{}, {Seeds: pprSeeds(1, n)}, {Seeds: []graph.VertexID{7}}}
	o := testOptions(30)
	// One NUMA node, so the p-PR artifact's flat split passes every shape
	// check and only the family check can refuse it.
	o.Machine = machine.SingleNode(o.Machine)
	own, err := (bppr.Engine{}).Prepare(g, o)
	if err != nil {
		t.Fatal(err)
	}
	want, err := bppr.ExecBatch(own, o, queries)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []common.Engine{hipa.Engine{}, delta.Engine{}} {
		prep, err := e.Prepare(g, o)
		if err != nil {
			t.Fatal(err)
		}
		if prep.Family() != hipa.Family {
			t.Fatalf("%s artifact has family %q, want %q", e.Name(), prep.Family(), hipa.Family)
		}
		got, err := bppr.ExecBatch(prep, o, queries)
		if err != nil {
			t.Fatalf("%s artifact refused: %v", e.Name(), err)
		}
		for q := range queries {
			if d := common.MaxAbsDiff(want.Ranks[q], got.Ranks[q]); d != 0 || want.Iterations[q] != got.Iterations[q] {
				t.Errorf("%s artifact, query %d: ranks differ by %g, iterations %d vs %d",
					e.Name(), q, d, got.Iterations[q], want.Iterations[q])
			}
		}
	}
	for _, e := range []common.Engine{vpr.Engine{}, ppr.Engine{}} {
		prep, err := e.Prepare(g, o)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bppr.ExecBatch(prep, o, queries); err == nil {
			t.Errorf("ExecBatch accepted a %s artifact", e.Name())
		}
	}
}

// TestBPPRSeededMatchesReference checks the personalized columns against
// the float64 restart-vector reference, on a dangling graph so the
// seed-directed dangling redistribution is exercised too.
func TestBPPRSeededMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"golden", goldenGraph()},
		{"dangling", danglingGraph()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.g.NumVertices()
			const iters = 25
			queries := []bppr.Query{{}, {Seeds: pprSeeds(3, n)}, {Seeds: []graph.VertexID{1, 5, 9}}}
			o := testOptions(iters)
			o.Tolerance = 1e-30 // run all iters so the reference iteration counts line up
			prep, err := (bppr.Engine{}).Prepare(tc.g, o)
			if err != nil {
				t.Fatal(err)
			}
			br, err := bppr.ExecBatch(prep, o, queries)
			if err != nil {
				t.Fatal(err)
			}
			for q, query := range queries {
				ref := referencePPR(tc.g, query.Seeds, iters, common.DefaultDamping)
				if got := common.RankSum(br.Ranks[q]); math.Abs(got-1) > 1e-3 {
					t.Errorf("query %d: rank sum = %f, want 1", q, got)
				}
				var worst float64
				for v := range ref {
					d := math.Abs(ref[v] - float64(br.Ranks[q][v]))
					scale := ref[v]
					if scale < 1e-12 {
						scale = 1e-12
					}
					if d/scale > worst {
						worst = d / scale
					}
				}
				if worst > 1e-3 {
					t.Errorf("query %d: worst relative error vs float64 reference = %g", q, worst)
				}
			}
		})
	}
}

// TestBPPRModeledAmortization sanity-checks the traffic story the bench
// gate enforces at paper scale: on the modelled platform, bytes-moved-per-
// query at width 16 must come in well under the width-1 cost (the full ≥4×
// gate, on the harness datasets, lives in the bench baseline).
func TestBPPRModeledAmortization(t *testing.T) {
	g := allocGraph(t)
	n := g.NumVertices()
	o := testOptions(10)
	o.Tolerance = 1e-30 // equal supersteps at both widths
	prep, err := (bppr.Engine{}).Prepare(g, o)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := bppr.ExecBatch(prep, o, []bppr.Query{{Seeds: pprSeeds(0, n)}})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]bppr.Query, 16)
	for q := range queries {
		queries[q] = bppr.Query{Seeds: pprSeeds(q, n)}
	}
	batch, err := bppr.ExecBatch(prep, o, queries)
	if err != nil {
		t.Fatal(err)
	}
	if solo.BytesPerQuery <= 0 || batch.BytesPerQuery <= 0 {
		t.Fatalf("modelled bytes/query not populated: solo %g, batch %g", solo.BytesPerQuery, batch.BytesPerQuery)
	}
	if ratio := solo.BytesPerQuery / batch.BytesPerQuery; ratio < 2 {
		t.Errorf("bytes/query at B=16 only %.2fx lower than B=1 (want >= 2x on this small graph; the bench gate demands 4x at paper scale)", ratio)
	}
}

// TestBPPRValidation covers the engine's request validation: out-of-range
// and duplicate seeds, empty and oversized batches, FCFS/Warm rejection.
func TestBPPRValidation(t *testing.T) {
	g := danglingGraph()
	o := testOptions(3)
	prep, err := (bppr.Engine{}).Prepare(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bppr.ExecBatch(prep, o, nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := bppr.ExecBatch(prep, o, make([]bppr.Query, bppr.MaxBatch+1)); err == nil {
		t.Error("oversized batch accepted")
	}
	if _, err := bppr.ExecBatch(prep, o, []bppr.Query{{Seeds: []graph.VertexID{9999}}}); err == nil {
		t.Error("out-of-range seed accepted")
	}
	if _, err := bppr.ExecBatch(prep, o, []bppr.Query{{Seeds: []graph.VertexID{3, 3}}}); err == nil {
		t.Error("duplicate seed accepted")
	}
	bad := o
	bad.FCFS = true
	if _, err := bppr.ExecBatch(prep, bad, []bppr.Query{{}}); err == nil {
		t.Error("FCFS accepted")
	}
	warm := o
	warm.Warm = &common.WarmStart{Ranks: make([]float32, g.NumVertices())}
	if _, err := bppr.ExecBatch(prep, warm, []bppr.Query{{}}); err == nil {
		t.Error("warm start accepted")
	}
}
