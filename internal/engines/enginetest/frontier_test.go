package enginetest

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"hipa/internal/engines/common"
	"hipa/internal/engines/delta"
	"hipa/internal/engines/ec"
	"hipa/internal/engines/nb"
	"hipa/internal/gen"
	"hipa/internal/graph"
	"hipa/internal/machine"
	"hipa/internal/obs"
	"hipa/internal/platform"
)

var updateFrontierGolden = flag.Bool("update-frontier", false, "rewrite testdata/golden_frontier.json from the current implementation")

// frontierEngines are the frontier-aware engines. They are deliberately
// NOT part of allEngines(): none reproduces the dense engines' bit-exact
// rank vectors (pruning, asynchrony, and delta gating trade exactness for
// skipped work), so they carry their own golden cases and
// convergence-quality gates instead of joining the five-engine
// bit-exactness matrix.
func frontierEngines() []common.Engine {
	return []common.Engine{ec.Engine{}, nb.Engine{}, delta.Engine{}}
}

// frontierTol is the convergence tolerance the golden and quality cases run
// at, and frontierBudget an iteration budget comfortably past the point the
// damping factor alone (0.85^k < 1e-6 at k ≈ 85) guarantees termination.
const (
	frontierTol    = 1e-6
	frontierBudget = 150
)

// frontierGraph is the deterministic fixture of the frontier cases: a ring
// (no dangling vertices) plus LCG-derived extra edges. goldenGraph is
// unsuitable here — its extra-edge degrees all collapse to zero (the seed
// mix leaves the top bits empty), making it a pure ring whose PageRank is
// exactly uniform: every engine "converges" in one iteration and pruning
// never has a chance to stagger. This fixture draws degrees from well-mixed
// LCG bits, so ranks vary, partitions converge at different iterations, and
// early-convergence pruning is observable.
func frontierGraph() *graph.Graph {
	const n = 2000
	b := graph.NewBuilder(n)
	x := uint64(0x9E3779B97F4A7C15)
	for v := 0; v < n; v++ {
		b.AddEdge(graph.VertexID(v), graph.VertexID((v+1)%n))
		x = x*6364136223846793005 + 1442695040888963407
		deg := int(x >> 61) // 0..7 extra edges
		for j := 0; j < deg; j++ {
			x = x*6364136223846793005 + 1442695040888963407
			b.AddEdge(graph.VertexID(v), graph.VertexID(int(x>>33)%n))
		}
	}
	return b.Build()
}

func frontierGoldenCases() []struct {
	key    string
	engine common.Engine
	opts   common.Options
} {
	base := func(preset func() *machine.Machine) common.Options {
		return common.Options{
			Machine:        machine.Scaled(preset(), 1024),
			Threads:        8,
			Iterations:     frontierBudget,
			Tolerance:      frontierTol,
			PartitionBytes: 256,
		}
	}
	var cases []struct {
		key    string
		engine common.Engine
		opts   common.Options
	}
	// EC-HiPa and Delta-PR are bit-deterministic at any thread count
	// (serial per-partition folds), so both presets pin full multithreaded
	// runs.
	for _, preset := range []struct {
		name string
		mk   func() *machine.Machine
	}{
		{"skylake", machine.SkylakeSilver4210},
		{"haswell", machine.HaswellE52667},
	} {
		cases = append(cases, struct {
			key    string
			engine common.Engine
			opts   common.Options
		}{preset.name + "/" + ec.Name, ec.Engine{}, base(preset.mk)})
		cases = append(cases, struct {
			key    string
			engine common.Engine
			opts   common.Options
		}{preset.name + "/" + delta.Name, delta.Engine{}, base(preset.mk)})
	}
	// NB-PR is only deterministic with a single worker (the asynchrony
	// disappears and the run is a fixed-order chaotic iteration).
	nbOpts := base(machine.SkylakeSilver4210)
	nbOpts.Threads = 1
	cases = append(cases, struct {
		key    string
		engine common.Engine
		opts   common.Options
	}{"skylake/" + nb.Name + "/1thread", nb.Engine{}, nbOpts})
	return cases
}

// frontierGoldenEntry extends goldenEntry with the pruning-effectiveness
// counters: a change to the frontier machinery that alters WHICH work is
// skipped shows up here even if the ranks stay put.
type frontierGoldenEntry struct {
	goldenEntry
	IterationsExecuted int   `json:"iterations_executed"`
	ActivePartIters    int64 `json:"active_partition_iterations"`
	ActiveVertexIters  int64 `json:"active_vertex_iterations"`
	PartitionsSkipped  int64 `json:"partitions_skipped"`
}

// TestFrontierGoldenBitExactness is the refactoring safety net for the two
// frontier-aware engines, mirroring TestGoldenBitExactness: bit-identical
// rank vectors, identical modelled metrics, and identical pruning counters
// across code changes. Regenerate with
// `go test ./internal/engines/enginetest -run FrontierGolden -update-frontier`
// ONLY when an intentional numerical change has been reviewed.
func TestFrontierGoldenBitExactness(t *testing.T) {
	g := frontierGraph()
	got := map[string]frontierGoldenEntry{}
	for _, c := range frontierGoldenCases() {
		res, err := c.engine.Run(g, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.key, err)
		}
		if res.Frontier == nil {
			t.Fatalf("%s: frontier-aware engine returned no FrontierReport", c.key)
		}
		got[c.key] = frontierGoldenEntry{
			goldenEntry: goldenEntry{
				RanksFNV64:       ranksFNV64(res.Ranks),
				ModelSecondsBits: fmt.Sprintf("%016x", math.Float64bits(res.Model.EstimatedSeconds)),
				LocalBytes:       res.Model.LocalBytes,
				RemoteBytes:      res.Model.RemoteBytes,
				LLCAccesses:      res.Model.LLCAccesses,
				SchedCostNSBits:  fmt.Sprintf("%016x", math.Float64bits(res.Sched.CostNS)),
				Spawned:          res.Sched.Spawned,
				Migrations:       res.Sched.Migrations,
			},
			IterationsExecuted: res.Frontier.IterationsExecuted,
			ActivePartIters:    res.Frontier.ActivePartitionIterations,
			ActiveVertexIters:  res.Frontier.ActiveVertexIterations,
			PartitionsSkipped:  res.Frontier.PartitionsSkipped,
		}
	}

	path := filepath.Join("testdata", "golden_frontier.json")
	if *updateFrontierGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cases)", path, len(got))
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing frontier golden file (run with -update-frontier to generate): %v", err)
	}
	var want map[string]frontierGoldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d cases, run produced %d", len(want), len(got))
	}
	for key, w := range want {
		gi, ok := got[key]
		if !ok {
			t.Errorf("%s: case missing from run", key)
			continue
		}
		if gi != w {
			t.Errorf("%s: drifted from golden:\n got  %+v\n want %+v", key, gi, w)
		}
	}
}

// TestECSkipsPartitionsOnGoldenCase pins the acceptance criterion of the
// early-convergence engine: on a golden case it demonstrably retires at
// least one partition before termination. The skip is asserted twice — on
// the run's FrontierReport and on the per-iteration active-partition counter
// the driver surfaces through obs.
func TestECSkipsPartitionsOnGoldenCase(t *testing.T) {
	g := frontierGraph()
	o := frontierGoldenCases()[0].opts
	rec := &obs.Recorder{}
	o.Obs = rec
	res, err := (ec.Engine{}).Run(g, o)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Frontier
	if rep == nil {
		t.Fatal("EC-HiPa returned no FrontierReport")
	}
	if rep.PartitionsSkipped < 1 {
		t.Errorf("PartitionsSkipped = %d, want >= 1: pruning never engaged on the golden case", rep.PartitionsSkipped)
	}
	if res.Iterations >= o.Iterations {
		t.Errorf("ran the full %d-iteration budget; tolerance %g should terminate earlier", o.Iterations, frontierTol)
	}
	if frac := rep.ActiveFraction(); frac <= 0 || frac >= 1 {
		t.Errorf("active fraction = %v, want inside (0,1): pruning must save work without emptying instantly", frac)
	}
	if len(res.Iters) != res.Iterations {
		t.Fatalf("recorded %d iteration stats, want %d", len(res.Iters), res.Iterations)
	}
	// The per-iteration counters must start dense, shrink monotonically, and
	// end strictly below the partition total (>= 1 partition retired early).
	first, last := res.Iters[0], res.Iters[len(res.Iters)-1]
	if first.ActivePartitions != rep.TotalPartitions {
		t.Errorf("iteration 0 ran %d partitions, want all %d", first.ActivePartitions, rep.TotalPartitions)
	}
	if last.ActivePartitions >= rep.TotalPartitions {
		t.Errorf("final iteration still ran all %d partitions; expected at least one retired", rep.TotalPartitions)
	}
	prev := first
	for i, st := range res.Iters {
		if st.ActivePartitions > prev.ActivePartitions || st.ActiveVertices > prev.ActiveVertices {
			t.Errorf("iteration %d active set grew (%d/%d -> %d/%d); retirement is one-way",
				i, prev.ActivePartitions, prev.ActiveVertices, st.ActivePartitions, st.ActiveVertices)
		}
		prev = st
	}
}

// exactMaxAbsDiff compares float32 ranks against a long float64 power
// iteration ("exact" ranks for quality purposes).
func exactMaxAbsDiff(g *graph.Graph, got []float32, damping float64) float64 {
	ref := common.ReferencePageRank(g, 200, damping)
	var worst float64
	for v := range ref {
		d := math.Abs(ref[v] - float64(got[v]))
		if d > worst {
			worst = d
		}
	}
	return worst
}

// TestFrontierEnginesConvergenceQuality is the approximation contract:
// neither engine is bit-identical to the dense five, but both must land
// within 10× the run tolerance of the exact ranks. (The geometric tail a
// frozen partition or an early-stopping worker misses is bounded by
// tol/(1−damping) ≈ 6.7×tol at damping 0.85.)
func TestFrontierEnginesConvergenceQuality(t *testing.T) {
	g := frontierGraph()
	for _, e := range frontierEngines() {
		for _, threads := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/%dthreads", e.Name(), threads), func(t *testing.T) {
				o := testOptions(frontierBudget)
				o.Threads = threads
				o.Tolerance = frontierTol
				res, err := e.Run(g, o)
				if err != nil {
					t.Fatal(err)
				}
				if res.Iterations >= frontierBudget {
					t.Errorf("never converged within %d iterations at tolerance %g", frontierBudget, frontierTol)
				}
				if got := common.RankSum(res.Ranks); math.Abs(got-1) > 1e-3 {
					t.Errorf("rank sum = %f, want 1", got)
				}
				if worst := exactMaxAbsDiff(g, res.Ranks, common.DefaultDamping); worst > 10*frontierTol {
					t.Errorf("max abs error vs exact ranks = %g, want <= %g (10x tolerance)", worst, 10*frontierTol)
				}
			})
		}
	}
}

// TestFrontierEnginesWithDanglingVertices repeats the quality gate on a
// dangling-heavy graph: half the vertices have no out-edges, so the frozen
// per-partition (ec) and per-worker (nb) dangling folds carry half the rank
// mass and any staleness bug would blow the sum or the error.
func TestFrontierEnginesWithDanglingVertices(t *testing.T) {
	b := graph.NewBuilder(200)
	for v := 0; v < 100; v++ {
		b.AddEdge(graph.VertexID(v), graph.VertexID(v+100)) // 100..199 dangle
		b.AddEdge(graph.VertexID(v), graph.VertexID((v+1)%100))
	}
	g := b.Build()
	for _, e := range frontierEngines() {
		t.Run(e.Name(), func(t *testing.T) {
			o := testOptions(frontierBudget)
			o.Tolerance = frontierTol
			res, err := e.Run(g, o)
			if err != nil {
				t.Fatal(err)
			}
			if got := common.RankSum(res.Ranks); math.Abs(got-1) > 1e-3 {
				t.Errorf("rank sum = %f with dangling vertices, want 1", got)
			}
			if worst := exactMaxAbsDiff(g, res.Ranks, common.DefaultDamping); worst > 10*frontierTol {
				t.Errorf("max abs error vs exact ranks = %g, want <= %g", worst, 10*frontierTol)
			}
		})
	}
}

// TestNBTerminationHammer exercises the barrierless engine's two shared-
// memory mechanisms — atomic rank publication and round-based termination —
// under real contention, repeatedly and across worker counts. Run under
// `go test -race` this is the data-race gate for the lock-free hot path; in
// a plain run it still verifies that termination detection fires (no worker
// spins to the budget) and quality holds under chaotic interleavings.
func TestNBTerminationHammer(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Vertices: 1200, Edges: 15000, OutAlpha: 2.1, InAlpha: 0.9, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	o := testOptions(frontierBudget)
	o.Tolerance = frontierTol
	// Native platform: the workers are real goroutines racing on the rank
	// bits; modelling would only serialize what the test wants contended.
	o.Platform = platform.NewNative(o.Machine)
	prep, err := (nb.Engine{}).Prepare(g, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{2, 4, 8, 16} {
		for rep := 0; rep < 3; rep++ {
			oo := o
			oo.Threads = threads
			res, err := (nb.Engine{}).Exec(prep, oo)
			if err != nil {
				t.Fatalf("%d threads rep %d: %v", threads, rep, err)
			}
			if res.Iterations >= frontierBudget {
				t.Errorf("%d threads rep %d: termination never detected within %d rounds", threads, rep, frontierBudget)
			}
			if got := common.RankSum(res.Ranks); math.Abs(got-1) > 5e-3 {
				t.Errorf("%d threads rep %d: rank sum = %f", threads, rep, got)
			}
			// The quality gate here is looser than the 10×tol one on
			// frontierGraph: this fixture is a power-law graph whose hubs
			// amplify a sub-tolerance residual by their in-degree weight
			// (Σ 1/deg over in-neighbours ≫ 1), so an L∞-residual stop
			// cannot bound the final error at a small multiple of tol on any
			// engine. The hammer's job is interleaving and termination
			// coverage; 200×tol still catches a wrong fixed point (those
			// were ×10000 off before the staleness window existed).
			if worst := exactMaxAbsDiff(g, res.Ranks, common.DefaultDamping); worst > 200*frontierTol {
				t.Errorf("%d threads rep %d: max abs error %g vs exact, want <= %g", threads, rep, worst, 200*frontierTol)
			}
		}
	}
}

// TestFrontierExecZeroAllocsPerIteration extends the zero-allocs-per-
// iteration gate (see TestExecZeroAllocsPerIteration) to the frontier
// engines. Tolerances are chosen so iteration counts stay fixed and the
// differential is meaningful: ec gets an unreachable tolerance (the frontier
// machinery — converged-bit checks, per-partition folds, Rebuild — runs
// every iteration but never retires anything), nb gets zero (termination
// detection off, every worker runs exactly the round budget).
func TestFrontierExecZeroAllocsPerIteration(t *testing.T) {
	const iterShort, iterLong = 3, 13
	g := allocGraph(t)
	cases := []struct {
		engine common.Engine
		tol    float64
	}{
		{ec.Engine{}, 1e-30},
		{nb.Engine{}, 0},
		// Delta-PR with an unreachable tolerance keeps every vertex active
		// (the gate eps = tol/16 never trips), so the differential spans
		// full dense supersteps of the delta machinery.
		{delta.Engine{}, 1e-30},
	}
	for _, pm := range presetMachines() {
		for _, c := range cases {
			t.Run(pm.name+"/"+c.engine.Name(), func(t *testing.T) {
				o := testOptions(iterShort)
				o.Machine = pm.m
				o.Platform = platform.NewNative(pm.m)
				o.Tolerance = c.tol
				prep, err := c.engine.Prepare(g, o)
				if err != nil {
					t.Fatal(err)
				}
				execN := func(iters int) {
					oo := o
					oo.Iterations = iters
					if _, err := c.engine.Exec(prep, oo); err != nil {
						t.Fatal(err)
					}
				}
				execN(iterLong)
				short := testing.AllocsPerRun(5, func() { execN(iterShort) })
				long := testing.AllocsPerRun(5, func() { execN(iterLong) })
				if extra := long - short; extra != 0 {
					t.Errorf("%g extra allocs across %d extra iterations (%g/iteration); steady-state Exec must not allocate",
						extra, iterLong-iterShort, extra/float64(iterLong-iterShort))
				}
			})
		}
	}
}

// TestFrontierRepeatedExecReusesArena extends the arena-recycling contract
// to the frontier engines: sequential Execs against one Prepared artifact —
// frontier scratch included — draw a single arena.
func TestFrontierRepeatedExecReusesArena(t *testing.T) {
	g := allocGraph(t)
	for _, e := range frontierEngines() {
		t.Run(e.Name(), func(t *testing.T) {
			o := testOptions(4)
			o.Platform = platform.NewNative(o.Machine)
			prep, err := e.Prepare(g, o)
			if err != nil {
				t.Fatal(err)
			}
			const repeats = 5
			for i := 0; i < repeats; i++ {
				if _, err := e.Exec(prep, o); err != nil {
					t.Fatal(err)
				}
			}
			s := prep.ArenaStats()
			if s.Created != 1 || s.Reused != repeats-1 {
				t.Errorf("arena pool stats = %+v after %d sequential Execs, want Created=1 Reused=%d", s, repeats, repeats-1)
			}
		})
	}
}

// TestFrontierEnginesOnEmptyAndTinyGraphs mirrors the dense edge-case
// contract for the new engines.
func TestFrontierEnginesOnEmptyAndTinyGraphs(t *testing.T) {
	empty := graph.NewBuilder(0).Build()
	for _, e := range frontierEngines() {
		if _, err := e.Run(empty, testOptions(3)); err == nil {
			t.Errorf("%s: expected error for empty graph", e.Name())
		}
	}
	b := graph.NewBuilder(1)
	b.AddEdge(0, 0)
	one := b.Build()
	for _, e := range frontierEngines() {
		res, err := e.Run(one, testOptions(3))
		if err != nil {
			t.Fatalf("%s on 1-vertex graph: %v", e.Name(), err)
		}
		if math.Abs(float64(res.Ranks[0])-1) > 1e-5 {
			t.Errorf("%s: single vertex rank = %f, want 1", e.Name(), res.Ranks[0])
		}
	}
}
