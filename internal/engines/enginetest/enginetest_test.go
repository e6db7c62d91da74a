// Package enginetest cross-validates the five PageRank engines: identical
// rank vectors (within float32 tolerance) against the float64 reference, on
// every catalog dataset shape, across thread counts, partition sizes, and
// option combinations.
package enginetest

import (
	"math"
	"testing"

	"hipa/internal/engines/common"
	"hipa/internal/engines/gpop"
	"hipa/internal/engines/hipa"
	"hipa/internal/engines/polymer"
	"hipa/internal/engines/ppr"
	"hipa/internal/engines/vpr"
	"hipa/internal/gen"
	"hipa/internal/graph"
	"hipa/internal/machine"
)

func allEngines() []common.Engine {
	return []common.Engine{hipa.Engine{}, ppr.Engine{}, vpr.Engine{}, gpop.Engine{}, polymer.Engine{}}
}

// testOptions returns small, fast options on a scaled machine.
func testOptions(iters int) common.Options {
	return common.Options{
		Machine:        machine.Scaled(machine.SkylakeSilver4210(), 1024),
		Iterations:     iters,
		PartitionBytes: 256, // 64 vertices per partition
	}
}

// presetMachines are the modelled microarchitectures the cross-engine
// contracts run on (scaled so tests stay fast).
func presetMachines() []struct {
	name string
	m    *machine.Machine
} {
	return []struct {
		name string
		m    *machine.Machine
	}{
		{"skylake", machine.Scaled(machine.SkylakeSilver4210(), 1024)},
		{"haswell", machine.Scaled(machine.HaswellE52667(), 1024)},
	}
}

func refAsFloat32Diff(t *testing.T, g *graph.Graph, got []float32, iters int, damping float64) float64 {
	t.Helper()
	ref := common.ReferencePageRank(g, iters, damping)
	var worst float64
	for i := range ref {
		d := math.Abs(ref[i] - float64(got[i]))
		// Relative to the rank magnitude, floored at 1/n scale.
		scale := ref[i]
		if scale < 1e-12 {
			scale = 1e-12
		}
		if d/scale > worst {
			worst = d / scale
		}
	}
	return worst
}

func TestAllEnginesMatchReference(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Vertices: 3000, Edges: 40000, OutAlpha: 2.1, InAlpha: 0.9, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	o := testOptions(10)
	for _, e := range allEngines() {
		res, err := e.Run(g, o)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if res.Engine != e.Name() {
			t.Errorf("%s: result engine = %q", e.Name(), res.Engine)
		}
		if got := common.RankSum(res.Ranks); math.Abs(got-1) > 1e-3 {
			t.Errorf("%s: rank sum = %f, want 1", e.Name(), got)
		}
		if worst := refAsFloat32Diff(t, g, res.Ranks, 10, common.DefaultDamping); worst > 1e-3 {
			t.Errorf("%s: worst relative error vs reference = %g", e.Name(), worst)
		}
		if res.Model == nil || res.Model.EstimatedSeconds <= 0 {
			t.Errorf("%s: missing model estimate", e.Name())
		}
		if res.WallSeconds <= 0 {
			t.Errorf("%s: wall time not measured", e.Name())
		}
	}
}

func TestEnginesAgreePairwise(t *testing.T) {
	g, err := gen.Uniform(2000, 24000, 33)
	if err != nil {
		t.Fatal(err)
	}
	for _, pm := range presetMachines() {
		t.Run(pm.name, func(t *testing.T) {
			o := testOptions(8)
			o.Machine = pm.m
			var first []float32
			var firstName string
			for _, e := range allEngines() {
				res, err := e.Run(g, o)
				if err != nil {
					t.Fatalf("%s: %v", e.Name(), err)
				}
				if first == nil {
					first, firstName = res.Ranks, e.Name()
					continue
				}
				if d := common.MaxAbsDiff(first, res.Ranks); d > 1e-6 {
					t.Errorf("%s vs %s: max abs diff %g", firstName, e.Name(), d)
				}
			}
		})
	}
}

func TestEnginesWithDanglingVertices(t *testing.T) {
	// Half the vertices dangle; dangling-mass redistribution must agree.
	b := graph.NewBuilder(200)
	for v := 0; v < 100; v++ {
		b.AddEdge(graph.VertexID(v), graph.VertexID(v+100)) // 100..199 dangle
		b.AddEdge(graph.VertexID(v), graph.VertexID((v+1)%100))
	}
	g := b.Build()
	o := testOptions(15)
	for _, e := range allEngines() {
		res, err := e.Run(g, o)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if got := common.RankSum(res.Ranks); math.Abs(got-1) > 1e-3 {
			t.Errorf("%s: rank sum = %f with dangling vertices", e.Name(), got)
		}
		if worst := refAsFloat32Diff(t, g, res.Ranks, 15, common.DefaultDamping); worst > 1e-3 {
			t.Errorf("%s: worst relative error %g", e.Name(), worst)
		}
	}
}

func TestEnginesAcrossThreadCounts(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Vertices: 1500, Edges: 15000, OutAlpha: 2.2, InAlpha: 0.8, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	ref := common.ReferencePageRank(g, 6, common.DefaultDamping)
	_ = ref
	for _, threads := range []int{2, 4, 8, 16, 20, 32, 40} {
		o := testOptions(6)
		o.Threads = threads
		for _, e := range allEngines() {
			res, err := e.Run(g, o)
			if err != nil {
				t.Fatalf("%s @ %d threads: %v", e.Name(), threads, err)
			}
			if worst := refAsFloat32Diff(t, g, res.Ranks, 6, common.DefaultDamping); worst > 1e-3 {
				t.Errorf("%s @ %d threads: worst relative error %g", e.Name(), threads, worst)
			}
		}
	}
}

func TestEnginesAcrossPartitionSizes(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Vertices: 2000, Edges: 20000, OutAlpha: 2.0, InAlpha: 1.0, Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	for _, pb := range []int{64, 128, 512, 2048, 16384} {
		o := testOptions(5)
		o.PartitionBytes = pb
		for _, e := range []common.Engine{hipa.Engine{}, ppr.Engine{}, gpop.Engine{}} {
			res, err := e.Run(g, o)
			if err != nil {
				t.Fatalf("%s @ %dB: %v", e.Name(), pb, err)
			}
			if worst := refAsFloat32Diff(t, g, res.Ranks, 5, common.DefaultDamping); worst > 1e-3 {
				t.Errorf("%s @ %dB partitions: worst relative error %g", e.Name(), pb, worst)
			}
		}
	}
}

func TestHiPaAblations(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Vertices: 2000, Edges: 20000, OutAlpha: 2.0, InAlpha: 1.0, Seed: 66})
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []struct {
		name string
		mut  func(*common.Options)
	}{
		{"no-compress", func(o *common.Options) { o.NoCompress = true }},
		{"vertex-balanced", func(o *common.Options) { o.VertexBalanced = true }},
		{"fcfs", func(o *common.Options) { o.FCFS = true }},
	} {
		o := testOptions(8)
		variant.mut(&o)
		res, err := (hipa.Engine{}).Run(g, o)
		if err != nil {
			t.Fatalf("%s: %v", variant.name, err)
		}
		if worst := refAsFloat32Diff(t, g, res.Ranks, 8, common.DefaultDamping); worst > 1e-3 {
			t.Errorf("ablation %s: worst relative error %g (correctness must be invariant)", variant.name, worst)
		}
	}
}

// TestGoParallelismRankInvariant: capping real goroutines must not change
// results — every engine (including the FCFS claimers, where the cap used
// to be silently dropped) produces bit-identical ranks at GoParallelism 1.
func TestGoParallelismRankInvariant(t *testing.T) {
	g, err := gen.Uniform(1500, 18000, 99)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range allEngines() {
		o := testOptions(6)
		base, err := e.Run(g, o)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		o.GoParallelism = 1
		capped, err := e.Run(g, o)
		if err != nil {
			t.Fatalf("%s capped: %v", e.Name(), err)
		}
		if d := common.MaxAbsDiff(base.Ranks, capped.Ranks); d != 0 {
			t.Errorf("%s: GoParallelism=1 changed ranks by %g (must be bit-identical)", e.Name(), d)
		}
		if capped.Model.EstimatedSeconds != base.Model.EstimatedSeconds {
			t.Errorf("%s: GoParallelism changed the modelled estimate (%g vs %g) — it is a host knob, not a simulated one",
				e.Name(), capped.Model.EstimatedSeconds, base.Model.EstimatedSeconds)
		}
	}
}

// TestHiPaIntraPullGoParallelismInvariant: on a skewed multi-partition
// graph with intra hubs, HiPa's ranks are bitwise equal whether one or
// eight goroutines drain the pinned tids, so the split intra pull's slices
// and their scheduling never reach the ranks.
func TestHiPaIntraPullGoParallelismInvariant(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 14, EdgeFactor: 16, A: 0.57, B: 0.19, C: 0.19, D: 0.05, Seed: 7, Noise: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	var ranks [][]float32
	for _, procs := range []int{1, 8} {
		o := testOptions(10)
		o.PartitionBytes = 16 << 10
		o.GoParallelism = procs
		res, err := (hipa.Engine{}).Run(g, o)
		if err != nil {
			t.Fatal(err)
		}
		ranks = append(ranks, res.Ranks)
	}
	if d := common.MaxAbsDiff(ranks[0], ranks[1]); d != 0 || ranksFNV64(ranks[0]) != ranksFNV64(ranks[1]) {
		t.Errorf("GoParallelism 1 and 8 ranks differ by %g (must be bit-identical)", d)
	}
}

func TestEnginesOnEmptyAndTinyGraphs(t *testing.T) {
	empty := graph.NewBuilder(0).Build()
	for _, e := range allEngines() {
		if _, err := e.Run(empty, testOptions(3)); err == nil {
			t.Errorf("%s: expected error for empty graph", e.Name())
		}
	}
	// Single vertex with a self loop.
	b := graph.NewBuilder(1)
	b.AddEdge(0, 0)
	one := b.Build()
	for _, e := range allEngines() {
		res, err := e.Run(one, testOptions(3))
		if err != nil {
			t.Fatalf("%s on 1-vertex graph: %v", e.Name(), err)
		}
		if math.Abs(float64(res.Ranks[0])-1) > 1e-5 {
			t.Errorf("%s: single vertex rank = %f, want 1", e.Name(), res.Ranks[0])
		}
	}
}

func TestHiPaMigrationBound(t *testing.T) {
	// Algorithm 2's promise: migrations <= thread count; spawns == threads.
	g, err := gen.Uniform(1000, 8000, 7)
	if err != nil {
		t.Fatal(err)
	}
	o := testOptions(10)
	o.Threads = 40
	res, err := (hipa.Engine{}).Run(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sched.Spawned != 40 {
		t.Errorf("HiPa spawned %d threads, want 40 (persistent)", res.Sched.Spawned)
	}
	if res.Sched.Migrations > 40 {
		t.Errorf("HiPa migrations = %d, must be <= 40", res.Sched.Migrations)
	}
	// Oblivious baseline spawns a pool per phase.
	resP, err := (ppr.Engine{}).Run(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if resP.Sched.Spawned != int64(40*10*2) {
		t.Errorf("p-PR spawned %d, want %d (Algorithm 1)", resP.Sched.Spawned, 40*10*2)
	}
}

func TestEngineDefaults(t *testing.T) {
	g, err := gen.Uniform(500, 3000, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Paper defaults: HiPa/v-PR/Polymer use 40 threads, p-PR/GPOP use 20.
	o := common.Options{Machine: machine.Scaled(machine.SkylakeSilver4210(), 1024), Iterations: 2, PartitionBytes: 256}
	for _, tc := range []struct {
		e    common.Engine
		want int
	}{
		{hipa.Engine{}, 40}, {vpr.Engine{}, 40}, {polymer.Engine{}, 40},
		{ppr.Engine{}, 20}, {gpop.Engine{}, 20},
	} {
		res, err := tc.e.Run(g, o)
		if err != nil {
			t.Fatalf("%s: %v", tc.e.Name(), err)
		}
		if res.Threads != tc.want {
			t.Errorf("%s default threads = %d, want %d", tc.e.Name(), res.Threads, tc.want)
		}
	}
}
