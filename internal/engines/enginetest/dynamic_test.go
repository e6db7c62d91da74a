// Dynamic-graph contracts: Prepared.Advance must be indistinguishable from a
// cold Prepare of the mutated graph, and the warm-start execution paths
// (HiPa dense resume, Delta-PR sparse delta seeding) must land within the
// frontier engines' quality bound of a cold run at every version of a
// mutation replay, at several worker counts.
package enginetest

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"hipa/internal/engines/common"
	"hipa/internal/engines/delta"
	"hipa/internal/engines/gpop"
	"hipa/internal/engines/hipa"
	"hipa/internal/engines/polymer"
	"hipa/internal/engines/ppr"
	"hipa/internal/engines/vpr"
	"hipa/internal/gen"
	"hipa/internal/graph"
	"hipa/internal/machine"
)

// dynamicOptions mirrors the frontier golden options with an explicit worker
// count for both prep and exec, so the Advance/warm differential runs at
// 1, 3, and 8 workers.
func dynamicOptions(workers int) common.Options {
	return common.Options{
		Machine:         machine.Scaled(machine.SkylakeSilver4210(), 1024),
		Threads:         workers,
		PrepParallelism: workers,
		Iterations:      frontierBudget,
		Tolerance:       frontierTol,
		PartitionBytes:  256,
	}
}

// dynamicStep is one version transition of a mutation replay: the delta from
// the previous version and the materialised graph it leads to.
type dynamicStep struct {
	d *graph.Delta
	g *graph.Graph
}

// dynamicReplay applies deterministic mutation batches to a versioned copy
// of the frontier graph and returns the base graph plus one step per batch.
// The same (batches, batchSize) arguments always produce the same steps, so
// worker-count subtests replay identical histories.
func dynamicReplay(t *testing.T, batches, batchSize int) (*graph.Graph, []dynamicStep) {
	t.Helper()
	g0 := frontierGraph()
	vg := graph.NewVersioned(g0)
	stream, err := gen.NewMutationStream(vg, 42, batchSize)
	if err != nil {
		t.Fatalf("mutation stream: %v", err)
	}
	prev := vg.Version()
	_, versions, err := stream.Batches(batches)
	if err != nil {
		t.Fatalf("applying batches: %v", err)
	}
	steps := make([]dynamicStep, 0, batches)
	for _, ver := range versions {
		d, err := vg.DeltaBetween(prev, ver)
		if err != nil {
			t.Fatalf("delta %d→%d: %v", prev, ver, err)
		}
		steps = append(steps, dynamicStep{d: d, g: d.Next})
		prev = ver
	}
	return g0, steps
}

func maxAbsDiff32(a, b []float32) float64 {
	var worst float64
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		if d > worst {
			worst = d
		}
	}
	return worst
}

// TestAdvanceEqualsColdPrepare is the incremental-prep correctness contract:
// patching an artifact forward through a chain of small deltas must yield
// payloads (hierarchy, layout, 1/outdeg) and prep key bit-identical to a
// cold Prepare of each mutated graph, for both artifact kinds that Advance
// patches (partition-centric via HiPa, and Delta-PR which shares the same
// artifact shape).
func TestAdvanceEqualsColdPrepare(t *testing.T) {
	o := dynamicOptions(3)
	g0, steps := dynamicReplay(t, 4, 64)
	for _, eng := range []common.Engine{hipa.Engine{}, delta.Engine{}} {
		t.Run(eng.Name(), func(t *testing.T) {
			prev, err := eng.Prepare(g0, o)
			if err != nil {
				t.Fatalf("cold prepare of base graph: %v", err)
			}
			for i, st := range steps {
				adv, err := prev.Advance(st.d, o)
				if err != nil {
					t.Fatalf("step %d: Advance: %v", i, err)
				}
				if !adv.Incremental {
					t.Fatalf("step %d: Advance took the cold-rebuild fallback on a small batch", i)
				}
				cold, err := eng.Prepare(st.g, o)
				if err != nil {
					t.Fatalf("step %d: cold prepare: %v", i, err)
				}
				if !reflect.DeepEqual(adv.Key(), cold.Key()) {
					t.Fatalf("step %d: advanced key %+v != cold key %+v", i, adv.Key(), cold.Key())
				}
				if !reflect.DeepEqual(adv.Partition().Hier, cold.Partition().Hier) {
					t.Fatalf("step %d: advanced hierarchy differs from cold build", i)
				}
				if !reflect.DeepEqual(adv.Partition().Lay, cold.Partition().Lay) {
					t.Fatalf("step %d: advanced layout differs from cold build", i)
				}
				if !reflect.DeepEqual(adv.Partition().Inv, cold.Partition().Inv) {
					t.Fatalf("step %d: advanced 1/outdeg differs from cold build", i)
				}
				prev = adv
			}
		})
	}
}

// TestAdvanceFallsBackToColdOnHeavyBatch drives one partition far past the
// edge-growth budget: Advance must rebuild cold (Incremental false) and the
// result must still match a from-scratch Prepare bit-for-bit.
func TestAdvanceFallsBackToColdOnHeavyBatch(t *testing.T) {
	o := dynamicOptions(3)
	g0 := frontierGraph()
	vg := graph.NewVersioned(g0)
	prep, err := hipa.Engine{}.Prepare(g0, o)
	if err != nil {
		t.Fatalf("cold prepare: %v", err)
	}
	// Concentrate thousands of inserts on the first 64 vertices — one
	// 256-byte partition — so its edge count blows past 2× + slack.
	var muts []graph.Mutation
	for i := 0; i < 3000; i++ {
		muts = append(muts, graph.Mutation{
			Op:  graph.InsertEdge,
			Src: graph.VertexID(i % 64),
			Dst: graph.VertexID(100 + i/64),
		})
	}
	from := vg.Version()
	ver, err := vg.ApplyBatch(muts)
	if err != nil {
		t.Fatalf("apply heavy batch: %v", err)
	}
	d, err := vg.DeltaBetween(from, ver)
	if err != nil {
		t.Fatalf("delta: %v", err)
	}
	adv, err := prep.Advance(d, o)
	if err != nil {
		t.Fatalf("Advance: %v", err)
	}
	if adv.Incremental {
		t.Fatal("heavy batch should trigger the cold-rebuild fallback, got an incremental patch")
	}
	cold, err := hipa.Engine{}.Prepare(d.Next, o)
	if err != nil {
		t.Fatalf("cold prepare of mutated graph: %v", err)
	}
	if !reflect.DeepEqual(adv.Partition(), cold.Partition()) {
		t.Fatal("fallback rebuild differs from a cold Prepare")
	}
}

// TestWarmStartDifferentialReplay is the acceptance contract for the warm
// execution paths: replaying a mutation stream, at every version the
// HiPa-dense and Delta-PR-sparse warm results must sit within 10× the
// tolerance of a cold Run on the mutated graph — at 1, 3, and 8 workers —
// the warm runs must spend strictly fewer total iterations than the cold
// runs, and Delta-PR's warm ranks must be bit-identical across worker
// counts.
func TestWarmStartDifferentialReplay(t *testing.T) {
	g0, steps := dynamicReplay(t, 3, 96)
	hipaEng, deltaEng := hipa.Engine{}, delta.Engine{}
	limit := 10 * frontierTol
	// deltaByStep[i] holds the 1-worker warm Delta-PR ranks of step i; the
	// 3- and 8-worker subtests must reproduce them bit-for-bit.
	deltaByStep := make([][]float32, len(steps))
	for _, workers := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("%dworkers", workers), func(t *testing.T) {
			o := dynamicOptions(workers)
			hipaPrep, err := hipaEng.Prepare(g0, o)
			if err != nil {
				t.Fatalf("hipa prepare: %v", err)
			}
			deltaPrep, err := deltaEng.Prepare(g0, o)
			if err != nil {
				t.Fatalf("delta prepare: %v", err)
			}
			hipaBase, err := hipaEng.Exec(hipaPrep, o)
			if err != nil {
				t.Fatalf("hipa base run: %v", err)
			}
			deltaBase, err := deltaEng.Exec(deltaPrep, o)
			if err != nil {
				t.Fatalf("delta base run: %v", err)
			}
			warmHipa, warmDelta := hipaBase.Ranks, deltaBase.Ranks
			var warmIters, coldIters int
			for i, st := range steps {
				hipaPrep, err = hipaPrep.Advance(st.d, o)
				if err != nil {
					t.Fatalf("step %d: hipa Advance: %v", i, err)
				}
				deltaPrep, err = deltaPrep.Advance(st.d, o)
				if err != nil {
					t.Fatalf("step %d: delta Advance: %v", i, err)
				}
				cold, err := hipaEng.Run(st.g, o)
				if err != nil {
					t.Fatalf("step %d: cold run: %v", i, err)
				}
				oW := o
				oW.Warm = &common.WarmStart{Ranks: warmHipa}
				wh, err := hipaEng.Exec(hipaPrep, oW)
				if err != nil {
					t.Fatalf("step %d: warm hipa: %v", i, err)
				}
				oD := o
				oD.Warm = &common.WarmStart{Ranks: warmDelta, Delta: st.d}
				wd, err := deltaEng.Exec(deltaPrep, oD)
				if err != nil {
					t.Fatalf("step %d: warm delta: %v", i, err)
				}
				if d := maxAbsDiff32(wh.Ranks, cold.Ranks); d > limit {
					t.Errorf("step %d: warm hipa drifted %.3g from cold (limit %.3g)", i, d, limit)
				}
				if d := maxAbsDiff32(wd.Ranks, cold.Ranks); d > limit {
					t.Errorf("step %d: warm delta drifted %.3g from cold (limit %.3g)", i, d, limit)
				}
				warmIters += wh.Iterations
				coldIters += cold.Iterations
				if workers == 1 {
					deltaByStep[i] = wd.Ranks
				} else if !reflect.DeepEqual(wd.Ranks, deltaByStep[i]) {
					t.Errorf("step %d: warm delta ranks at %d workers differ from the 1-worker run", i, workers)
				}
				warmHipa, warmDelta = wh.Ranks, wd.Ranks
			}
			if warmIters >= coldIters {
				t.Errorf("warm hipa spent %d iterations across the replay, cold spent %d — warm starts should converge faster", warmIters, coldIters)
			}
		})
	}
}

// TestWarmStartRejectedByStaticEngines pins the failure mode of handing a
// warm start to an engine that cannot honor it: a clear error, not a
// silently-cold run.
func TestWarmStartRejectedByStaticEngines(t *testing.T) {
	g := frontierGraph()
	o := testOptions(5)
	warm := &common.WarmStart{Ranks: make([]float32, g.NumVertices())}
	for _, eng := range []common.Engine{ppr.Engine{}, vpr.Engine{}, gpop.Engine{}, polymer.Engine{}} {
		t.Run(eng.Name(), func(t *testing.T) {
			prep, err := eng.Prepare(g, o)
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			oW := o
			oW.Warm = warm
			if _, err := eng.Exec(prep, oW); err == nil {
				t.Fatalf("%s accepted a warm start", eng.Name())
			} else if !strings.Contains(err.Error(), "warm starts are not supported") {
				t.Fatalf("%s rejected the warm start with the wrong error: %v", eng.Name(), err)
			}
		})
	}
}

// TestWarmStartLengthValidation pins the rank-vector length check of both
// warm-capable engines.
func TestWarmStartLengthValidation(t *testing.T) {
	g := frontierGraph()
	o := dynamicOptions(3)
	for _, eng := range []common.Engine{hipa.Engine{}, delta.Engine{}} {
		t.Run(eng.Name(), func(t *testing.T) {
			prep, err := eng.Prepare(g, o)
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			oW := o
			oW.Warm = &common.WarmStart{Ranks: make([]float32, 7)}
			if _, err := eng.Exec(prep, oW); err == nil {
				t.Fatalf("%s accepted a warm rank vector of the wrong length", eng.Name())
			} else if !strings.Contains(err.Error(), "warm-start ranks") {
				t.Fatalf("%s rejected with the wrong error: %v", eng.Name(), err)
			}
		})
	}
}

// TestArenasSurviveSwap: an Exec that holds its arena across a reload
// returns it to the superseded artifact's pool, which forwards it to the
// published artifact's, so a chain of reloads under load creates one arena
// in all: every later checkout, on whichever version, reuses it.
func TestArenasSurviveSwap(t *testing.T) {
	o := dynamicOptions(3)
	g0, steps := dynamicReplay(t, 4, 64)
	eng := hipa.Engine{}
	prep, err := eng.Prepare(g0, o)
	if err != nil {
		t.Fatal(err)
	}
	chain := []*common.Prepared{prep}
	for i, st := range steps {
		held := prep.AcquireArena() // an Exec in flight across the swap
		next, err := prep.Advance(st.d, o)
		if err != nil {
			t.Fatalf("step %d: Advance: %v", i, err)
		}
		prep.Supersede(next)
		prep.ReleaseArena(held)
		if _, err := eng.Exec(next, o); err != nil {
			t.Fatalf("step %d: exec on advanced artifact: %v", i, err)
		}
		chain = append(chain, next)
		prep = next
		var created int64
		for _, p := range chain {
			created += p.ArenaStats().Created
		}
		if created != 1 {
			t.Fatalf("after reload %d: %d arenas created over the version chain, want 1", i+1, created)
		}
	}
}
