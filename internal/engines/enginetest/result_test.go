package enginetest

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"hipa/internal/engines/common"
	"hipa/internal/engines/gpop"
	"hipa/internal/engines/hipa"
	"hipa/internal/engines/polymer"
	"hipa/internal/engines/ppr"
	"hipa/internal/engines/vpr"
	"hipa/internal/gen"
	"hipa/internal/harness"
	"hipa/internal/obs"
)

// spawnModel classifies an engine's simulated thread lifecycle (see
// internal/sched): Algorithm 2 spawns T persistent pinned threads;
// Algorithm 1 spawns a fresh pool per phase (2 per iteration), either
// unbound (p-PR, v-PR, GPOP) or node-bound (Polymer).
type spawnModel int

const (
	pinnedOnce    spawnModel = iota // Algorithm 2
	perPhase                        // Algorithm 1, unbound
	perPhaseBound                   // Algorithm 1, bound to nodes
)

// TestResultInvariants checks, for every engine, the Result contract: rank
// sum ≈ 1, Iterations/Threads echoing the options, and scheduler stats
// consistent with the engine's spawn model.
func TestResultInvariants(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Vertices: 2000, Edges: 24000, OutAlpha: 2.1, InAlpha: 0.9, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	const threads, iters = 8, 7
	for _, tc := range []struct {
		e     common.Engine
		model spawnModel
	}{
		{hipa.Engine{}, pinnedOnce},
		{ppr.Engine{}, perPhase},
		{vpr.Engine{}, perPhase},
		{gpop.Engine{}, perPhase},
		{polymer.Engine{}, perPhaseBound},
	} {
		o := testOptions(iters)
		o.Threads = threads
		res, err := tc.e.Run(g, o)
		if err != nil {
			t.Fatalf("%s: %v", tc.e.Name(), err)
		}
		if got := common.RankSum(res.Ranks); math.Abs(got-1) > 1e-3 {
			t.Errorf("%s: rank sum = %f, want ≈1", tc.e.Name(), got)
		}
		if res.Iterations != iters {
			t.Errorf("%s: Iterations = %d, want %d", tc.e.Name(), res.Iterations, iters)
		}
		if res.Threads != threads {
			t.Errorf("%s: Threads = %d, want %d", tc.e.Name(), res.Threads, threads)
		}
		s := res.Sched
		switch tc.model {
		case pinnedOnce:
			// Algorithm 2: T persistent threads, at most one migration each
			// (the pin at spawn), no per-phase respawning.
			if s.Spawned != threads {
				t.Errorf("%s: spawned %d, want %d (persistent threads)", tc.e.Name(), s.Spawned, threads)
			}
			if s.Migrations > threads {
				t.Errorf("%s: migrations %d > thread count %d", tc.e.Name(), s.Migrations, threads)
			}
		case perPhase:
			// Algorithm 1 unbound: a fresh pool per phase, 2 phases per
			// iteration; never bound, so never migrated.
			if want := int64(threads * iters * 2); s.Spawned != want {
				t.Errorf("%s: spawned %d, want %d (pool per phase)", tc.e.Name(), s.Spawned, want)
			}
			if s.Bindings != 0 || s.Migrations != 0 {
				t.Errorf("%s: bindings=%d migrations=%d, want 0/0 (unbound threads cannot migrate)",
					tc.e.Name(), s.Bindings, s.Migrations)
			}
		case perPhaseBound:
			// Polymer: Algorithm-1 pools with node binding — every spawn is
			// bound, and wrong-node spawns migrate (the §3.3.2 storm).
			if want := int64(threads * iters * 2); s.Spawned != want {
				t.Errorf("%s: spawned %d, want %d (pool per phase)", tc.e.Name(), s.Spawned, want)
			}
			if s.Bindings != s.Spawned {
				t.Errorf("%s: bindings=%d, want %d (every spawned thread bound)", tc.e.Name(), s.Bindings, s.Spawned)
			}
			if s.Migrations == 0 || s.Migrations > s.Bindings {
				t.Errorf("%s: migrations=%d, want in (0, %d] (binding storm)", tc.e.Name(), s.Migrations, s.Bindings)
			}
		}
		if res.Iters != nil {
			t.Errorf("%s: Result.Iters populated without a recorder", tc.e.Name())
		}
	}
}

// TestEngineTelemetry runs every engine with a Recorder attached and checks
// the observability contract: per-iteration stats for every iteration,
// model-consistent traffic annotation, pipeline spans on the trace, and a
// trace export that parses.
func TestEngineTelemetry(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Vertices: 2000, Edges: 24000, OutAlpha: 2.1, InAlpha: 0.9, Seed: 78})
	if err != nil {
		t.Fatal(err)
	}
	const iters = 6
	for _, e := range allEngines() {
		rec := &obs.Recorder{Trace: obs.NewTrace()}
		o := testOptions(iters)
		o.Threads = 8
		o.Obs = rec
		res, err := e.Run(g, o)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}

		// Per-iteration stats: one record per iteration, positive wall
		// time, decreasing residual trend, full traffic annotation.
		if len(res.Iters) != iters {
			t.Fatalf("%s: got %d IterationStats, want %d", e.Name(), len(res.Iters), iters)
		}
		var localSum, remoteSum int64
		for i, it := range res.Iters {
			if it.Iter != i {
				t.Errorf("%s: iteration %d has Iter=%d", e.Name(), i, it.Iter)
			}
			if it.WallSeconds <= 0 {
				t.Errorf("%s: iteration %d wall = %g", e.Name(), i, it.WallSeconds)
			}
			if it.Residual <= 0 {
				t.Errorf("%s: iteration %d residual = %g", e.Name(), i, it.Residual)
			}
			if it.LocalAccesses <= 0 {
				t.Errorf("%s: iteration %d local accesses = %d", e.Name(), i, it.LocalAccesses)
			}
			localSum += it.LocalBytes
			remoteSum += it.RemoteBytes
		}
		if res.Iters[iters-1].Residual >= res.Iters[0].Residual {
			t.Errorf("%s: residual did not decrease: first %g, last %g",
				e.Name(), res.Iters[0].Residual, res.Iters[iters-1].Residual)
		}
		// The per-iteration annotation partitions the model totals (up to
		// integer division remainders < iters bytes).
		if res.Model != nil {
			if diff := res.Model.LocalBytes - localSum; diff < 0 || diff >= iters {
				t.Errorf("%s: per-iteration local bytes sum %d vs model %d", e.Name(), localSum, res.Model.LocalBytes)
			}
			if diff := res.Model.RemoteBytes - remoteSum; diff < 0 || diff >= iters {
				t.Errorf("%s: per-iteration remote bytes sum %d vs model %d", e.Name(), remoteSum, res.Model.RemoteBytes)
			}
		}
		var migSum int64
		for _, it := range res.Iters {
			migSum += it.SchedMigrations
		}
		if migSum != res.Sched.Migrations {
			t.Errorf("%s: per-iteration migrations sum %d != sched total %d", e.Name(), migSum, res.Sched.Migrations)
		}

		// The run's scalar facts live on typed fields: rank mass, echoed
		// shape, scheduler activity, and the prep and run clocks.
		if rs := common.RankSum(res.Ranks); math.Abs(rs-1) > 1e-3 {
			t.Errorf("%s: rank sum = %g", e.Name(), rs)
		}
		if res.Iterations == 0 || res.Threads == 0 || res.Sched.Spawned == 0 {
			t.Errorf("%s: iterations/threads/spawned = %d/%d/%d, want all > 0", e.Name(), res.Iterations, res.Threads, res.Sched.Spawned)
		}
		if res.PrepSeconds <= 0 || res.WallSeconds <= 0 {
			t.Errorf("%s: prep/wall seconds = %g/%g, want both > 0", e.Name(), res.PrepSeconds, res.WallSeconds)
		}
		var report bytes.Buffer
		if err := harness.NewRunReport(g, nil, res).WriteJSON(&report); err != nil {
			t.Fatalf("%s: run report: %v", e.Name(), err)
		}
		var rep map[string]json.RawMessage
		if err := json.Unmarshal(report.Bytes(), &rep); err != nil {
			t.Fatalf("%s: run report is not valid JSON: %v", e.Name(), err)
		}
		var detail []obs.IterationStats
		var vertices, edges int64
		for key, dst := range map[string]any{"iterations_detail": &detail, "vertices": &vertices, "edges": &edges} {
			if err := json.Unmarshal(rep[key], dst); err != nil {
				t.Errorf("%s: run report %q: %v", e.Name(), key, err)
			}
		}
		if len(detail) != res.Iterations || vertices != int64(g.NumVertices()) || edges != g.NumEdges() {
			t.Errorf("%s: run report has %d iterations_detail, %d vertices, %d edges; want %d/%d/%d",
				e.Name(), len(detail), vertices, edges, res.Iterations, g.NumVertices(), g.NumEdges())
		}
		for _, gone := range []string{"counters", "gauges", "phase_seconds"} {
			if _, ok := rep[gone]; ok {
				t.Errorf("%s: run report still carries %q", e.Name(), gone)
			}
		}

		// Trace: scatter and gather spans for every iteration on worker
		// lanes, and the export parses as trace_event JSON.
		var buf bytes.Buffer
		if err := rec.T().WriteJSON(&buf); err != nil {
			t.Fatalf("%s: trace export: %v", e.Name(), err)
		}
		var tf struct {
			TraceEvents []struct {
				Name string `json:"name"`
				Ph   string `json:"ph"`
				TID  int    `json:"tid"`
				Args struct {
					Iter *int64 `json:"iter"`
				} `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
			t.Fatalf("%s: trace is not valid JSON: %v", e.Name(), err)
		}
		scatterIters := map[int64]bool{}
		lanes := map[int]bool{}
		var gathers, preps int
		for _, ev := range tf.TraceEvents {
			switch {
			case ev.Ph == "M":
				lanes[ev.TID] = true
			case ev.Name == common.SpanScatter && ev.Args.Iter != nil:
				scatterIters[*ev.Args.Iter] = true
			case ev.Name == common.SpanGather:
				gathers++
			case ev.Name == common.SpanPrepPartition || ev.Name == common.SpanPrepLayout || ev.Name == common.SpanPrepIndex:
				preps++
			}
		}
		if len(scatterIters) != iters {
			t.Errorf("%s: scatter spans cover %d iterations, want %d", e.Name(), len(scatterIters), iters)
		}
		if gathers == 0 || preps == 0 {
			t.Errorf("%s: gather spans = %d, prep spans = %d, want both > 0", e.Name(), gathers, preps)
		}
		if len(lanes) != res.Threads+1 {
			t.Errorf("%s: %d trace lanes, want %d workers + runner", e.Name(), len(lanes), res.Threads+1)
		}
	}
}

// TestTelemetryWithTolerance checks that early termination and telemetry
// agree: the recorded iterations match the performed count and the last
// residual is below the tolerance.
func TestTelemetryWithTolerance(t *testing.T) {
	g, err := gen.Uniform(1500, 18000, 99)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range allEngines() {
		rec := &obs.Recorder{}
		o := testOptions(50)
		o.Threads = 4
		o.Tolerance = 1e-4
		o.Obs = rec
		res, err := e.Run(g, o)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if res.Iterations >= 50 {
			t.Errorf("%s: no early termination (%d iterations)", e.Name(), res.Iterations)
		}
		if len(res.Iters) != res.Iterations {
			t.Errorf("%s: %d IterationStats for %d iterations", e.Name(), len(res.Iters), res.Iterations)
		}
		last := res.Iters[len(res.Iters)-1]
		if last.Residual >= 1e-4 {
			t.Errorf("%s: final residual %g not below tolerance", e.Name(), last.Residual)
		}
	}
}
