package enginetest

import (
	"strings"
	"sync"
	"testing"

	"hipa/internal/engines/bppr"
	"hipa/internal/engines/common"
	"hipa/internal/engines/delta"
	"hipa/internal/engines/hipa"
	"hipa/internal/gen"
	"hipa/internal/machine"
)

// TestPrepareExecMatchesRun: for every engine on every modelled preset,
// Prepare followed by Exec is bit-identical to Run — same ranks, iteration
// counts, and model estimate.
func TestPrepareExecMatchesRun(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Vertices: 2500, Edges: 30000, OutAlpha: 2.1, InAlpha: 0.9, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, pm := range presetMachines() {
		t.Run(pm.name, func(t *testing.T) {
			o := testOptions(8)
			o.Machine = pm.m
			for _, e := range allEngines() {
				run, err := e.Run(g, o)
				if err != nil {
					t.Fatalf("%s: Run: %v", e.Name(), err)
				}
				prep, err := e.Prepare(g, o)
				if err != nil {
					t.Fatalf("%s: Prepare: %v", e.Name(), err)
				}
				if prep.Engine() != e.Name() {
					t.Errorf("%s: prepared artifact labelled %q", e.Name(), prep.Engine())
				}
				if prep.PrepSeconds <= 0 || prep.BuildSeconds <= 0 {
					t.Errorf("%s: prep timings not measured: prep=%g build=%g",
						e.Name(), prep.PrepSeconds, prep.BuildSeconds)
				}
				res, err := e.Exec(prep, o)
				if err != nil {
					t.Fatalf("%s: Exec: %v", e.Name(), err)
				}
				if len(res.Ranks) != len(run.Ranks) {
					t.Fatalf("%s: rank vector length %d vs Run's %d", e.Name(), len(res.Ranks), len(run.Ranks))
				}
				for i := range run.Ranks {
					if res.Ranks[i] != run.Ranks[i] {
						t.Fatalf("%s: rank[%d] = %g via Prepare+Exec, %g via Run (must be bit-identical)",
							e.Name(), i, res.Ranks[i], run.Ranks[i])
					}
				}
				if res.Iterations != run.Iterations {
					t.Errorf("%s: iterations %d vs Run's %d", e.Name(), res.Iterations, run.Iterations)
				}
				if res.Model.EstimatedSeconds != run.Model.EstimatedSeconds {
					t.Errorf("%s: model estimate %g vs Run's %g",
						e.Name(), res.Model.EstimatedSeconds, run.Model.EstimatedSeconds)
				}
				if res.Model.LocalBytes != run.Model.LocalBytes || res.Model.RemoteBytes != run.Model.RemoteBytes {
					t.Errorf("%s: model traffic (%d,%d) vs Run's (%d,%d)", e.Name(),
						res.Model.LocalBytes, res.Model.RemoteBytes, run.Model.LocalBytes, run.Model.RemoteBytes)
				}
			}
		})
	}
}

// TestConcurrentExecShared: one Prepared artifact, many concurrent Exec
// calls (run under -race in CI). Every execution must produce the same
// rank vector.
func TestConcurrentExecShared(t *testing.T) {
	g, err := gen.Uniform(1500, 18000, 99)
	if err != nil {
		t.Fatal(err)
	}
	o := testOptions(6)
	for _, e := range allEngines() {
		prep, err := e.Prepare(g, o)
		if err != nil {
			t.Fatalf("%s: Prepare: %v", e.Name(), err)
		}
		const workers = 5
		results := make([]*common.Result, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				results[w], errs[w] = e.Exec(prep, o)
			}(w)
		}
		wg.Wait()
		for w := 0; w < workers; w++ {
			if errs[w] != nil {
				t.Fatalf("%s: concurrent Exec %d: %v", e.Name(), w, errs[w])
			}
			if d := common.MaxAbsDiff(results[0].Ranks, results[w].Ranks); d != 0 {
				t.Errorf("%s: concurrent Exec %d diverged by %g", e.Name(), w, d)
			}
		}
	}
}

// TestExecRejectsMismatches: Exec validates artifact/engine/options
// compatibility instead of silently computing with the wrong layout. Every
// engine of HiPa's pinned execution shape rejects each artifact-key
// mismatch and an over-subscribed machine under its own error prefix, and
// returns the arena it checked out.
func TestExecRejectsMismatches(t *testing.T) {
	g, err := gen.Uniform(800, 8000, 5)
	if err != nil {
		t.Fatal(err)
	}
	o := testOptions(4)
	hipaE := allEngines()[0]
	pprE := allEngines()[1]
	prep, err := hipaE.Prepare(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pprE.Exec(prep, o); err == nil {
		t.Error("p-PR accepted a HiPa artifact")
	}
	if _, err := hipaE.Exec(nil, o); err == nil {
		t.Error("Exec accepted a nil artifact")
	}

	batchExec := func(prep *common.Prepared, o common.Options) (*common.Result, error) {
		_, err := bppr.ExecBatch(prep, o, []bppr.Query{{}})
		return nil, err
	}
	engines := []struct {
		name, prefix string
		engine       common.Engine
		exec         func(*common.Prepared, common.Options) (*common.Result, error)
	}{
		{"HiPa", "hipa", hipa.Engine{}, nil},
		{"Delta-PR", "delta", delta.Engine{}, nil},
		{"B-PPR", "bppr", bppr.Engine{}, nil},
		{"B-PPR-ExecBatch", "bppr", bppr.Engine{}, batchExec},
	}
	mismatches := []struct {
		name, want string // want: a phrase of the expected rejection
		mutate     func(*common.Options)
	}{
		{"partition-bytes", "partitions", func(o *common.Options) { o.PartitionBytes *= 2 }},
		{"no-compress", "compression", func(o *common.Options) { o.NoCompress = true }},
		{"vertex-balanced", "VertexBalanced", func(o *common.Options) { o.VertexBalanced = true }},
		{"numa-nodes", "NUMA nodes", func(o *common.Options) { o.Machine = machine.WithNodes(o.Machine, 2*o.Machine.NUMANodes) }},
		{"threads-over-cores", "logical cores", func(o *common.Options) { o.Threads = o.Machine.LogicalCores() + o.Machine.NUMANodes }},
	}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			prep, err := e.engine.Prepare(g, o)
			if err != nil {
				t.Fatal(err)
			}
			exec := e.exec
			if exec == nil {
				exec = e.engine.Exec
			}
			for _, m := range mismatches {
				bad := o
				m.mutate(&bad)
				_, err := exec(prep, bad)
				if err == nil {
					t.Errorf("%s: Exec accepted the mismatch", m.name)
				} else if msg := err.Error(); !strings.HasPrefix(msg, e.prefix+": ") || !strings.Contains(msg, m.want) {
					t.Errorf("%s: got %q, want a %q rejection naming %q", m.name, msg, e.prefix, m.want)
				}
				if out := prep.ArenaStats().Outstanding; out != 0 {
					t.Errorf("%s: %d arenas outstanding after the rejection", m.name, out)
				}
			}
			// Different thread counts are NOT a mismatch: the thread-dependent
			// group stage is recomputed per Exec.
			more := o
			more.Threads = 4
			if _, err := exec(prep, more); err != nil {
				t.Errorf("Exec rejected a thread-count change: %v", err)
			}
		})
	}
}

// TestPrepCacheSharedArtifact: with a shared cache, the five engines build
// four artifacts (v-PR and Polymer share the vertex artifact) and every
// second Prepare is a hit.
func TestPrepCacheSharedArtifact(t *testing.T) {
	g, err := gen.Uniform(1200, 14000, 44)
	if err != nil {
		t.Fatal(err)
	}
	o := testOptions(4)
	o.PrepCache = common.NewPrepCache(16)
	for _, e := range allEngines() {
		p1, err := e.Prepare(g, o)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		p2, err := e.Prepare(g, o)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if !p2.FromCache {
			t.Errorf("%s: second Prepare missed the cache", e.Name())
		}
		if p1.Key() != p2.Key() {
			t.Errorf("%s: keys differ across identical Prepares", e.Name())
		}
		res, err := e.Exec(p2, o)
		if err != nil {
			t.Fatalf("%s: Exec on cached artifact: %v", e.Name(), err)
		}
		if !res.PrepFromCache {
			t.Errorf("%s: Result.PrepFromCache = false for a cached artifact", e.Name())
		}
	}
	s := o.PrepCache.Stats()
	// Artifacts are content-keyed, not engine-keyed: with identical options,
	// p-PR and GPOP share one NUMA-oblivious partition artifact, and v-PR
	// and Polymer share one vertex artifact. HiPa's key differs (NUMA node
	// count): 3 builds, 7 hits (5 second-Prepares + GPOP's and Polymer's
	// first Prepares landing on shared entries).
	if s.Misses != 3 {
		t.Errorf("builds = %d, want 3 (structurally identical artifacts must share)", s.Misses)
	}
	if s.Hits != 7 {
		t.Errorf("hits = %d, want 7", s.Hits)
	}
	if s.Evictions != 0 {
		t.Errorf("evictions = %d, want 0", s.Evictions)
	}
}

// TestPrepCacheGeometryNoCollision: with PartitionBytes defaulted, the
// partition size is derived from the machine's cache geometry
// (TunedPartitionBytes), so a cache shared between Skylake (non-inclusive
// 1MB L2 → 256KB partitions) and Haswell (inclusive 256KB L2 → 128KB) must
// hold two distinct entries — regression test for geometry being absent
// from the prep key and one machine's layout silently serving the other.
func TestPrepCacheGeometryNoCollision(t *testing.T) {
	g, err := gen.Uniform(1200, 14000, 44)
	if err != nil {
		t.Fatal(err)
	}
	cache := common.NewPrepCache(16)
	e := allEngines()[0] // HiPa
	oSky := common.Options{Machine: machine.SkylakeSilver4210(), Iterations: 2, PrepCache: cache}
	oHas := common.Options{Machine: machine.HaswellE52667(), Iterations: 2, PrepCache: cache}
	pSky, err := e.Prepare(g, oSky)
	if err != nil {
		t.Fatal(err)
	}
	pHas, err := e.Prepare(g, oHas)
	if err != nil {
		t.Fatal(err)
	}
	if pSky.Key() == pHas.Key() {
		t.Fatalf("Skylake and Haswell default preps share key %+v", pSky.Key())
	}
	if pHas.FromCache {
		t.Error("Haswell Prepare was served the Skylake artifact")
	}
	if s := cache.Stats(); s.Misses != 2 || s.Hits != 0 {
		t.Errorf("stats = %+v, want 2 misses / 0 hits (one entry per geometry)", s)
	}
	// Each machine hits its own entry on re-prepare.
	for _, o := range []common.Options{oSky, oHas} {
		p, err := e.Prepare(g, o)
		if err != nil {
			t.Fatal(err)
		}
		if !p.FromCache {
			t.Errorf("re-Prepare on %s missed its own entry", o.Machine.Name)
		}
	}
}

// TestToleranceIterationAgreement: with early termination, the executed
// iteration count, the model's priced iteration count, and the recorded
// per-iteration stats must agree for every engine — traffic is attributed
// to iterations that actually ran.
func TestToleranceIterationAgreement(t *testing.T) {
	g, err := gen.Uniform(1000, 12000, 11)
	if err != nil {
		t.Fatal(err)
	}
	o := testOptions(50)
	o.Tolerance = 1e-4
	for _, e := range allEngines() {
		res, err := e.Run(g, o)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if res.Iterations >= 50 {
			t.Errorf("%s: tolerance did not terminate early (%d iterations)", e.Name(), res.Iterations)
		}
		if res.Model.Iterations != res.Iterations {
			t.Errorf("%s: model priced %d iterations, engine ran %d",
				e.Name(), res.Model.Iterations, res.Iterations)
		}
	}
}
