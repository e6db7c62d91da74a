// Command hipapr runs PageRank on a graph file with a chosen engine and
// prints timing, memory metrics, and the top-ranked vertices.
//
// Usage:
//
//	hipapr -graph g.bin [-engine hipa|p-pr|v-pr|gpop|polymer|ec-hipa|nb-pr|delta]
//	       [-iters 20] [-threads 0] [-partition 256K] [-platform skylake]
//	       [-divisor 1] [-top 10] [-verify] [-verify-tol 1e-6] [-tol 0]
//	       [-repeat 1] [-stats s.json] [-trace t.json]
//	       [-mutations m.txt] [-metrics-addr 127.0.0.1:0]
//
// -platform selects the execution substrate: a modelled microarchitecture
// (skylake, haswell — full scheduler/NUMA/cache simulation and a
// performance report) or native (pure wall-clock execution; modelled
// metrics are reported as zero, never fabricated, and the native run pays
// no modelling overhead).
// -repeat N prepares the engine's preprocessing artifact once and executes
// the iterative phase N times against it (the prepare-once / query-many
// serving pattern); the report and printout describe the last execution,
// plus an amortization line over all N and the scratch-arena reuse count
// (sequential Execs against one artifact recycle a single arena — see the
// Exec memory model in DESIGN.md).
// -stats writes a machine-readable run report (graph shape, run scalars,
// model and scheduler stats, per-iteration residuals, dangling mass,
// modelled local/remote accesses).
// -trace writes a Chrome trace_event file loadable in chrome://tracing or
// https://ui.perfetto.dev, with one lane per simulated thread. Both -stats
// and -trace files are written atomically (temp file + rename).
// -metrics-addr serves live telemetry on the given address for the whole
// run (pass 127.0.0.1:0 for an ephemeral port; the bound URL is printed
// first): /metrics is Prometheus text exposition with superstep-latency,
// prep-stage, cache, and arena series, /healthz a liveness probe, /runs the
// recent run reports as JSON, /debug/pprof/ the Go profiler. Useful with
// -repeat, where a long loop can be scraped and profiled mid-flight.
// -verify exits nonzero (with the diff on stderr) when the L∞ error
// against the sequential float64 reference exceeds -verify-tol.
// -tol enables residual-based early termination at the given tolerance
// (engines that prune or warm-start default internally when 0).
// -mutations replays a mutation-stream file ("+/-/commit" lines — see
// graph.ReadMutationBatches) after the base run: each batch is applied to a
// versioned copy of the graph, the preprocessing artifact is patched
// forward with Prepared.Advance, and the engine re-ranks warm from the
// previous version's ranks — densely for hipa, sparsely (delta-seeded) for
// the delta engine. Other engines cannot warm-start and reject the flag.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hipa/internal/engines/common"
	deltaengine "hipa/internal/engines/delta"
	"hipa/internal/execbuf"
	"hipa/internal/graph"
	"hipa/internal/harness"
	"hipa/internal/machine"
	"hipa/internal/obs"
	"hipa/internal/obs/telemetry"
	"hipa/internal/platform"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "binary HGR1 graph file (required)")
		engine    = flag.String("engine", "hipa", "engine: hipa, p-pr, v-pr, gpop, polymer, ec-hipa (ec), nb-pr (nb)")
		iters     = flag.Int("iters", 20, "iterations")
		threads   = flag.Int("threads", 0, "worker threads (0 = engine default)")
		partition = flag.String("partition", "", "partition size, e.g. 256K or 1M (default: engine default)")
		pfName    = flag.String("platform", "skylake", "execution platform: skylake, haswell (modelled), or native (wall-clock only)")
		divisor   = flag.Int("divisor", 1, "machine capacity scale divisor (match the graph's)")
		top       = flag.Int("top", 10, "print the top-K ranked vertices")
		verify    = flag.Bool("verify", false, "validate against the sequential float64 reference; exit 1 on failure")
		verifyTol = flag.Float64("verify-tol", 1e-6, "max abs error tolerated by -verify")
		tol       = flag.Float64("tol", 0, "convergence tolerance for residual-based early termination (0 = run all -iters; pruning/warm engines default internally)")
		mutPath   = flag.String("mutations", "", "replay a mutation-stream file with warm incremental re-ranks (engine hipa or delta)")
		damping   = flag.Float64("damping", 0.85, "damping factor")
		repeat    = flag.Int("repeat", 1, "execute the iterative phase N times against one prepared artifact")
		prepPar   = flag.Int("prep-parallelism", 0, "Prepare-pipeline worker count (0 = all cores, 1 = serial); artifacts are identical at any setting")
		statsPath = flag.String("stats", "", "write a machine-readable run report (JSON) to this file")
		tracePath = flag.String("trace", "", "write a Chrome trace_event file (JSON) to this file")
		metrics   = flag.String("metrics-addr", "", "serve live telemetry (/metrics, /healthz, /runs, /debug/pprof/) on this address for the whole run; 127.0.0.1:0 picks a free port")
	)
	flag.Parse()
	e, err := harness.EngineByName(*engine)
	if err != nil {
		// Spell out every accepted value, one per line, instead of a bare
		// unknown-engine error — and do it before touching the graph file,
		// so the listing works without a valid -graph.
		fmt.Fprintf(os.Stderr, "hipapr: unknown engine %q; available engines:\n", *engine)
		for _, name := range harness.EngineNames() {
			fmt.Fprintf(os.Stderr, "  %s\n", name)
		}
		os.Exit(2)
	}
	if *graphPath == "" {
		fail("missing -graph")
	}
	g, err := graph.LoadBinary(*graphPath)
	if err != nil {
		fail(err.Error())
	}
	// "native" runs on the default (Skylake) topology for structural
	// decisions — partitioning, NUMA placement — but skips all modelling.
	native := *pfName == "native"
	presetName := *pfName
	if native {
		presetName = "skylake"
	}
	mk, ok := machine.Presets[presetName]
	if !ok {
		fail("unknown platform " + *pfName + " (want skylake, haswell, or native)")
	}
	m := machine.Scaled(mk(), *divisor)

	// Live telemetry, bound before any heavy work so a scraper can attach
	// from the very start of the run.
	var tel *telemetry.Server
	if *metrics != "" {
		tel, err = telemetry.Start(*metrics, telemetry.Options{})
		if err != nil {
			fail(err.Error())
		}
		defer tel.Close()
		fmt.Printf("telemetry  : serving %s/metrics (also /healthz, /runs, /debug/pprof/)\n", tel.URL())
	}

	var rec *obs.Recorder
	if *statsPath != "" || *tracePath != "" {
		rec = &obs.Recorder{}
		if *tracePath != "" {
			rec.Trace = obs.NewTrace()
		}
	}

	o := common.Options{
		Machine:         m,
		Iterations:      *iters,
		Threads:         *threads,
		Damping:         *damping,
		Tolerance:       *tol,
		PrepParallelism: *prepPar,
		Obs:             rec,
	}
	if tel != nil {
		// Route Prepare through an instrumented artifact cache so the cache
		// series appear on /metrics (a single run records one build).
		cache := common.NewPrepCache(0)
		cache.Instrument(nil)
		o.PrepCache = cache
	}
	if native {
		o.Platform = platform.NewNative(m)
	}
	if *partition != "" {
		pb, err := parseSize(*partition)
		if err != nil {
			fail(err.Error())
		}
		o.PartitionBytes = pb
	}
	// When -partition is absent the engines derive the size from the scaled
	// machine's cache geometry (machine.TunedPartitionBytes), which keeps
	// the partition-to-cache ratio at paper scale for any divisor.

	if *repeat < 1 {
		fail("-repeat must be >= 1")
	}
	var res *common.Result
	var execTotal float64
	var arenas execbuf.PoolStats
	if *repeat == 1 {
		res, err = e.Run(g, o)
		if err != nil {
			fail(err.Error())
		}
		execTotal = res.WallSeconds
		if tel != nil {
			tel.Runs().Add(harness.NewRunReport(g, m, res))
		}
	} else {
		// Prepare once (with the recorder, so the prep spans land in the
		// trace), then execute repeatedly. Only the last execution carries
		// the recorder: per-iteration stats describe one run, not N merged.
		prep, err := e.Prepare(g, o)
		if err != nil {
			fail(err.Error())
		}
		quiet := o
		quiet.Obs = nil
		for i := 0; i < *repeat-1; i++ {
			r, err := e.Exec(prep, quiet)
			if err != nil {
				fail(err.Error())
			}
			execTotal += r.WallSeconds
			if tel != nil {
				tel.Runs().Add(harness.NewRunReport(g, m, r))
			}
		}
		res, err = e.Exec(prep, o)
		if err != nil {
			fail(err.Error())
		}
		execTotal += res.WallSeconds
		if tel != nil {
			tel.Runs().Add(harness.NewRunReport(g, m, res))
		}
		arenas = prep.ArenaStats()
	}
	fmt.Printf("engine     : %s (%d threads, %d iterations)\n", res.Engine, res.Threads, res.Iterations)
	fmt.Printf("graph      : %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	fmt.Printf("wall       : %.4fs (+ %.4fs preprocessing)\n", res.WallSeconds, res.PrepSeconds)
	if *repeat > 1 {
		fmt.Printf("amortized  : %d executions in %.4fs; prep is %.1f%% of total\n",
			*repeat, execTotal, 100*res.PrepSeconds/(res.PrepSeconds+execTotal))
		fmt.Printf("arena      : %d allocated, %d reused (sequential Execs recycle one scratch arena)\n",
			arenas.Created, arenas.Reused)
	}
	if native {
		fmt.Printf("modelled   : skipped (native platform; wall-clock only)\n")
	} else {
		fmt.Printf("modelled   : %.4fs on %s\n", res.Model.EstimatedSeconds, m)
		fmt.Printf("memory     : %.2f bytes/edge (%.1f%% remote)\n", res.Model.MApE, 100*res.Model.RemoteFraction)
		fmt.Printf("scheduler  : %d spawns, %d migrations\n", res.Sched.Spawned, res.Sched.Migrations)
	}

	if *statsPath != "" {
		if err := harness.NewRunReport(g, m, res).WriteJSONFile(*statsPath); err != nil {
			fail(err.Error())
		}
		fmt.Printf("stats      : wrote %s (%d iterations, %s kernels)\n", *statsPath, len(res.Iters), common.KernelSet())
	}
	if *tracePath != "" {
		if err := rec.T().WriteJSONFile(*tracePath); err != nil {
			fail(err.Error())
		}
		fmt.Printf("trace      : wrote %s (%d spans; load in chrome://tracing or ui.perfetto.dev)\n",
			*tracePath, rec.T().NumSpans())
	}

	verifyFailed := false
	if *verify {
		ref := common.ReferencePageRank(g, res.Iterations, *damping)
		var worst float64
		for v := range ref {
			d := ref[v] - float64(res.Ranks[v])
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
		if worst > *verifyTol {
			verifyFailed = true
			fmt.Fprintf(os.Stderr, "hipapr: verification FAILED: max abs error vs reference = %.6e exceeds tolerance %.6e\n", worst, *verifyTol)
		} else {
			fmt.Printf("verify     : OK, max abs error vs reference = %.2e (tolerance %.2e)\n", worst, *verifyTol)
		}
	}

	if *mutPath != "" {
		res = replayMutations(e, g, o, res, *mutPath)
	}

	if *top > 0 {
		fmt.Printf("top %d vertices by rank:\n", *top)
		for _, v := range topK(res.Ranks, *top) {
			fmt.Printf("  %8d  %.6g\n", v, res.Ranks[v])
		}
	}
	if verifyFailed {
		os.Exit(1)
	}
}

// replayMutations applies each batch of a mutation-stream file to a
// versioned copy of g, patches the engine's artifact forward with
// Prepared.Advance, and re-ranks warm from the previous version's ranks.
// Returns the final version's result so the top-K listing reflects it.
func replayMutations(e common.Engine, g *graph.Graph, o common.Options, base *common.Result, path string) *common.Result {
	sparse := false
	switch e.Name() {
	case "HiPa":
	case deltaengine.Name:
		sparse = true
	default:
		fail(fmt.Sprintf("-mutations needs a warm-startable engine (hipa or delta), not %s", e.Name()))
	}
	f, err := os.Open(path)
	if err != nil {
		fail(err.Error())
	}
	batches, err := graph.ReadMutationBatches(f)
	f.Close()
	if err != nil {
		fail(err.Error())
	}
	mode := "dense (full warm resume)"
	if sparse {
		mode = "sparse (delta-seeded)"
	}
	fmt.Printf("mutations  : replaying %d batches from %s, %s warm re-ranks\n", len(batches), path, mode)
	o.Obs = nil
	prep, err := e.Prepare(g, o)
	if err != nil {
		fail(err.Error())
	}
	vg := graph.NewVersioned(g)
	res := base
	for i, b := range batches {
		from := vg.Version()
		ver, err := vg.ApplyBatch(b)
		if err != nil {
			fail(fmt.Sprintf("batch %d: %v", i+1, err))
		}
		d, err := vg.DeltaBetween(from, ver)
		if err != nil {
			fail(err.Error())
		}
		if prep, err = prep.Advance(d, o); err != nil {
			fail(fmt.Sprintf("batch %d: advance: %v", i+1, err))
		}
		oW := o
		oW.Warm = &common.WarmStart{Ranks: res.Ranks}
		if sparse {
			oW.Warm.Delta = d
		}
		if res, err = e.Exec(prep, oW); err != nil {
			fail(fmt.Sprintf("batch %d: %v", i+1, err))
		}
		prepMode := "patched"
		if !prep.Incremental {
			prepMode = "rebuilt cold"
		}
		fmt.Printf("  batch %-3d: v%d, +%d -%d edges (%d vertices perturbed); prep %s in %.4fs; %d iterations, %.4fs\n",
			i+1, ver, d.Inserted, d.Deleted, len(d.Perturbed), prepMode, prep.PrepSeconds, res.Iterations, res.WallSeconds)
	}
	return res
}

func topK(ranks []float32, k int) []int {
	if k > len(ranks) {
		k = len(ranks)
	}
	idx := make([]int, len(ranks))
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if ranks[idx[j]] > ranks[idx[best]] {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:k]
}

func parseSize(s string) (int, error) {
	s = strings.ToUpper(strings.TrimSpace(s))
	mult := 1
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n * mult, nil
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "hipapr:", msg)
	os.Exit(1)
}
