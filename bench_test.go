// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per artifact, reporting the headline metrics), plus
// ablation benches for the design choices in DESIGN.md §4 and
// micro-benchmarks of the substrates.
//
// The scale divisor defaults to 1024 (fast); set HIPA_BENCH_DIVISOR to run
// closer to paper scale, e.g.:
//
//	HIPA_BENCH_DIVISOR=256 go test -bench=. -benchmem
package hipa

import (
	"os"
	"strconv"
	"sync"
	"testing"

	"hipa/internal/cachesim"
	"hipa/internal/engines/common"
	"hipa/internal/harness"
	"hipa/internal/layout"
	"hipa/internal/machine"
	"hipa/internal/partition"
)

func benchDivisor() int {
	if s := os.Getenv("HIPA_BENCH_DIVISOR"); s != "" {
		if d, err := strconv.Atoi(s); err == nil && d >= 1 {
			return d
		}
	}
	return 1024
}

var (
	benchCfgOnce sync.Once
	benchCfgVal  *harness.Config
)

// benchCfg returns a shared harness config so dataset generation is done
// once per bench binary run.
func benchCfg() *harness.Config {
	benchCfgOnce.Do(func() {
		benchCfgVal = harness.NewConfig()
		benchCfgVal.Divisor = benchDivisor()
		benchCfgVal.Iterations = 20
	})
	return benchCfgVal
}

// BenchmarkTable1 regenerates Table 1 (graph statistics, intra/inter edges
// per partition).
func BenchmarkTable1(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, _, err := harness.Table1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var inter float64
			for _, r := range rows {
				inter += r.InterPerPartition
			}
			b.ReportMetric(inter/float64(len(rows)), "inter-edges/partition")
		}
	}
}

// BenchmarkTable2 regenerates Table 2 (execution time of the five engines
// on the six graphs) and reports HiPa's average speedup over the best
// alternative — the paper's headline 1.11-1.45x.
func BenchmarkTable2(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, _, err := harness.Table2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var speedup float64
			for _, r := range rows {
				_, best := r.Best("HiPa")
				speedup += best / r.Seconds["HiPa"]
			}
			b.ReportMetric(speedup/float64(len(rows)), "hipa-speedup-vs-best")
		}
	}
}

// BenchmarkOverhead regenerates the §4.2 preprocessing-overhead analysis.
func BenchmarkOverhead(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, _, err := harness.Overhead(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var am float64
			for _, r := range rows {
				am += r.AmortizeIters
			}
			b.ReportMetric(am/float64(len(rows)), "amortize-iters")
		}
	}
}

// BenchmarkFig5 regenerates Fig. 5 (memory accesses per edge) and reports
// the remote-access reduction of HiPa over the best oblivious baseline.
func BenchmarkFig5(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, _, err := harness.Fig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var hipaRemote, pprRemote float64
			for _, r := range rows {
				hipaRemote += r.RemoteMApE["HiPa"]
				pprRemote += r.RemoteMApE["p-PR"]
			}
			b.ReportMetric(pprRemote/hipaRemote, "remote-reduction-vs-p-PR")
			b.ReportMetric(hipaRemote/float64(len(rows)), "hipa-remote-MApE")
		}
	}
}

// BenchmarkFig6 regenerates Fig. 6 (scalability) and reports the oblivious
// engines' degradation at 40 threads.
func BenchmarkFig6(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		series, _, err := harness.Fig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range series {
				if s.Engine == "p-PR" || s.Engine == "GPOP" {
					best := s.SecondsAt[0]
					for _, v := range s.SecondsAt {
						if v < best {
							best = v
						}
					}
					b.ReportMetric(s.SecondsAt[len(s.SecondsAt)-1]/best, s.Engine+"-degradation-at-40")
				}
			}
		}
	}
}

// BenchmarkFig7 regenerates Fig. 7 (partition-size sensitivity) and reports
// HiPa's best partition size (paper: 256KB on Skylake).
func BenchmarkFig7(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		points, _, err := harness.Fig7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			best, bestSec := 0, 0.0
			for _, p := range points {
				if p.Engine == "HiPa" && (best == 0 || p.Seconds < bestSec) {
					best, bestSec = p.PaperBytes, p.Seconds
				}
			}
			b.ReportMetric(float64(best)/1024, "hipa-best-partition-KB")
		}
	}
}

// BenchmarkTable3 regenerates Table 3 (Haswell vs Skylake partition-size
// sensitivity).
func BenchmarkTable3(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, _, err := harness.Table3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.Method == "HiPa" {
					b.ReportMetric(float64(r.BestSize())/1024, r.Microarch+"-best-KB")
				}
			}
		}
	}
}

// BenchmarkSingleNode regenerates the §4.5 single-node experiment.
func BenchmarkSingleNode(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		r, _, err := harness.SingleNode(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.OneNodeSeconds/r.TwoNodeSeconds, "1node-vs-2node")
		}
	}
}

// --- Ablation benches (DESIGN.md §4) ---

func benchAblation(b *testing.B, mut func(*Options)) {
	cfg := benchCfg()
	g, err := cfg.Graph("journal")
	if err != nil {
		b.Fatal(err)
	}
	m, err := cfg.Machine("skylake")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		o := cfg.PaperOptions("hipa", m)
		mut(&o)
		res, err := HiPa.Run(g, o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Model.EstimatedSeconds, "modelled-s")
			b.ReportMetric(res.Model.MApE, "bytes/edge")
			b.ReportMetric(100*res.Model.RemoteFraction, "remote-%")
		}
	}
}

// BenchmarkAblationBaseline is full HiPa (reference point for the ablations).
func BenchmarkAblationBaseline(b *testing.B) { benchAblation(b, func(o *Options) {}) }

// BenchmarkAblationNoCompression disables inter-edge compression (§3.4).
func BenchmarkAblationNoCompression(b *testing.B) {
	benchAblation(b, func(o *Options) { o.NoCompress = true })
}

// BenchmarkAblationVertexBalanced replaces edge-balanced NUMA partitioning
// with the naive vertex split the paper rejects (§3.1).
func BenchmarkAblationVertexBalanced(b *testing.B) {
	benchAblation(b, func(o *Options) { o.VertexBalanced = true })
}

// BenchmarkAblationFCFS replaces thread-data pinning with first-come-first-
// serve partition claiming (§3.2-3.3).
func BenchmarkAblationFCFS(b *testing.B) {
	benchAblation(b, func(o *Options) { o.FCFS = true })
}

// --- Real-execution benches (wall-clock of the parallel Go engines) ---

// BenchmarkEngineWallClock measures the real parallel execution of each
// engine on the journal analog (5 iterations per op).
func BenchmarkEngineWallClock(b *testing.B) {
	cfg := benchCfg()
	g, err := cfg.Graph("journal")
	if err != nil {
		b.Fatal(err)
	}
	g.BuildIn()
	m, err := cfg.Machine("skylake")
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range Engines() {
		b.Run(e.Name(), func(b *testing.B) {
			o := cfg.PaperOptions(e.Name(), m)
			o.Iterations = 5
			b.SetBytes(g.NumEdges() * 5 * 4)
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(g, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Prepare-pipeline benches ---

// BenchmarkPrepare measures HiPa's full Prepare pipeline — partition
// hierarchy, compressed message layout, inverse degrees (the fingerprint is
// memoized on the shared graph after the first op) — on the largest catalog
// analog, serial vs 8 workers. Artifacts are bit-identical across settings
// (tested in enginetest), so the ratio is pure build speedup.
func BenchmarkPrepare(b *testing.B) {
	cfg := benchCfg()
	g, err := cfg.Graph("mpi")
	if err != nil {
		b.Fatal(err)
	}
	m, err := cfg.Machine("skylake")
	if err != nil {
		b.Fatal(err)
	}
	for _, pc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"workers8", 8}} {
		b.Run(pc.name, func(b *testing.B) {
			o := cfg.PaperOptions("hipa", m)
			o.PrepCache = nil // every op pays the cold build
			o.PrepParallelism = pc.workers
			b.SetBytes(g.NumEdges() * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := HiPa.Prepare(g, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPrepareLayout isolates the layout stage of the pipeline at serial
// vs 8-worker parallelism.
func BenchmarkPrepareLayout(b *testing.B) {
	cfg := benchCfg()
	g, err := cfg.Graph("mpi")
	if err != nil {
		b.Fatal(err)
	}
	h, err := partition.Build(g, partition.Config{PartitionBytes: cfg.PartBytes(256 << 10), BytesPerVertex: 4, NumNodes: 2, GroupsPerNode: 20})
	if err != nil {
		b.Fatal(err)
	}
	for _, pc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"workers8", 8}} {
		b.Run(pc.name, func(b *testing.B) {
			b.SetBytes(g.NumEdges() * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := layout.BuildWorkers(g, h, true, pc.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Substrate micro-benches ---

// BenchmarkPartitionBuild measures hierarchical partitioning throughput.
func BenchmarkPartitionBuild(b *testing.B) {
	cfg := benchCfg()
	g, err := cfg.Graph("journal")
	if err != nil {
		b.Fatal(err)
	}
	pc := partition.Config{PartitionBytes: cfg.PartBytes(256 << 10), BytesPerVertex: 4, NumNodes: 2, GroupsPerNode: 20}
	b.SetBytes(g.NumEdges() * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.Build(g, pc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLayoutBuild measures compressed-layout construction throughput.
func BenchmarkLayoutBuild(b *testing.B) {
	cfg := benchCfg()
	g, err := cfg.Graph("journal")
	if err != nil {
		b.Fatal(err)
	}
	h, err := partition.Build(g, partition.Config{PartitionBytes: cfg.PartBytes(256 << 10), BytesPerVertex: 4, NumNodes: 2, GroupsPerNode: 20})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(g.NumEdges() * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := layout.Build(g, h, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScatterGatherIteration measures one full scatter-gather PageRank
// iteration of the shared execution core.
func BenchmarkScatterGatherIteration(b *testing.B) {
	cfg := benchCfg()
	g, err := cfg.Graph("journal")
	if err != nil {
		b.Fatal(err)
	}
	h, err := partition.Build(g, partition.Config{PartitionBytes: cfg.PartBytes(256 << 10), BytesPerVertex: 4, NumNodes: 2, GroupsPerNode: 4})
	if err != nil {
		b.Fatal(err)
	}
	lay, err := layout.Build(g, h, true)
	if err != nil {
		b.Fatal(err)
	}
	state := common.NewSGState(g, h, lay, 0.85, 8)
	b.SetBytes(g.NumEdges() * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		common.RunSupersteps(common.SuperstepConfig{Threads: 8, Iterations: 1}, common.FCFSKernels(state))
	}
}

// BenchmarkGenerate measures catalog graph generation.
func BenchmarkGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := Generate("journal", benchDivisor())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(g.NumEdges() * 8)
	}
}

// BenchmarkCacheSim measures the exact cache simulator's access throughput.
func BenchmarkCacheSim(b *testing.B) {
	s := cachesim.NewSystem(machine.SkylakeSilver4210())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Access(i%40, uint64(i*64)%(1<<26))
	}
}

// BenchmarkAlgorithms measures the future-work kernels. PageRankDelta's
// tolerance of 1.6e-6 puts Delta-PR's propagation gate (tolerance/16) at
// 1e-7.
func BenchmarkAlgorithms(b *testing.B) {
	cfg := benchCfg()
	g, err := cfg.Graph("journal")
	if err != nil {
		b.Fatal(err)
	}
	ac := AlgoConfig{Threads: 8, PartitionBytes: cfg.PartBytes(256 << 10)}
	x := make([]float32, g.NumVertices())
	for i := range x {
		x[i] = 1
	}
	b.Run("SpMV", func(b *testing.B) {
		b.SetBytes(g.NumEdges() * 4)
		for i := 0; i < b.N; i++ {
			if _, err := SpMV(g, x, ac); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SpMVIterate", func(b *testing.B) {
		b.SetBytes(4 * g.NumEdges() * 4)
		for i := 0; i < b.N; i++ {
			if _, err := SpMVIterate(g, x, 4, ac); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("BFS", func(b *testing.B) {
		b.SetBytes(g.NumEdges() * 4)
		for i := 0; i < b.N; i++ {
			if _, err := BFS(g, 0, ac); err != nil {
				b.Fatal(err)
			}
		}
	})
	fc := FrameworkConfig{Threads: ac.Threads}
	b.Run("WCC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := WCC(g, fc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Hops", func(b *testing.B) {
		b.SetBytes(g.NumEdges() * 4)
		for i := 0; i < b.N; i++ {
			if _, err := Hops(g, 0, fc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("PageRankDelta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := PageRankDelta(g, DeltaOptions{Config: ac, Tolerance: 1.6e-6, MaxIterations: 20}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("PersonalizedPageRank", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := PersonalizedPageRank(g, []VertexID{0}, 20, 0.85, ac); err != nil {
				b.Fatal(err)
			}
		}
	})
}
