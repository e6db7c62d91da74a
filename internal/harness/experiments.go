package harness

import (
	"fmt"
	"math"

	"hipa/internal/engines/bppr"
	"hipa/internal/engines/common"
	"hipa/internal/engines/delta"
	"hipa/internal/engines/hipa"
	"hipa/internal/gen"
	"hipa/internal/graph"
	"hipa/internal/machine"
	"hipa/internal/partition"
)

// ---------------------------------------------------------------- Table 1

// Table1Row is one dataset's statistics (paper Table 1).
type Table1Row struct {
	Dataset           string
	Vertices          int
	Edges             int64
	IntraPerPartition float64 // at the paper's 1MB reference partition size
	InterPerPartition float64
}

// Table1 regenerates the graph-description table, including the
// intra/inter-edges per 1MB partition columns.
func Table1(cfg *Config) ([]Table1Row, *Table, error) {
	var rows []Table1Row
	t := &Table{
		Title:  "Table 1: Graph descriptions (scaled by divisor " + fmt.Sprint(cfg.Divisor) + ")",
		Header: []string{"graph", "vertices", "edges", "intra/part", "inter/part"},
		Notes: []string{
			"intra/inter are per-partition averages at the paper's 1MB reference size (scaled)",
			fmt.Sprintf("paper sizes are %dx larger; densities and skew match", cfg.Divisor),
		},
	}
	for _, name := range cfg.DatasetNames() {
		g, err := cfg.Graph(name)
		if err != nil {
			return nil, nil, err
		}
		h, err := partition.Build(g, partition.Config{
			PartitionBytes: cfg.PartBytes(1 << 20),
			BytesPerVertex: 4,
			NumNodes:       1,
			GroupsPerNode:  1,
		})
		if err != nil {
			return nil, nil, err
		}
		loc := partition.ComputeEdgeLocality(g, h)
		row := Table1Row{
			Dataset:           name,
			Vertices:          g.NumVertices(),
			Edges:             g.NumEdges(),
			IntraPerPartition: loc.IntraPerPartition,
			InterPerPartition: loc.InterPerPartition,
		}
		rows = append(rows, row)
		t.Rows = append(t.Rows, []string{
			name, fmt.Sprint(row.Vertices), fmt.Sprint(row.Edges),
			fmt.Sprintf("%.0f", row.IntraPerPartition),
			fmt.Sprintf("%.0f", row.InterPerPartition),
		})
	}
	return rows, t, nil
}

// ---------------------------------------------------------------- Table 2

// Table2Row holds one dataset's modelled execution times per engine.
type Table2Row struct {
	Dataset string
	Seconds map[string]float64 // engine name -> modelled seconds
	Wall    map[string]float64 // engine name -> real wall seconds
}

// Best returns the fastest engine other than skip.
func (r Table2Row) Best(skip string) (string, float64) {
	bestName, best := "", 0.0
	for name, s := range r.Seconds {
		if name == skip {
			continue
		}
		if bestName == "" || s < best {
			bestName, best = name, s
		}
	}
	return bestName, best
}

// Table2 regenerates the execution-time comparison (paper Table 2): 20
// iterations of PageRank under each engine's tuned settings.
func Table2(cfg *Config) ([]Table2Row, *Table, error) {
	m, err := cfg.DefaultMachine()
	if err != nil {
		return nil, nil, err
	}
	engines := Engines()
	t := &Table{
		Title:  fmt.Sprintf("Table 2: PageRank execution time (modelled seconds, %d iterations)", cfg.Iterations),
		Header: []string{"graph", "HiPa", "p-PR", "v-PR", "GPOP", "Polymer", "speedup-vs-best"},
		Notes: []string{
			"modelled on the scaled Skylake machine; the paper's shape (HiPa fastest) is the claim under test",
		},
	}
	var rows []Table2Row
	for _, name := range cfg.DatasetNames() {
		g, err := cfg.Graph(name)
		if err != nil {
			return nil, nil, err
		}
		row := Table2Row{Dataset: name, Seconds: map[string]float64{}, Wall: map[string]float64{}}
		for _, e := range engines {
			res, err := e.Run(g, cfg.PaperOptions(e.Name(), m))
			if err != nil {
				return nil, nil, fmt.Errorf("table2 %s/%s: %w", name, e.Name(), err)
			}
			row.Seconds[e.Name()] = cfg.Seconds(res)
			row.Wall[e.Name()] = res.WallSeconds
		}
		rows = append(rows, row)
		_, best := row.Best("HiPa")
		t.Rows = append(t.Rows, []string{
			name,
			f3(row.Seconds["HiPa"]), f3(row.Seconds["p-PR"]), f3(row.Seconds["v-PR"]),
			f3(row.Seconds["GPOP"]), f3(row.Seconds["Polymer"]),
			f2(best / row.Seconds["HiPa"]),
		})
	}
	return rows, t, nil
}

// ---------------------------------------------------------------- Overhead

// OverheadRow reports preprocessing cost and amortization (§4.2), cold and
// cached: PrepSeconds is the one-time artifact build, PrepCachedSeconds the
// artifact-fetch cost when a primed PrepCache serves a later query on the
// same graph — the "serve many PageRank queries" workload.
type OverheadRow struct {
	Dataset           string
	PrepSeconds       float64 // cold preprocessing wall time
	PrepCachedSeconds float64 // artifact fetch from a primed cache
	PerIteration      float64 // real per-iteration wall time
	AmortizeIters     float64 // cold prep / per-iteration
}

// Overhead regenerates the §4.2 preprocessing-overhead analysis for HiPa.
func Overhead(cfg *Config) ([]OverheadRow, *Table, error) {
	m, err := cfg.DefaultMachine()
	if err != nil {
		return nil, nil, err
	}
	t := &Table{
		Title:  "Preprocessing overhead of HiPa (§4.2, real wall time on host)",
		Header: []string{"graph", "prep-cold(s)", "prep-cached(s)", "per-iter(s)", "amortized-by(iters)"},
		Notes: []string{
			"the paper reports amortization by ~12.7 iterations on average",
			"prep-cached is the artifact-fetch cost once a PrepCache is primed (prepare-once / exec-many serving)",
		},
	}
	e := hipa.Engine{}
	var rows []OverheadRow
	for _, name := range cfg.DatasetNames() {
		g, err := cfg.Graph(name)
		if err != nil {
			return nil, nil, err
		}
		o := cfg.PaperOptions("hipa", m)

		// Cold build: bypass the cache so the full §4.2 overhead is paid.
		cold := o
		cold.PrepCache = nil
		coldPrep, err := e.Prepare(g, cold)
		if err != nil {
			return nil, nil, err
		}
		// Cached fetch: prime the config's cache, then measure a reuse.
		if _, err := e.Prepare(g, o); err != nil {
			return nil, nil, err
		}
		warmPrep, err := e.Prepare(g, o)
		if err != nil {
			return nil, nil, err
		}
		res, err := e.Exec(warmPrep, o)
		if err != nil {
			return nil, nil, err
		}

		perIter := res.WallSeconds / float64(res.Iterations)
		row := OverheadRow{
			Dataset:           name,
			PrepSeconds:       coldPrep.PrepSeconds,
			PrepCachedSeconds: warmPrep.PrepSeconds,
			PerIteration:      perIter,
		}
		if perIter > 0 {
			row.AmortizeIters = row.PrepSeconds / perIter
		}
		rows = append(rows, row)
		t.Rows = append(t.Rows, []string{name, fmt.Sprintf("%.4f", row.PrepSeconds),
			fmt.Sprintf("%.4f", row.PrepCachedSeconds),
			fmt.Sprintf("%.4f", row.PerIteration), fmt.Sprintf("%.1f", row.AmortizeIters)})
	}
	return rows, t, nil
}

// ---------------------------------------------------------------- Fig. 5

// Fig5Row holds one dataset's memory-accesses-per-edge breakdown.
type Fig5Row struct {
	Dataset string
	// Per engine: total MApE, remote MApE, remote fraction.
	MApE       map[string]float64
	RemoteMApE map[string]float64
	RemoteFrac map[string]float64
}

// Fig5 regenerates the memory-utility figure: MApE (total and remote) for
// every engine on every graph.
func Fig5(cfg *Config) ([]Fig5Row, *Table, error) {
	m, err := cfg.DefaultMachine()
	if err != nil {
		return nil, nil, err
	}
	t := &Table{
		Title:  "Fig. 5: Memory accesses per edge (bytes; remote share in parens)",
		Header: []string{"graph", "HiPa", "p-PR", "v-PR", "GPOP", "Polymer"},
		Notes: []string{
			"paper averages: HiPa 9.57 (13.8% remote), p-PR 9.37 (48.9%), GPOP 8.89 (53.0%), v-PR 47.31 (50.9%), Polymer 26.66 (10.1%)",
		},
	}
	var rows []Fig5Row
	for _, name := range cfg.DatasetNames() {
		g, err := cfg.Graph(name)
		if err != nil {
			return nil, nil, err
		}
		row := Fig5Row{Dataset: name, MApE: map[string]float64{}, RemoteMApE: map[string]float64{}, RemoteFrac: map[string]float64{}}
		cells := []string{name}
		for _, e := range Engines() {
			res, err := e.Run(g, cfg.PaperOptions(e.Name(), m))
			if err != nil {
				return nil, nil, fmt.Errorf("fig5 %s/%s: %w", name, e.Name(), err)
			}
			row.MApE[e.Name()] = res.Model.MApE
			row.RemoteMApE[e.Name()] = res.Model.RemoteMApE
			row.RemoteFrac[e.Name()] = res.Model.RemoteFraction
			cells = append(cells, fmt.Sprintf("%.1f (%s)", res.Model.MApE, pct(res.Model.RemoteFraction)))
		}
		rows = append(rows, row)
		t.Rows = append(t.Rows, cells)
	}
	return rows, t, nil
}

// ---------------------------------------------------------------- Fig. 6

// Fig6ThreadCounts are the paper's x-axis points.
var Fig6ThreadCounts = []int{2, 4, 8, 16, 20, 32, 40}

// Fig6Series is one engine's normalized execution times over thread counts.
type Fig6Series struct {
	Engine string
	// SecondsAt[i] is the modelled time at Fig6ThreadCounts[i].
	SecondsAt []float64
	// Normalized[i] = SecondsAt[i] / SecondsAt(40 threads), as in Fig. 6.
	Normalized []float64
}

// BestThreads returns the thread count with the lowest modelled time.
func (s Fig6Series) BestThreads() int {
	best := 0
	for i := range s.SecondsAt {
		if s.SecondsAt[i] < s.SecondsAt[best] {
			best = i
		}
	}
	return Fig6ThreadCounts[best]
}

// Fig6 regenerates the scalability study on journal.
func Fig6(cfg *Config) ([]Fig6Series, *Table, error) {
	m, err := cfg.DefaultMachine()
	if err != nil {
		return nil, nil, err
	}
	g, err := cfg.Graph("journal")
	if err != nil {
		return nil, nil, err
	}
	t := &Table{
		Title:  "Fig. 6: Normalized execution time vs threads (journal)",
		Header: append([]string{"engine"}, mapStr(Fig6ThreadCounts, func(n int) string { return fmt.Sprint(n) })...),
		Notes: []string{
			"normalized by each engine's own 40-thread time, as in the paper",
			"paper shape: HiPa/v-PR/Polymer keep improving to 40; p-PR best ~16, GPOP best ~20, both ~2x worse at 40",
		},
	}
	var out []Fig6Series
	for _, e := range Engines() {
		s := Fig6Series{Engine: e.Name()}
		for _, th := range Fig6ThreadCounts {
			o := cfg.PaperOptions(e.Name(), m)
			o.Threads = th
			res, err := e.Run(g, o)
			if err != nil {
				return nil, nil, fmt.Errorf("fig6 %s@%d: %w", e.Name(), th, err)
			}
			s.SecondsAt = append(s.SecondsAt, cfg.Seconds(res))
		}
		at40 := s.SecondsAt[len(s.SecondsAt)-1]
		cells := []string{e.Name()}
		for _, sec := range s.SecondsAt {
			s.Normalized = append(s.Normalized, sec/at40)
			cells = append(cells, f2(sec/at40))
		}
		out = append(out, s)
		t.Rows = append(t.Rows, cells)
	}
	return out, t, nil
}

// ---------------------------------------------------------------- Fig. 7

// Fig7Sizes are the paper's partition-size sweep points (paper scale).
var Fig7Sizes = []int{16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20}

// Fig7Point is one (engine, size) measurement.
type Fig7Point struct {
	Engine      string
	PaperBytes  int
	Seconds     float64
	LLCAccesses int64
	LLCHitRatio float64
}

// Fig7 regenerates the partition-size sensitivity study on journal for the
// three partition-centric engines.
func Fig7(cfg *Config) ([]Fig7Point, *Table, error) {
	m, err := cfg.DefaultMachine()
	if err != nil {
		return nil, nil, err
	}
	g, err := cfg.Graph("journal")
	if err != nil {
		return nil, nil, err
	}
	t := &Table{
		Title:  "Fig. 7: Execution time and LLC traffic vs partition size (journal)",
		Header: []string{"engine", "size", "seconds", "LLC-accesses", "LLC-hit-ratio"},
		Notes: []string{
			"paper shape: best HiPa time at 256KB (quarter of L2); LLC traffic surges past 256KB",
			"sizes are paper-scale labels; actual sizes divided by the divisor",
		},
	}
	var out []Fig7Point
	for _, name := range []string{"HiPa", "p-PR", "GPOP"} {
		e, err := EngineByName(name)
		if err != nil {
			return nil, nil, err
		}
		for _, paperBytes := range Fig7Sizes {
			o := cfg.PaperOptions(name, m)
			o.PartitionBytes = cfg.PartBytes(paperBytes)
			res, err := e.Run(g, o)
			if err != nil {
				return nil, nil, fmt.Errorf("fig7 %s@%d: %w", name, paperBytes, err)
			}
			p := Fig7Point{
				Engine:      name,
				PaperBytes:  paperBytes,
				Seconds:     cfg.Seconds(res),
				LLCAccesses: res.Model.LLCAccesses,
				LLCHitRatio: res.Model.LLCHitRatio(),
			}
			out = append(out, p)
			t.Rows = append(t.Rows, []string{name, sizeLabel(paperBytes), f3(p.Seconds),
				fmt.Sprint(p.LLCAccesses), f2(p.LLCHitRatio)})
		}
	}
	return out, t, nil
}

// ---------------------------------------------------------------- Table 3

// Table3Sizes are the sweep points of Table 3 (paper scale).
var Table3Sizes = []int{64 << 10, 128 << 10, 256 << 10, 512 << 10}

// Table3Row is one (microarch, method) series of normalized times.
type Table3Row struct {
	Microarch  string
	Method     string
	Normalized []float64 // aligned with Table3Sizes
}

// BestSize returns the paper-scale partition size with the lowest time.
func (r Table3Row) BestSize() int {
	best := 0
	for i := range r.Normalized {
		if r.Normalized[i] < r.Normalized[best] {
			best = i
		}
	}
	return Table3Sizes[best]
}

// Table3 regenerates the microarchitecture sensitivity study: normalized
// execution time per partition size on Haswell and Skylake, averaged over
// the four graphs that fit the Haswell machine (kron and mpi excluded, as
// in the paper).
func Table3(cfg *Config) ([]Table3Row, *Table, error) {
	datasets := []string{"journal", "pld", "wiki", "twitter"}
	if len(cfg.Datasets) > 0 {
		datasets = cfg.Datasets
	}
	t := &Table{
		Title:  "Table 3: Normalized execution time by partition size (Haswell vs Skylake)",
		Header: []string{"march", "method", "64K", "128K", "256K", "512K", "best"},
		Notes: []string{
			"normalized by 128K on Haswell and 256K on Skylake, averaged over journal/pld/wiki/twitter (paper method)",
			"paper finding: optimum 256KB (L2/4) on Skylake, 128KB (L2/2) on Haswell; both degrade sharply at 512KB",
		},
	}
	var rows []Table3Row
	for _, arch := range []string{"haswell", "skylake"} {
		m, err := cfg.Machine(arch)
		if err != nil {
			return nil, nil, err
		}
		normIdx := 2 // 256K for skylake
		if arch == "haswell" {
			normIdx = 1 // 128K
		}
		for _, method := range []string{"HiPa", "p-PR", "GPOP"} {
			e, err := EngineByName(method)
			if err != nil {
				return nil, nil, err
			}
			avg := make([]float64, len(Table3Sizes))
			for _, name := range datasets {
				g, err := cfg.Graph(name)
				if err != nil {
					return nil, nil, err
				}
				secs := make([]float64, len(Table3Sizes))
				for i, paperBytes := range Table3Sizes {
					o := cfg.PaperOptions(method, m)
					o.PartitionBytes = cfg.PartBytes(paperBytes)
					if arch == "haswell" {
						// The Haswell testbed runs one thread per physical
						// core (its 256KB L2 cannot host two partition
						// working sets); this is what makes its optimum
						// land at L2/2 = 128KB while Skylake's HT-shared
						// 1MB L2 lands at L2/4 = 256KB (§4.5).
						o.Threads = m.PhysicalCores()
					}
					res, err := e.Run(g, o)
					if err != nil {
						return nil, nil, fmt.Errorf("table3 %s/%s/%s: %w", arch, method, name, err)
					}
					secs[i] = cfg.Seconds(res)
				}
				for i := range secs {
					avg[i] += secs[i] / secs[normIdx] / float64(len(datasets))
				}
			}
			row := Table3Row{Microarch: arch, Method: method, Normalized: avg}
			rows = append(rows, row)
			cells := []string{arch, method}
			for _, v := range avg {
				cells = append(cells, f2(v))
			}
			cells = append(cells, sizeLabel(row.BestSize()))
			t.Rows = append(t.Rows, cells)
		}
	}
	return rows, t, nil
}

// ---------------------------------------------------------------- §4.5 single node

// SingleNodeResult compares 1-node and 2-node deployments at equal thread
// counts (§4.5).
type SingleNodeResult struct {
	OneNodeSeconds float64 // HiPa, 1 node, 20 threads
	TwoNodeSeconds float64 // HiPa, 2 nodes, 20 threads
	PPRSeconds     float64 // p-PR, 2 nodes (oblivious), 20 threads
	GPOPSeconds    float64 // GPOP, 20 threads
}

// SingleNode regenerates the single-node experiment on journal.
func SingleNode(cfg *Config) (*SingleNodeResult, *Table, error) {
	g, err := cfg.Graph("journal")
	if err != nil {
		return nil, nil, err
	}
	two, err := cfg.DefaultMachine()
	if err != nil {
		return nil, nil, err
	}
	one := machine.SingleNode(two)

	r := &SingleNodeResult{}
	oHipa1 := cfg.PaperOptions("hipa", one)
	oHipa1.Threads = one.LogicalCores() // 20 threads on the single node
	res, err := (hipa.Engine{}).Run(g, oHipa1)
	if err != nil {
		return nil, nil, err
	}
	r.OneNodeSeconds = cfg.Seconds(res)

	oHipa2 := cfg.PaperOptions("hipa", two)
	oHipa2.Threads = 20
	res, err = (hipa.Engine{}).Run(g, oHipa2)
	if err != nil {
		return nil, nil, err
	}
	r.TwoNodeSeconds = cfg.Seconds(res)

	for name, dst := range map[string]*float64{"p-PR": &r.PPRSeconds, "GPOP": &r.GPOPSeconds} {
		e, err := EngineByName(name)
		if err != nil {
			return nil, nil, err
		}
		o := cfg.PaperOptions(name, two)
		o.Threads = 20
		res, err := e.Run(g, o)
		if err != nil {
			return nil, nil, err
		}
		*dst = cfg.Seconds(res)
	}

	t := &Table{
		Title:  "§4.5: Single-node vs 2-node at 20 threads (journal, modelled seconds)",
		Header: []string{"config", "seconds"},
		Rows: [][]string{
			{"HiPa 1-node/20t", fmt.Sprintf("%.5f", r.OneNodeSeconds)},
			{"HiPa 2-node/20t", fmt.Sprintf("%.5f", r.TwoNodeSeconds)},
			{"p-PR 2-node/20t", fmt.Sprintf("%.5f", r.PPRSeconds)},
			{"GPOP 2-node/20t", fmt.Sprintf("%.5f", r.GPOPSeconds)},
		},
		Notes: []string{"paper: 0.44s vs 0.39s vs 0.41s vs 1.14s — single-node HiPa loses to 2-node HiPa"},
	}
	return r, t, nil
}

// ---------------------------------------------------------------- node scaling

// NodeScalingRow reports HiPa on an N-node machine derivative.
type NodeScalingRow struct {
	Nodes      int
	Threads    int
	Seconds    float64
	RemoteFrac float64
	Speedup    float64 // vs the 1-node machine
}

// NodeScaling projects HiPa onto 1/2/4/8-node Skylake derivatives (the
// paper's §4.5 expectation that more nodes boost HiPa further), using all
// logical cores of each machine on the largest catalog graph requested.
func NodeScaling(cfg *Config, dataset string) ([]NodeScalingRow, *Table, error) {
	g, err := cfg.Graph(dataset)
	if err != nil {
		return nil, nil, err
	}
	base, err := cfg.DefaultMachine()
	if err != nil {
		return nil, nil, err
	}
	t := &Table{
		Title:  "Node scaling projection: HiPa on 1/2/4/8-node machines (" + dataset + ")",
		Header: []string{"nodes", "threads", "seconds", "remote", "speedup-vs-1node"},
		Notes:  []string{"§4.5: \"we expect the performance of HiPa to be further boosted in 4-node and 8-node machines\""},
	}
	var rows []NodeScalingRow
	var oneNode float64
	for _, nodes := range []int{1, 2, 4, 8} {
		m := machine.WithNodes(base, nodes)
		o := cfg.PaperOptions("hipa", m)
		o.Threads = m.LogicalCores()
		res, err := (hipa.Engine{}).Run(g, o)
		if err != nil {
			return nil, nil, err
		}
		if nodes == 1 {
			oneNode = cfg.Seconds(res)
		}
		row := NodeScalingRow{
			Nodes:      nodes,
			Threads:    res.Threads,
			Seconds:    cfg.Seconds(res),
			RemoteFrac: res.Model.RemoteFraction,
			Speedup:    oneNode / cfg.Seconds(res),
		}
		rows = append(rows, row)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(nodes), fmt.Sprint(row.Threads), fmt.Sprintf("%.5f", row.Seconds),
			pct(row.RemoteFrac), f2(row.Speedup),
		})
	}
	return rows, t, nil
}

// ---------------------------------------------------------------- frontier

// FrontierTolerance is the convergence tolerance the frontier experiment
// runs both engines to: HiPa's residual stop and Delta-PR's gate and
// termination threshold use the same value so the work-saved columns are
// comparable.
const FrontierTolerance = 1e-6

// frontierBudget bounds the run-to-convergence iteration count.
const frontierBudget = 200

// FrontierRow reports one engine's work-saved-vs-accuracy trade-off: dense
// HiPa as the exact baseline, then the frontier-aware Delta-PR, both run to
// FrontierTolerance. VertexIters is the executed vertex-iteration count (a
// dense engine accrues iterations × vertices); MaxAbsDiff is measured
// against exact power-iteration ranks.
type FrontierRow struct {
	Engine            string
	Iterations        int
	ActiveFraction    float64
	VertexIters       int64
	PartitionsSkipped int64
	MaxAbsDiff        float64
	Seconds           float64
}

// Frontier regenerates the work-saved-vs-accuracy comparison of Delta-PR's
// vertex-granular frontier against dense HiPa stopped by the same tolerance
// on the named dataset (EXPERIMENTS.md).
func Frontier(cfg *Config, dataset string) ([]FrontierRow, *Table, error) {
	m, err := cfg.DefaultMachine()
	if err != nil {
		return nil, nil, err
	}
	g, err := cfg.Graph(dataset)
	if err != nil {
		return nil, nil, err
	}
	exact := common.ReferencePageRank(g, frontierBudget, common.DefaultDamping)
	t := &Table{
		Title:  fmt.Sprintf("Frontier engines: work saved vs accuracy (%s, tolerance %g)", dataset, FrontierTolerance),
		Header: []string{"engine", "iters", "active%", "vertex-iters", "parts-skipped", "max-abs-diff", "seconds"},
		Notes: []string{
			"both engines run to the same tolerance; max-abs-diff is vs exact power-iteration ranks",
			"active% is the executed share of the dense vertex-iteration space (100% = no pruning)",
		},
	}
	var rows []FrontierRow
	for _, e := range []common.Engine{hipa.Engine{}, delta.Engine{}} {
		o := cfg.PaperOptions(e.Name(), m)
		o.Iterations = frontierBudget
		o.Tolerance = FrontierTolerance
		res, err := e.Run(g, o)
		if err != nil {
			return nil, nil, fmt.Errorf("frontier %s/%s: %w", dataset, e.Name(), err)
		}
		var diff float64
		for v := range exact {
			if d := math.Abs(float64(res.Ranks[v]) - exact[v]); d > diff {
				diff = d
			}
		}
		row := FrontierRow{
			Engine:     e.Name(),
			Iterations: res.Iterations,
			MaxAbsDiff: diff,
			Seconds:    cfg.Seconds(res),
		}
		if rep := res.Frontier; rep != nil {
			row.ActiveFraction = rep.ActiveFraction()
			row.VertexIters = rep.ActiveVertexIterations
			row.PartitionsSkipped = rep.PartitionsSkipped
		} else {
			row.ActiveFraction = 1
			row.VertexIters = int64(res.Iterations) * int64(g.NumVertices())
		}
		rows = append(rows, row)
		t.Rows = append(t.Rows, []string{
			row.Engine, fmt.Sprint(row.Iterations), pct(row.ActiveFraction),
			fmt.Sprint(row.VertexIters), fmt.Sprint(row.PartitionsSkipped),
			fmt.Sprintf("%.2e", row.MaxAbsDiff), fmt.Sprintf("%.5f", row.Seconds),
		})
	}
	return rows, t, nil
}

// ---------------------------------------------------------------- ablations

// AblationResult compares HiPa against its own design ablations on one
// dataset (DESIGN.md §4).
type AblationResult struct {
	Variant string
	Seconds float64
	MApE    float64
	Remote  float64
	Sched   int64 // migrations
}

// Ablations runs HiPa's design ablations on the named dataset.
func Ablations(cfg *Config, dataset string) ([]AblationResult, *Table, error) {
	m, err := cfg.DefaultMachine()
	if err != nil {
		return nil, nil, err
	}
	g, err := cfg.Graph(dataset)
	if err != nil {
		return nil, nil, err
	}
	variants := []struct {
		name string
		mut  func(*common.Options)
	}{
		{"HiPa (full)", func(o *common.Options) {}},
		{"no-compression", func(o *common.Options) { o.NoCompress = true }},
		{"vertex-balanced", func(o *common.Options) { o.VertexBalanced = true }},
		{"fcfs-no-pinning", func(o *common.Options) { o.FCFS = true }},
	}
	t := &Table{
		Title:  "Ablations of HiPa design choices (" + dataset + ")",
		Header: []string{"variant", "seconds", "MApE", "remote%", "migrations"},
	}
	var out []AblationResult
	for _, v := range variants {
		o := cfg.PaperOptions("hipa", m)
		v.mut(&o)
		res, err := (hipa.Engine{}).Run(g, o)
		if err != nil {
			return nil, nil, fmt.Errorf("ablation %s: %w", v.name, err)
		}
		a := AblationResult{
			Variant: v.name,
			Seconds: cfg.Seconds(res),
			MApE:    res.Model.MApE,
			Remote:  res.Model.RemoteFraction,
			Sched:   res.Sched.Migrations,
		}
		out = append(out, a)
		t.Rows = append(t.Rows, []string{a.Variant, f3(a.Seconds), f2(a.MApE), pct(a.Remote), fmt.Sprint(a.Sched)})
	}
	return out, t, nil
}

// ---------------------------------------------------------------- helpers

func sizeLabel(bytes int) string {
	switch {
	case bytes >= 1<<20:
		return fmt.Sprintf("%dM", bytes>>20)
	default:
		return fmt.Sprintf("%dK", bytes>>10)
	}
}

func mapStr[T any](xs []T, f func(T) string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// ---------------------------------------------------------------- dynamic

// Replay shape of the dynamic experiment: a fixed number of deterministic
// mutation batches (dynamicSeed fixes the stream) so re-runs and the
// committed baseline see identical version histories.
const (
	dynamicBatches = 4
	dynamicSeed    = 42
)

// DynamicRow reports one mutation batch of the dynamic replay: the cost of
// re-ranking the new version cold (full HiPa Run) against the two warm
// paths — HiPa resuming densely from the previous version's converged ranks
// and Delta-PR seeded sparsely from the graph delta — all run to the same
// tolerance on an artifact patched forward with Prepared.Advance.
type DynamicRow struct {
	Batch             int
	Inserted          int
	Deleted           int
	PerturbedFraction float64 // perturbed vertices / total vertices
	ColdIterations    int
	WarmIterations    int     // HiPa, dense warm resume
	DeltaIterations   int     // Delta-PR, sparse delta seeding
	MaxAbsDiff        float64 // warm Delta-PR ranks vs the cold run
	ColdBytes         int64   // modelled local+remote DRAM traffic, cold
	DeltaBytes        int64   // and for the sparse warm run
	ColdSeconds       float64
	DeltaSeconds      float64
}

// IterationSpeedup is the convergence-work ratio of the batch: cold
// iterations per sparse-warm iteration.
func (r DynamicRow) IterationSpeedup() float64 {
	if r.DeltaIterations == 0 {
		return 0
	}
	return float64(r.ColdIterations) / float64(r.DeltaIterations)
}

// Dynamic regenerates the incremental re-rank experiment (EXPERIMENTS.md):
// replay dynamicBatches deterministic mutation batches against a versioned
// copy of the named dataset and compare cold re-ranking with the warm-start
// paths at every version. The headline claim the committed baseline gates:
// the sparse warm path converges in at least 2× fewer iterations than cold.
func Dynamic(cfg *Config, dataset string) ([]DynamicRow, *Table, error) {
	m, err := cfg.DefaultMachine()
	if err != nil {
		return nil, nil, err
	}
	g, err := cfg.Graph(dataset)
	if err != nil {
		return nil, nil, err
	}
	vg := graph.NewVersioned(g)
	batchSize := g.NumVertices() / 512
	if batchSize < 8 {
		batchSize = 8
	}
	stream, err := gen.NewMutationStream(vg, dynamicSeed, batchSize)
	if err != nil {
		return nil, nil, fmt.Errorf("dynamic %s: %w", dataset, err)
	}
	o := cfg.PaperOptions("hipa", m)
	o.Iterations = frontierBudget
	o.Tolerance = FrontierTolerance

	hipaEng, deltaEng := hipa.Engine{}, delta.Engine{}
	hipaPrep, err := hipaEng.Prepare(g, o)
	if err != nil {
		return nil, nil, fmt.Errorf("dynamic %s: base prepare: %w", dataset, err)
	}
	deltaPrep, err := deltaEng.Prepare(g, o)
	if err != nil {
		return nil, nil, fmt.Errorf("dynamic %s: base prepare: %w", dataset, err)
	}
	base, err := hipaEng.Exec(hipaPrep, o)
	if err != nil {
		return nil, nil, fmt.Errorf("dynamic %s: base run: %w", dataset, err)
	}
	warmHipa, warmDelta := base.Ranks, base.Ranks

	t := &Table{
		Title:  fmt.Sprintf("Dynamic replay: warm-start vs cold re-rank (%s, %d batches of %d mutations, tolerance %g)", dataset, dynamicBatches, batchSize, FrontierTolerance),
		Header: []string{"batch", "+edges", "-edges", "perturbed%", "cold-iters", "warm-iters", "delta-iters", "speedup", "max-abs-diff", "bytes-saved%"},
		Notes: []string{
			"cold re-ranks the new version from scratch; warm resumes HiPa densely from the previous ranks;",
			"delta seeds Delta-PR sparsely from the graph delta on an artifact patched forward with Advance",
			"speedup is cold-iters/delta-iters; bytes-saved% compares modelled DRAM traffic of delta vs cold",
		},
	}
	var rows []DynamicRow
	prevVer := vg.Version()
	for i := 0; i < dynamicBatches; i++ {
		if _, _, err := stream.Batches(1); err != nil {
			return nil, nil, fmt.Errorf("dynamic %s: batch %d: %w", dataset, i, err)
		}
		ver := vg.Version()
		d, err := vg.DeltaBetween(prevVer, ver)
		if err != nil {
			return nil, nil, fmt.Errorf("dynamic %s: batch %d: %w", dataset, i, err)
		}
		prevVer = ver
		if hipaPrep, err = hipaPrep.Advance(d, o); err != nil {
			return nil, nil, fmt.Errorf("dynamic %s: batch %d: hipa advance: %w", dataset, i, err)
		}
		if deltaPrep, err = deltaPrep.Advance(d, o); err != nil {
			return nil, nil, fmt.Errorf("dynamic %s: batch %d: delta advance: %w", dataset, i, err)
		}
		cold, err := hipaEng.Run(d.Next, o)
		if err != nil {
			return nil, nil, fmt.Errorf("dynamic %s: batch %d: cold: %w", dataset, i, err)
		}
		oW := o
		oW.Warm = &common.WarmStart{Ranks: warmHipa}
		wh, err := hipaEng.Exec(hipaPrep, oW)
		if err != nil {
			return nil, nil, fmt.Errorf("dynamic %s: batch %d: warm hipa: %w", dataset, i, err)
		}
		oD := o
		oD.Warm = &common.WarmStart{Ranks: warmDelta, Delta: d}
		wd, err := deltaEng.Exec(deltaPrep, oD)
		if err != nil {
			return nil, nil, fmt.Errorf("dynamic %s: batch %d: warm delta: %w", dataset, i, err)
		}
		warmHipa, warmDelta = wh.Ranks, wd.Ranks

		row := DynamicRow{
			Batch:             i + 1,
			Inserted:          d.Inserted,
			Deleted:           d.Deleted,
			PerturbedFraction: float64(len(d.Perturbed)) / float64(g.NumVertices()),
			ColdIterations:    cold.Iterations,
			WarmIterations:    wh.Iterations,
			DeltaIterations:   wd.Iterations,
			ColdSeconds:       cfg.Seconds(cold),
			DeltaSeconds:      cfg.Seconds(wd),
		}
		for v := range cold.Ranks {
			if diff := math.Abs(float64(wd.Ranks[v]) - float64(cold.Ranks[v])); diff > row.MaxAbsDiff {
				row.MaxAbsDiff = diff
			}
		}
		if cold.Model != nil && wd.Model != nil {
			row.ColdBytes = cold.Model.LocalBytes + cold.Model.RemoteBytes
			row.DeltaBytes = wd.Model.LocalBytes + wd.Model.RemoteBytes
		}
		rows = append(rows, row)
		saved := "n/a"
		if row.ColdBytes > 0 {
			saved = pct(1 - float64(row.DeltaBytes)/float64(row.ColdBytes))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(row.Batch), fmt.Sprint(row.Inserted), fmt.Sprint(row.Deleted),
			pct(row.PerturbedFraction), fmt.Sprint(row.ColdIterations),
			fmt.Sprint(row.WarmIterations), fmt.Sprint(row.DeltaIterations),
			f2(row.IterationSpeedup()), fmt.Sprintf("%.2e", row.MaxAbsDiff), saved,
		})
	}
	return rows, t, nil
}

// ---------------------------------------------------------------- batch

// BatchWidths are the sweep points of the batched-PPR amortization study.
var BatchWidths = []int{1, 4, 16, 64}

// batchQuerySeed fixes the deterministic personalized-query workload, so
// re-runs and the committed baseline measure identical batches.
const batchQuerySeed = 0xB1077

// BatchQueries returns the experiment's deterministic seeded-query workload
// for g: count personalized queries whose seed sets (1–3 distinct vertices
// each) come from an LCG stream fixed by batchQuerySeed.
func BatchQueries(g *graph.Graph, count int) []bppr.Query {
	n := uint64(g.NumVertices())
	state := uint64(batchQuerySeed)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 11
	}
	qs := make([]bppr.Query, count)
	for q := range qs {
		want := 1 + q%3
		seeds := make([]graph.VertexID, 0, want)
		for len(seeds) < want {
			v := graph.VertexID(next() % n)
			dup := false
			for _, s := range seeds {
				if s == v {
					dup = true
					break
				}
			}
			if !dup {
				seeds = append(seeds, v)
			}
		}
		qs[q] = bppr.Query{Seeds: seeds}
	}
	return qs
}

// BatchRow reports one width of the batched-PPR sweep: the modelled DRAM
// traffic per query when width-B batches share each superstep's structure
// stream, against the same queries' cost at width 1.
type BatchRow struct {
	B             int
	Supersteps    int   // driver iterations (the slowest column's count)
	ColSteps      int64 // Σ active columns per superstep (retirement-aware work)
	BytesPerQuery float64
	Amortization  float64 // BytesPerQuery at B=1 divided by this row's
	BatchSeconds  float64 // modelled whole-batch latency — what every query in the batch observes
	PerQuery      float64 // BatchSeconds / B, the amortized per-query cost
}

// Batch regenerates the batched multi-source PPR amortization study
// (EXPERIMENTS.md): the same deterministic personalized-query workload
// executed by B-PPR at widths BatchWidths over one shared Prepared artifact,
// run to per-column convergence. The headline claim the bench gate enforces:
// modelled bytes-moved-per-query at B=16 is at least 4x lower than at B=1,
// because the graph structure and message stream are read once per superstep
// regardless of width while per-column traffic only grows with the rank
// block.
func Batch(cfg *Config, dataset string) ([]BatchRow, *Table, error) {
	m, err := cfg.DefaultMachine()
	if err != nil {
		return nil, nil, err
	}
	g, err := cfg.Graph(dataset)
	if err != nil {
		return nil, nil, err
	}
	e := bppr.Engine{}
	o := cfg.PaperOptions(bppr.Name, m)
	o.Iterations = frontierBudget // run to per-column retirement, not an iteration cap
	prep, err := e.Prepare(g, o)
	if err != nil {
		return nil, nil, fmt.Errorf("batch %s: prepare: %w", dataset, err)
	}
	queries := BatchQueries(g, BatchWidths[len(BatchWidths)-1])
	t := &Table{
		Title:  fmt.Sprintf("Batched PPR: modelled bytes moved per query vs batch width (%s, tolerance %g)", dataset, bppr.DefaultTolerance),
		Header: []string{"B", "supersteps", "col-steps", "bytes/query", "amortize-x", "batch-secs", "secs/query"},
		Notes: []string{
			"width B executes the first B queries of the fixed workload as one batch over a shared artifact",
			"bytes/query is modelled local+remote DRAM traffic divided by B; amortize-x is relative to B=1",
			"batch-secs is the modelled whole-batch latency — the completion time every query in the batch observes",
			"modelled columns are zero on the native platform",
		},
	}
	var rows []BatchRow
	var base float64
	for _, b := range BatchWidths {
		br, err := bppr.ExecBatch(prep, o, queries[:b])
		if err != nil {
			return nil, nil, fmt.Errorf("batch %s: width %d: %w", dataset, b, err)
		}
		row := BatchRow{
			B:             b,
			Supersteps:    br.Supersteps,
			ColSteps:      br.ColSteps,
			BytesPerQuery: br.BytesPerQuery,
			BatchSeconds:  br.Model.EstimatedSeconds,
		}
		if cfg.Native {
			row.BatchSeconds = br.WallSeconds
		}
		row.PerQuery = row.BatchSeconds / float64(b)
		if b == BatchWidths[0] {
			base = row.BytesPerQuery
		}
		if row.BytesPerQuery > 0 {
			row.Amortization = base / row.BytesPerQuery
		}
		rows = append(rows, row)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(row.B), fmt.Sprint(row.Supersteps), fmt.Sprint(row.ColSteps),
			fmt.Sprintf("%.0f", row.BytesPerQuery), f2(row.Amortization),
			fmt.Sprintf("%.5f", row.BatchSeconds), fmt.Sprintf("%.5f", row.PerQuery),
		})
	}
	return rows, t, nil
}
