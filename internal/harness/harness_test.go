package harness

import (
	"bytes"
	"strings"
	"testing"
)

// testConfig returns a fast configuration that still preserves the paper's
// cache-to-working-set ratios (divisor applied to both data and machine).
func testConfig() *Config {
	cfg := NewConfig()
	cfg.Divisor = 1024
	cfg.Iterations = 10
	return cfg
}

func TestConfigHelpers(t *testing.T) {
	cfg := testConfig()
	if got := cfg.PartBytes(256 << 10); got != 256 {
		t.Errorf("PartBytes(256K) = %d, want 256", got)
	}
	if got := cfg.PartBytes(1); got != 16 {
		t.Errorf("PartBytes floor = %d, want 16", got)
	}
	if _, err := cfg.Machine("skylake"); err != nil {
		t.Fatal(err)
	}
	if _, err := cfg.Machine("bogus"); err == nil {
		t.Fatal("expected error for unknown preset")
	}
	if _, err := cfg.Graph("journal"); err != nil {
		t.Fatal(err)
	}
	// Cached: same pointer.
	g1, _ := cfg.Graph("journal")
	g2, _ := cfg.Graph("journal")
	if g1 != g2 {
		t.Error("graph cache miss")
	}
	if _, err := cfg.Graph("bogus"); err == nil {
		t.Error("expected error for unknown dataset")
	}
	names := cfg.DatasetNames()
	if len(names) != 6 {
		t.Errorf("DatasetNames = %v", names)
	}
	if _, err := EngineByName("hipa"); err != nil {
		t.Error("EngineByName should be case-insensitive")
	}
	if _, err := EngineByName("nope"); err == nil {
		t.Error("expected error")
	}
}

func TestPaperOptions(t *testing.T) {
	cfg := testConfig()
	m, _ := cfg.Machine("skylake")
	if o := cfg.PaperOptions("hipa", m); o.Threads != 40 || o.PartitionBytes != 256 {
		t.Errorf("hipa options: %+v", o)
	}
	if o := cfg.PaperOptions("p-PR", m); o.Threads != 20 || o.PartitionBytes != 256 {
		t.Errorf("p-PR options: %+v", o)
	}
	if o := cfg.PaperOptions("GPOP", m); o.Threads != 20 || o.PartitionBytes != 1024 {
		t.Errorf("GPOP options: %+v", o)
	}
	if o := cfg.PaperOptions("v-PR", m); o.Threads != 40 {
		t.Errorf("v-PR options: %+v", o)
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		Title:  "T",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"n1"},
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== T ==", "333", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	cfg := testConfig()
	cfg.Datasets = []string{"journal", "kron"}
	rows, tbl, err := Table1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Vertices <= 0 || r.Edges <= 0 {
			t.Errorf("%s: empty analog", r.Dataset)
		}
		// Paper Table 1: inter-edges per 1MB partition vastly outnumber
		// intra-edges for all datasets.
		if r.InterPerPartition <= r.IntraPerPartition {
			t.Errorf("%s: inter (%.0f) should exceed intra (%.0f) per partition",
				r.Dataset, r.InterPerPartition, r.IntraPerPartition)
		}
	}
}

// The headline claim (Table 2): HiPa is the fastest implementation on every
// graph, with speedup over the best alternative roughly in the paper's band.
func TestTable2HiPaWinsEverywhere(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalog experiment")
	}
	cfg := testConfig()
	rows, tbl, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("table rows = %d", len(tbl.Rows))
	}
	for _, r := range rows {
		bestName, best := r.Best("HiPa")
		h := r.Seconds["HiPa"]
		if h >= best {
			t.Errorf("%s: HiPa %.4fs not fastest (best is %s at %.4fs)", r.Dataset, h, bestName, best)
			continue
		}
		speedup := best / h
		// Paper band is 1.11–1.45x; allow a generous envelope for the
		// simulated substrate but fail if HiPa stops being meaningfully
		// ahead or implausibly far ahead.
		if speedup < 1.02 || speedup > 3.0 {
			t.Errorf("%s: speedup vs best = %.2f outside plausible band", r.Dataset, speedup)
		}
	}
}

// Fig. 5's claims: HiPa has the lowest remote share; the NUMA-oblivious
// engines sit near 50% remote; partition-centric engines move far fewer
// bytes per edge than vertex-centric ones.
func TestFig5MemoryShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalog experiment")
	}
	cfg := testConfig()
	rows, _, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.RemoteFrac["HiPa"] >= 0.25 {
			t.Errorf("%s: HiPa remote fraction %.2f too high", r.Dataset, r.RemoteFrac["HiPa"])
		}
		for _, obliv := range []string{"p-PR", "v-PR", "GPOP"} {
			if f := r.RemoteFrac[obliv]; f < 0.4 || f > 0.6 {
				t.Errorf("%s: %s remote fraction %.2f, want ~0.5", r.Dataset, obliv, f)
			}
			if r.RemoteFrac["HiPa"] >= r.RemoteFrac[obliv] {
				t.Errorf("%s: HiPa remote >= %s remote", r.Dataset, obliv)
			}
		}
		// Polymer: NUMA-aware, low remote share (paper ~10%).
		if f := r.RemoteFrac["Polymer"]; f > 0.25 {
			t.Errorf("%s: Polymer remote fraction %.2f too high", r.Dataset, f)
		}
		// v-PR's MApE dwarfs the partition-centric engines on the large
		// graphs (rank array far beyond LLC).
		if r.Dataset != "journal" && r.MApE["v-PR"] < 2*r.MApE["HiPa"] {
			t.Errorf("%s: v-PR MApE %.1f not >> HiPa %.1f", r.Dataset, r.MApE["v-PR"], r.MApE["HiPa"])
		}
	}
}

// Fig. 6's claims: the conventional partition-centric engines peak before 40
// threads and degrade when all logical cores are used; HiPa and the
// vertex-centric engines do not degrade meaningfully.
func TestFig6ScalabilityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep experiment")
	}
	cfg := testConfig()
	series, _, err := Fig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig6Series{}
	for _, s := range series {
		byName[s.Engine] = s
	}
	for _, name := range []string{"p-PR", "GPOP"} {
		s := byName[name]
		if best := s.BestThreads(); best >= 40 {
			t.Errorf("%s: best thread count %d, want < 40 (contention past physical cores)", name, best)
		}
		// Degradation at 40 vs own best should be noticeable (paper ~2x).
		best := s.SecondsAt[0]
		for _, v := range s.SecondsAt {
			if v < best {
				best = v
			}
		}
		at40 := s.SecondsAt[len(s.SecondsAt)-1]
		if at40/best < 1.2 {
			t.Errorf("%s: degradation at 40 threads only %.2fx, want >= 1.2x", name, at40/best)
		}
	}
	for _, name := range []string{"HiPa", "v-PR", "Polymer"} {
		s := byName[name]
		best := s.SecondsAt[0]
		for _, v := range s.SecondsAt {
			if v < best {
				best = v
			}
		}
		at40 := s.SecondsAt[len(s.SecondsAt)-1]
		if at40/best > 1.15 {
			t.Errorf("%s: should not degrade at 40 threads (%.2fx of best)", name, at40/best)
		}
		// And all engines improve massively from 2 threads.
		if s.SecondsAt[0]/at40 < 2 {
			t.Errorf("%s: no parallel speedup (2 threads only %.2fx of 40)", name, s.SecondsAt[0]/at40)
		}
	}
}

// Fig. 7's claims: HiPa's best partition size is at or below 256KB; times
// rise sharply beyond 512KB; LLC traffic surges once partitions spill L2.
func TestFig7PartitionSizeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep experiment")
	}
	cfg := testConfig()
	points, _, err := Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perEngine := map[string][]Fig7Point{}
	for _, p := range points {
		perEngine[p.Engine] = append(perEngine[p.Engine], p)
	}
	for name, ps := range perEngine {
		best := ps[0]
		var at256, at8M Fig7Point
		var llcSmall, llcBig int64
		for _, p := range ps {
			if p.Seconds < best.Seconds {
				best = p
			}
			switch p.PaperBytes {
			case 256 << 10:
				at256 = p
				llcSmall = p.LLCAccesses
			case 8 << 20:
				at8M = p
				llcBig = p.LLCAccesses
			}
		}
		if best.PaperBytes > 1<<20 {
			t.Errorf("%s: best partition size %d, want <= 1MB", name, best.PaperBytes)
		}
		if at8M.Seconds < 2*at256.Seconds {
			t.Errorf("%s: 8MB partitions only %.2fx slower than 256KB, want sharp degradation",
				name, at8M.Seconds/at256.Seconds)
		}
		if llcBig <= llcSmall {
			t.Errorf("%s: LLC traffic did not surge with partition size (%d -> %d)", name, llcSmall, llcBig)
		}
	}
}

// Table 3's claim: the optimal partition size is smaller on Haswell (256KB
// L2) than the 512KB cliff, and both microarchitectures degrade sharply at
// 512KB; the Skylake optimum sits at 128-256KB (quarter of the 1MB L2).
func TestTable3MicroarchShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep experiment")
	}
	cfg := testConfig()
	cfg.Datasets = []string{"journal", "wiki"} // keep the sweep fast
	rows, _, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	// The paper's textual finding is about HiPa: optimum 256KB (L2/4) on
	// Skylake, 128KB (L2/2) on Haswell, sharp degradation at 512KB. (The
	// paper's own Table 3 numbers are inconsistent with its text for the
	// baselines; we assert the text's claims for the method under study.)
	for _, r := range rows {
		if r.Method != "HiPa" {
			continue
		}
		if r.BestSize() > 256<<10 {
			t.Errorf("%s/HiPa: best size %d, want <= 256KB", r.Microarch, r.BestSize())
		}
		best := r.Normalized[0]
		for _, v := range r.Normalized {
			if v < best {
				best = v
			}
		}
		if r.Normalized[len(r.Normalized)-1] < best*1.05 {
			t.Errorf("%s/HiPa: no degradation at 512KB: %v", r.Microarch, r.Normalized)
		}
	}
	// HiPa's Haswell optimum must not be larger than its Skylake optimum
	// (smaller L2 => smaller partitions).
	var hasw, sky Table3Row
	for _, r := range rows {
		if r.Method == "HiPa" {
			if r.Microarch == "haswell" {
				hasw = r
			} else {
				sky = r
			}
		}
	}
	if hasw.BestSize() > sky.BestSize() {
		t.Errorf("HiPa: Haswell optimum %d exceeds Skylake optimum %d", hasw.BestSize(), sky.BestSize())
	}
}

func TestOverheadAmortization(t *testing.T) {
	cfg := testConfig()
	cfg.Datasets = []string{"journal"}
	rows, _, err := Overhead(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.PrepSeconds <= 0 || r.PerIteration <= 0 {
		t.Fatalf("timings missing: %+v", r)
	}
	if r.AmortizeIters <= 0 {
		t.Errorf("amortization not computed: %+v", r)
	}
	if r.PrepCachedSeconds <= 0 {
		t.Errorf("cached prep time not measured: %+v", r)
	}
}

// TestFig6PrepCacheReuse: across Fig. 6's 5-engine × 7-thread-count sweep,
// the shared prep cache builds each artifact exactly once — one per
// partition-centric engine configuration (HiPa, p-PR, GPOP) plus one vertex
// artifact shared by v-PR and Polymer. The other 31 runs are hits, because
// thread count is not part of the artifact key.
func TestFig6PrepCacheReuse(t *testing.T) {
	cfg := testConfig()
	if _, _, err := Fig6(cfg); err != nil {
		t.Fatal(err)
	}
	s := cfg.Prep.Stats()
	if s.Misses != 4 {
		t.Errorf("artifact builds = %d, want 4 (thread sweep must reuse)", s.Misses)
	}
	runs := int64(5 * len(Fig6ThreadCounts))
	if s.Hits != runs-4 {
		t.Errorf("hits = %d, want %d", s.Hits, runs-4)
	}
	if s.Evictions != 0 {
		t.Errorf("evictions = %d, want 0", s.Evictions)
	}
}

func TestSingleNodeExperiment(t *testing.T) {
	cfg := testConfig()
	r, tbl, err := SingleNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("table rows = %d", len(tbl.Rows))
	}
	// Paper §4.5: single-node HiPa (all contention on one node) is slower
	// than 2-node HiPa at the same thread count.
	if r.OneNodeSeconds <= r.TwoNodeSeconds {
		t.Errorf("1-node HiPa (%.5f) should be slower than 2-node (%.5f)", r.OneNodeSeconds, r.TwoNodeSeconds)
	}
	// And GPOP remains the slowest of the partition-centric trio.
	if r.GPOPSeconds <= r.TwoNodeSeconds {
		t.Errorf("GPOP (%.5f) should be slower than 2-node HiPa (%.5f)", r.GPOPSeconds, r.TwoNodeSeconds)
	}
}

// Ablations: every removed design ingredient must cost something — either
// time, traffic, or scheduler events.
func TestAblationsShape(t *testing.T) {
	cfg := testConfig()
	results, tbl, err := Ablations(cfg, "journal")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 || len(tbl.Rows) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	full := results[0]
	byName := map[string]AblationResult{}
	for _, r := range results {
		byName[r.Variant] = r
	}
	if nc := byName["no-compression"]; nc.MApE <= full.MApE {
		t.Errorf("disabling compression should raise MApE: %.2f vs %.2f", nc.MApE, full.MApE)
	}
	if fc := byName["fcfs-no-pinning"]; fc.Remote <= full.Remote {
		t.Errorf("FCFS should raise remote fraction: %.3f vs %.3f", fc.Remote, full.Remote)
	}
	if fc := byName["fcfs-no-pinning"]; fc.Seconds <= full.Seconds {
		t.Errorf("FCFS should be slower: %.5f vs %.5f", fc.Seconds, full.Seconds)
	}
}

func TestNodeScaling(t *testing.T) {
	cfg := testConfig()
	rows, tbl, err := NodeScaling(cfg, "journal")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// More nodes must keep helping (the §4.5 expectation): monotone speedup.
	for i := 1; i < len(rows); i++ {
		if rows[i].Seconds >= rows[i-1].Seconds {
			t.Errorf("%d nodes (%.5fs) not faster than %d nodes (%.5fs)",
				rows[i].Nodes, rows[i].Seconds, rows[i-1].Nodes, rows[i-1].Seconds)
		}
	}
	if rows[0].RemoteFrac != 0 {
		t.Errorf("1-node remote fraction = %f, want 0", rows[0].RemoteFrac)
	}
}

func TestFrontierExperimentShape(t *testing.T) {
	cfg := testConfig()
	rows, tbl, err := Frontier(cfg, "journal")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (HiPa, Delta-PR)", len(rows))
	}
	byName := map[string]FrontierRow{}
	for _, r := range rows {
		byName[r.Engine] = r
		if r.Iterations >= frontierBudget {
			t.Errorf("%s never converged within %d iterations", r.Engine, frontierBudget)
		}
	}
	if h := byName["HiPa"]; h.ActiveFraction != 1 || h.PartitionsSkipped != 0 {
		t.Errorf("dense HiPa row must report the full active set: %+v", h)
	}
	if d := byName["Delta-PR"]; d.ActiveFraction <= 0 || d.ActiveFraction >= 1 {
		t.Errorf("Delta-PR pruned nothing: %+v", d)
	}
	// Accuracy gate: both synchronous engines stay within 10× the tolerance.
	for name, limit := range map[string]float64{"HiPa": 10, "Delta-PR": 10} {
		if r := byName[name]; r.MaxAbsDiff > limit*FrontierTolerance {
			t.Errorf("%s: max abs error %g vs exact ranks, want <= %g", name, r.MaxAbsDiff, limit*FrontierTolerance)
		}
	}
}

func TestRenderCSV(t *testing.T) {
	tbl := &Table{
		Title:  "T",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "has,comma"}, {"q\"uote", "x"}},
		Notes:  []string{"n"},
	}
	var buf bytes.Buffer
	if err := tbl.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# T\n", "a,b\n", `"has,comma"`, `"q""uote"`, "# n\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q:\n%s", want, out)
		}
	}
}

// TestDynamicExperiment runs the incremental re-rank replay and gates the
// headline claim: the sparse warm path converges in at least 2× fewer
// iterations than cold re-ranking, at cold-level accuracy, with modelled
// traffic savings to match.
func TestDynamicExperiment(t *testing.T) {
	cfg := testConfig()
	rows, tbl, err := Dynamic(cfg, "journal")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != dynamicBatches || len(tbl.Rows) != dynamicBatches {
		t.Fatalf("rows = %d, want %d", len(rows), dynamicBatches)
	}
	var cold, warm, delta int
	for _, r := range rows {
		if r.Inserted == 0 && r.Deleted == 0 {
			t.Errorf("batch %d applied no effective mutations", r.Batch)
		}
		if r.PerturbedFraction <= 0 || r.PerturbedFraction > 1 {
			t.Errorf("batch %d: perturbed fraction %g out of range", r.Batch, r.PerturbedFraction)
		}
		if r.MaxAbsDiff > 10*FrontierTolerance {
			t.Errorf("batch %d: warm delta drifted %g from cold (limit %g)", r.Batch, r.MaxAbsDiff, 10*FrontierTolerance)
		}
		if r.ColdBytes > 0 && r.DeltaBytes >= r.ColdBytes {
			t.Errorf("batch %d: sparse warm run modelled %d bytes, cold %d — no traffic saved", r.Batch, r.DeltaBytes, r.ColdBytes)
		}
		cold += r.ColdIterations
		warm += r.WarmIterations
		delta += r.DeltaIterations
	}
	if 2*delta > cold {
		t.Errorf("sparse warm path spent %d iterations vs %d cold — want at least 2× fewer", delta, cold)
	}
	if warm >= cold {
		t.Errorf("dense warm path spent %d iterations vs %d cold — warm starts should converge faster", warm, cold)
	}
}
