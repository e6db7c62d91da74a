package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"hipa"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are Python's statistics.quantiles(data, n=4).
	for _, tc := range []struct {
		data      []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{0.5, 0.9, 1.0, 1.3, 2.0}, 0.7, 1.0, 1.65},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := quartiles(tc.data)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(m-tc.m) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.data, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{0.5: 50, 0.95: 95, 0.99: 99, 1: 100, 0.001: 1} {
		if got := percentile(sorted, q); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", q, got, want)
		}
	}
	if got := percentile([]float64{3, 9}, 0.99); got != 9 {
		t.Errorf("p99 of two samples = %v, want the larger", got)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name    string
		b       []float64
		lower   bool
		verdict string
	}{
		{"same", []float64{100, 100, 101, 99, 100}, true, verdictWithin},
		{"slower", []float64{110, 111, 109, 110, 110}, true, verdictRegressed},
		{"faster", []float64{90, 91, 89, 90, 90}, true, verdictWithin},
		{"fewer per second", []float64{90, 91, 89, 90, 90}, false, verdictRegressed},
		{"noisy", []float64{80, 120, 100, 90, 115}, true, verdictUnresolved},
		{"noisy but better every run", []float64{50, 70, 60, 55, 65}, true, verdictWithin},
	} {
		if _, v := judge(base, tc.b, tc.lower, 0.05); v != tc.verdict {
			t.Errorf("%s: verdict %q, want %q", tc.name, v, tc.verdict)
		}
	}
}

func TestCheckersRejectBadOutput(t *testing.T) {
	g := build(powerTiny.vertices(), powerTiny.edges(1, 2))
	ref := hipa.ReferencePageRank(g, iterations, damping)
	res, err := hipa.HiPa.Run(g, rankOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRanks(res.Ranks, ref); err != nil {
		t.Fatalf("correct ranks rejected: %v", err)
	}
	corrupt := slices.Clone(res.Ranks)
	corrupt[7] += 1e-4
	corrupt[8] -= 1e-4 // keeps the sum at 1
	if checkRanks(corrupt, ref) == nil {
		t.Error("corrupted rank vector accepted")
	}

	var top []entry
	for _, v := range hipa.TopK(res.Ranks, 10) {
		top = append(top, entry{int32(v), float64(res.Ranks[v])})
	}
	if err := checkTopK(top, 10, ref); err != nil {
		t.Fatalf("correct top-k rejected: %v", err)
	}
	swapped := slices.Clone(top)
	swapped[2], swapped[3] = swapped[3], swapped[2]
	if checkTopK(swapped, 10, ref) == nil {
		t.Error("top-k in the wrong order accepted")
	}
	if checkTopK(top[:9], 10, ref) == nil {
		t.Error("short top-k accepted")
	}
}

func TestInputsIndependentOfProcs(t *testing.T) {
	// Pinned so a change to a generator shows as a changed input.
	want := map[string]string{
		"rmat":      "74ed84f4f24145b4",
		"powerlaw":  "cfa47ba1dc0baaf5",
		"mutations": "b654b63601fa4c66",
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		rm := build(rmatTiny.vertices(), rmatTiny.edges(7, procs))
		pl := build(powerTiny.vertices(), powerTiny.edges(7, procs))
		got := map[string]string{
			"rmat":      graphInfo("rmat", rm).Fingerprint,
			"powerlaw":  graphInfo("powerlaw", pl).Fingerprint,
			"mutations": mutationsFingerprint(mutationBatches(pl, 7, 20, mutationBatch)),
		}
		for name, fp := range got {
			if fp != want[name] {
				t.Errorf("GOMAXPROCS %d: %s fingerprint %s, want %s", procs, name, fp, want[name])
			}
		}
	}
}

// benchmarkJSON reads the repository's benchmark definition.
func benchmarkJSON(t *testing.T) benchDef {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def benchDef
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	return def
}

func TestWorkloadsTiny(t *testing.T) {
	def := benchmarkJSON(t)
	units := map[string]string{}
	var e2eNames, layerNames []string
	for _, d := range def.EndToEnd {
		units[d.Name] = d.Unit
		e2eNames = append(e2eNames, d.Name)
	}
	for _, d := range def.PerLayer {
		units[d.Name] = d.Unit
		layerNames = append(layerNames, d.Name)
	}
	if !slices.Equal(e2eNames, endToEnd) || !slices.Equal(layerNames, perLayer) {
		t.Fatalf("BENCHMARK.json declares %v and %v; the code reports %v and %v", e2eNames, layerNames, endToEnd, perLayer)
	}

	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			cfg := config{workload: name, seed: 3, measure: time.Second, procs: 2, dir: t.TempDir(), traced: true, tiny: true}
			rep, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("%d of %d operations failed: %v", rep.Failed, rep.Attempted, rep.Failures)
			}
			for _, traced := range []bool{false, true} {
				rep.Traced = traced
				sum, err := summarizeReport(rep)
				if err != nil {
					t.Fatal(err)
				}
				for k, m := range sum.Metrics {
					if m.Unit != units[k] {
						t.Errorf("%s has unit %q, BENCHMARK.json says %q", k, m.Unit, units[k])
					}
				}
			}
			for _, k := range endToEnd {
				if rep.Metrics[k].Value <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", k, rep.Metrics[k].Value)
				}
			}
			for _, k := range []string{"graph.build_s", "prep.layout_s", "driver.scatter_s", "driver.gather_s", "driver.exec_1thread_s", "mem.stream_gbps"} {
				if rep.Layers[k].Value <= 0 {
					t.Errorf("per-layer %s = %v, want > 0", k, rep.Layers[k].Value)
				}
			}
			checkTraceFile(t, rep.TraceFile)
		})
	}
}

// checkTraceFile asserts the trace is trace_event JSON whose spans all name
// a recorded parent, with one root.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	ids := map[int64]bool{}
	for _, ev := range doc.TraceEvents {
		ids[ev.Args["id"]] = true
	}
	roots := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 0 {
			t.Fatalf("bad event %+v", ev)
		}
		switch p := ev.Args["parent"]; {
		case p == 0:
			roots++
		case !ids[p]:
			t.Fatalf("span %s names missing parent %d", ev.Name, p)
		}
	}
	if roots != 1 {
		t.Errorf("trace has %d root spans, want 1", roots)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, reps ...report) string {
		path := filepath.Join(dir, name)
		for _, r := range reps {
			if err := appendLine(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	run := func(seed uint64, fp string, p50 float64) report {
		return report{
			Workload: "rank-small", Seed: seed, Procs: 2,
			Inputs:  []inputInfo{{Name: "graph", Fingerprint: fp}},
			Metrics: map[string]metric{"p50_ms": single(p50, "ms")},
		}
	}
	bounds := filepath.Join("..", "BENCHMARK.json")
	a := write("a.jsonl", run(1, "aa", 10), run(2, "bb", 10.1))
	b := write("b.jsonl", run(1, "aa", 15), run(2, "bb", 15.2))
	var out strings.Builder
	regressed, err := compareFiles(&out, bounds, a, b)
	if err != nil || !regressed || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("50%% slower p50: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	other := write("c.jsonl", run(1, "aa", 10), run(2, "cc", 10))
	if _, err := compareFiles(&out, bounds, a, other); err == nil {
		t.Error("runs on different inputs compared")
	}
}
