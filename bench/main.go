// Command bench is the wall-clock benchmark of the HiPa reproduction. It
// makes its own seeded inputs, drives the library and its serving layer from
// outside through their public entry points, times every call, checks every
// answer, and prints a JSON report: every metric with its unit, sample count
// and quartiles, the input fingerprints, procs, and the operations attempted
// and failed. The exit status is non-zero when any check failed.
//
// The last line of standard output is the summary
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// holding the end-to-end metrics of an untraced pass, or with -trace 1 the
// per-layer metrics of a second, traced pass. Run it from the repository
// root through bench/run.sh, which builds it first:
//
//	bash bench/run.sh -workload rank-small -seed 1 -seconds 10 -trace 0
//	bash bench/run.sh -workload serve-read -seed 1 -report runs.jsonl
//	bash bench/run.sh -compare before.jsonl after.jsonl
//
// bench/README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"hipa"
)

// endToEnd and perLayer are the metric names BENCHMARK.json declares, in its
// order: the summary line reports exactly these. The full report has more.
var (
	endToEnd = []string{"setup_s", "qps", "p50_ms"}
	perLayer = []string{
		"graph.build_s", "graph.build_in_s", "graph.fingerprint_s",
		"prep.partition_s", "prep.layout_s", "prep.total_s",
		"driver.scatter_s", "driver.gather_s", "driver.other_s",
		"driver.superstep_s", "driver.ns_per_edge", "driver.computed_gbps",
		"driver.exec_1thread_s", "driver.speedup", "mem.stream_gbps", "driver.bw_fraction",
		"execbuf.arenas_created", "execbuf.arenas_reused",
		"prepcache.hits", "prepcache.misses",
		"serve.execs", "serve.rank_cache_hits", "bppr.iterations_per_batch",
		"trace.overhead_pct",
	}
)

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	measure  time.Duration // measured time of each pass
	procs    int           // GOMAXPROCS and the client connection budget
	dir      string        // where scratch graph files and the trace go
	traced   bool
	tiny     bool // test-sized inputs
}

// Inputs. The journal shapes follow the paper's LiveJournal (4.8M vertices,
// 68.5M edges) scaled down by 256 and by 16.
var (
	rmatLarge  = rmat{scale: 20, edgeFactor: 31}
	journal256 = powerLaw{n: 18750, m: 267578, outAlpha: 2.3, inAlpha: 0.9}
	journal16  = powerLaw{n: 300000, m: 4281250, outAlpha: 2.3, inAlpha: 0.9}
	rmatTiny   = rmat{scale: 12, edgeFactor: 8}
	powerTiny  = powerLaw{n: 1 << 12, m: 1 << 16, outAlpha: 2.3, inAlpha: 0.9}
)

// workloads builds each workload; bench/README.md says why each exists.
var workloads = map[string]func(cfg config) (workload, error){
	"rank-large": func(cfg config) (workload, error) {
		return newRankWorkload(cfg, pick[edgeSource](cfg, rmatLarge, rmatTiny), pick(cfg, 3, 2))
	},
	"rank-small": func(cfg config) (workload, error) {
		return newRankWorkload(cfg, pick[edgeSource](cfg, journal256, powerTiny), pick(cfg, 21, 3))
	},
	"serve-read": func(cfg config) (workload, error) {
		return newServeWorkload(cfg, pick[edgeSource](cfg, journal16, powerTiny), false, pick(cfg, 5, 2))
	},
	"serve-update": func(cfg config) (workload, error) {
		return newServeWorkload(cfg, pick[edgeSource](cfg, journal256, powerTiny), true, pick(cfg, 21, 2))
	},
}

// warmup is the untimed stretch before each pass's measured time.
func warmup(measure time.Duration) time.Duration { return measure / 10 }

func pick[T any](cfg config, full, tiny T) T {
	if cfg.tiny {
		return tiny
	}
	return full
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// workload is one set of inputs, made once per process, and the passes run
// over them.
type workload interface {
	inputs() []inputInfo
	size() (vertices int, edges int64)
	// pass runs the workload once, recording spans into tr (nil untraced).
	pass(tr *tracer) (*passResult, error)
	// probeGraph is the graph the thread-scaling probe ranks.
	probeGraph() *hipa.Graph
	close()
}

// passResult is what one pass measured.
type passResult struct {
	e2e    map[string]metric // end-to-end metrics
	layers map[string]metric // per-layer metrics the workload measures itself
	ops    opCount
	// execs and execSum count and time the HiPa Execs the benchmark ran
	// itself (rank passes).
	execs   int
	execSum float64
	// clientMean is the mean client-side latency by endpoint, in seconds
	// (serving passes).
	clientMean map[string]float64
}

func newPassResult() *passResult {
	return &passResult{e2e: map[string]metric{}, layers: map[string]metric{}, clientMean: map[string]float64{}}
}

// report is the full result of one run.
type report struct {
	Workload  string              `json:"workload"`
	Seed      uint64              `json:"seed"`
	Procs     int                 `json:"procs"`
	Seconds   float64             `json:"seconds"`
	Traced    bool                `json:"traced"`
	Inputs    []inputInfo         `json:"inputs"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Failures  []string            `json:"failures,omitempty"`
	Metrics   map[string]metric   `json:"metrics"`
	Layers    map[string]metric   `json:"layers,omitempty"`
	SelfTime  map[string]selfTime `json:"self_time,omitempty"`
	TraceFile string              `json:"trace_file,omitempty"`
}

func (r *report) count(o *opCount) {
	r.Attempted += o.attempted
	r.Failed += o.failed
	r.Failures = append(r.Failures, o.failures...)
}

// streamBytes is the size of each array of the bandwidth measurement: 128
// MiB, four times the 32 MiB last-level cache of the reference host.
func streamBytes(cfg config) int { return pick(cfg, 128<<20, 8<<20) }

// run makes the workload's inputs and runs its passes: an untraced one for
// the end-to-end metrics and, when traced, a second one with spans for the
// per-layer metrics.
func run(cfg config) (*report, error) {
	mk, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	rep := &report{Workload: cfg.workload, Seed: cfg.seed, Procs: cfg.procs, Seconds: cfg.measure.Seconds(), Traced: cfg.traced}
	var stream float64
	if cfg.traced {
		// First, so its arrays are garbage before the inputs are built.
		stream = streamGBps(streamBytes(cfg), cfg.procs)
		runtime.GC()
	}
	w, err := mk(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: making inputs: %w", cfg.workload, err)
	}
	defer w.close()
	rep.Inputs = w.inputs()

	plain, err := w.pass(nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	rep.Metrics = plain.e2e
	rep.count(&plain.ops)

	if cfg.traced {
		tr := newTracer()
		before := readRegistry()
		traced, err := w.pass(tr)
		if err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", cfg.workload, err)
		}
		delta := readRegistry().since(before)
		rep.count(&traced.ops)
		n, m := w.size()
		layers := layerMetrics(delta, traced, n, m)
		one, speedup, err := probeScaling(w.probeGraph())
		if err != nil {
			return nil, fmt.Errorf("%s: thread-scaling probe: %w", cfg.workload, err)
		}
		layers["driver.exec_1thread_s"] = single(one, "s")
		layers["driver.speedup"] = single(speedup, "x")
		layers["mem.stream_gbps"] = single(stream, "GB/s")
		layers["driver.bw_fraction"] = single(ratio(layers["driver.computed_gbps"].Value, stream), "ratio")
		layers["trace.overhead_pct"] = single(100*(traced.e2e["p50_ms"].Value/plain.e2e["p50_ms"].Value-1), "%")
		rep.Layers = layers
		rep.SelfTime = tr.selfTimes()
		rep.TraceFile = filepath.Join(cfg.dir, "trace-"+cfg.workload+".json")
		if err := tr.writeChrome(rep.TraceFile); err != nil {
			return nil, err
		}
	}
	rep.Metrics["error_rate"] = single(ratio(float64(rep.Failed), float64(rep.Attempted)), "ratio")
	return rep, nil
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]summaryMetric `json:"metrics"`
}

type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarizeReport picks the declared end-to-end metrics, or the per-layer
// ones of a traced run.
func summarizeReport(rep *report) (summary, error) {
	names, from := endToEnd, rep.Metrics
	if rep.Traced {
		names, from = perLayer, rep.Layers
	}
	s := summary{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]summaryMetric{}}
	for _, name := range names {
		m, ok := from[name]
		if !ok {
			return s, fmt.Errorf("metric %s was not measured", name)
		}
		s.Metrics[name] = summaryMetric{m.Value, m.Unit}
	}
	return s, nil
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 1, "seed of the inputs and the request streams")
		seconds  = flag.Int("seconds", 15, "measured seconds of each pass")
		trace    = flag.Int("trace", 0, "1 adds a traced pass and reports per-layer metrics")
		procs    = flag.Int("procs", 2, "GOMAXPROCS, and the most client connections used")
		dir      = flag.String("out", ".bench_build", "directory for scratch graph files and the trace")
		reportTo = flag.String("report", "", "append the full report as one JSON line to this file")
		compare  = flag.Bool("compare", false, "compare two report files given as arguments: -compare A.jsonl B.jsonl")
		bounds   = flag.String("bounds", "BENCHMARK.json", "benchmark definition with the regression bounds (compare mode)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files"))
		}
		regressed, err := compareFiles(os.Stdout, *bounds, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace is 0 or 1, not %d", *trace))
	}
	if *seconds < 1 || *procs < 1 {
		fatal(fmt.Errorf("-seconds and -procs must be positive"))
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatal(err)
	}
	runtime.GOMAXPROCS(*procs)
	rep, err := run(config{
		workload: *workload, seed: *seed, measure: time.Duration(*seconds) * time.Second,
		procs: *procs, dir: *dir, traced: *trace == 1,
	})
	if err != nil {
		fatal(err)
	}
	sum, err := summarizeReport(rep)
	if err != nil {
		fatal(err)
	}
	full, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(full))
	if *reportTo != "" {
		if err := appendLine(*reportTo, rep); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if rep.Failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d of %d checked operations failed\n", rep.Failed, rep.Attempted)
		os.Exit(1)
	}
}

// appendLine appends v as one JSON line to path.
func appendLine(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
