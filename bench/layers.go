package main

import (
	"slices"
	"sync"
	"time"

	"hipa"
	"hipa/internal/engines/bppr"
	"hipa/internal/engines/common"
	"hipa/internal/execbuf"
	"hipa/internal/obs"
	"hipa/internal/serve"
)

// graphName is the registry name the serving workloads give their graph.
const graphName = "g"

// Per-layer metrics come from series the program already records in its
// process-wide registry, sampled before and after the traced pass. The
// benchmark adds no instrumentation of its own inside the program.
var (
	histSeries = map[string][]string{
		"hipa.scatter":     {common.MetricPhaseSeconds, "engine", "HiPa", "phase", common.SpanScatter},
		"hipa.gather":      {common.MetricPhaseSeconds, "engine", "HiPa", "phase", common.SpanGather},
		"hipa.superstep":   {common.MetricSuperstepSeconds, "engine", "HiPa"},
		"bppr.scatter":     {common.MetricPhaseSeconds, "engine", bppr.Name, "phase", common.SpanScatter},
		"bppr.gather":      {common.MetricPhaseSeconds, "engine", bppr.Name, "phase", common.SpanGather},
		"prep.fingerprint": {common.MetricPrepStageSeconds, "stage", "fingerprint"},
		"prep.partition":   {common.MetricPrepStageSeconds, "stage", "partition"},
		"prep.layout":      {common.MetricPrepStageSeconds, "stage", "layout"},
		"http.rank":        {serve.MetricHTTPSeconds, "endpoint", "rank"},
		"http.topk":        {serve.MetricHTTPSeconds, "endpoint", "topk"},
		"http.neighbors":   {serve.MetricHTTPSeconds, "endpoint", "neighbors"},
		"http.ppr":         {serve.MetricHTTPSeconds, "endpoint", "ppr"},
		"serve.exec_wait":  {serve.MetricExecWait},
		"serve.reload":     {serve.MetricReloadSecs},
		"ppr.flush":        {serve.MetricPPRFlushSecs},
		"ppr.batch":        {serve.MetricPPRBatchSize},
	}
	counterSeries = map[string][]string{
		"execbuf.created":  {execbuf.MetricArenasCreated},
		"execbuf.reused":   {execbuf.MetricArenasReused},
		"prepcache.hits":   {common.MetricPrepCacheHits},
		"prepcache.misses": {common.MetricPrepCacheMisses},
		"serve.execs":      {serve.MetricExecs, "graph", graphName},
		"serve.cache_hits": {serve.MetricRankCacheHits, "graph", graphName},
		"ppr.batches":      {serve.MetricPPRBatches, "graph", graphName},
		"bppr.iterations":  {common.MetricIterationsTotal, "engine", bppr.Name},
	}
)

// regState is a reading of the series above.
type regState struct {
	hist    map[string]obs.HistogramSnapshot
	counter map[string]int64
}

func readRegistry() regState {
	reg := obs.Default()
	s := regState{hist: map[string]obs.HistogramSnapshot{}, counter: map[string]int64{}}
	for k, sr := range histSeries {
		s.hist[k] = reg.Histogram(sr[0], sr[1:]...).Snapshot()
	}
	for k, sr := range counterSeries {
		s.counter[k] = reg.Counter(sr[0], sr[1:]...).Value()
	}
	return s
}

// since returns what was recorded between the earlier reading and s, as
// histogram counts and sums only: quantiles of the registry's log buckets
// are bucket bounds, which can read the same on every run.
func (s regState) since(earlier regState) regState {
	d := regState{hist: map[string]obs.HistogramSnapshot{}, counter: map[string]int64{}}
	for k, h := range s.hist {
		e := earlier.hist[k]
		d.hist[k] = obs.HistogramSnapshot{Count: h.Count - e.Count, Sum: h.Sum - e.Sum}
	}
	for k, c := range s.counter {
		d.counter[k] = c - earlier.counter[k]
	}
	return d
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics of a traced pass from the
// registry delta d and the pass's own measurements, for a graph of n
// vertices and m edges.
func layerMetrics(d regState, p *passResult, n int, m int64) map[string]metric {
	out := map[string]metric{}
	for k, v := range p.layers {
		out[k] = v
	}
	h, c := d.hist, d.counter

	// Prep stages, per Prepare call: every Prepare fingerprints (a memoized
	// fingerprint records ~0), while partition and layout run on cache misses.
	prepares := float64(h["prep.fingerprint"].Count)
	out["prep.partition_s"] = single(h["prep.partition"].Mean(), "s")
	out["prep.layout_s"] = single(h["prep.layout"].Mean(), "s")
	out["prep.total_s"] = single(ratio(h["prep.fingerprint"].Sum+h["prep.partition"].Sum+h["prep.layout"].Sum, prepares), "s")

	// The superstep driver, per HiPa Exec. A rank pass times its own Execs;
	// a serving pass cannot see the Exec wall, so there other_s is the
	// superstep time outside scatter and gather.
	execs := float64(p.execs)
	busy := p.execSum
	if p.execs == 0 {
		execs = float64(c["serve.execs"])
		busy = h["hipa.superstep"].Sum
	}
	scatter, gather := ratio(h["hipa.scatter"].Sum, execs), ratio(h["hipa.gather"].Sum, execs)
	out["driver.scatter_s"] = single(scatter, "s")
	out["driver.gather_s"] = single(gather, "s")
	out["driver.other_s"] = single(ratio(busy, execs)-scatter-gather, "s")
	step := h["hipa.superstep"]
	out["driver.superstep_s"] = single(step.Mean(), "s")
	out["driver.ns_per_edge"] = single(ratio(step.Mean()*1e9, float64(m)), "ns")
	// Computed, not measured, traffic: 4 bytes per edge and 8 per vertex
	// (rank and accumulator) per superstep.
	out["driver.computed_gbps"] = single(ratio(float64(4*m+8*int64(n))/1e9, step.Mean()), "GB/s")

	out["execbuf.arenas_created"] = single(float64(c["execbuf.created"]), "count")
	out["execbuf.arenas_reused"] = single(float64(c["execbuf.reused"]), "count")
	out["prepcache.hits"] = single(float64(c["prepcache.hits"]), "count")
	out["prepcache.misses"] = single(float64(c["prepcache.misses"]), "count")

	// Serving layer. Zero where a workload does not serve.
	out["serve.execs"] = single(float64(c["serve.execs"]), "count")
	out["serve.rank_cache_hits"] = single(float64(c["serve.cache_hits"]), "count")
	out["serve.exec_wait_s"] = single(h["serve.exec_wait"].Sum, "s")
	var handled, handlerSum, clientSum float64
	for _, ep := range []string{"rank", "topk", "neighbors", "ppr"} {
		hs := h["http."+ep]
		out["serve.handler_"+ep+"_mean_ms"] = single(hs.Mean()*1e3, "ms")
		handled += float64(hs.Count)
		handlerSum += hs.Sum
		clientSum += p.clientMean[ep] * float64(hs.Count)
	}
	out["serve.transport_ms"] = single(ratio(clientSum-handlerSum, handled)*1e3, "ms")
	batches := float64(c["ppr.batches"])
	out["serve.ppr_batch_mean"] = single(h["ppr.batch"].Mean(), "count")
	out["serve.ppr_batch_exec_ms"] = single(h["ppr.flush"].Mean()*1e3, "ms")
	if ppr, ok := p.layers["serve.ppr_p50_ms"]; ok {
		out["serve.ppr_queue_ms"] = single(ppr.Value-h["ppr.flush"].Mean()*1e3, "ms")
	}
	out["serve.reload_server_mean_ms"] = single(h["serve.reload"].Mean()*1e3, "ms")
	out["bppr.iterations_per_batch"] = single(ratio(float64(c["bppr.iterations"]), batches), "count")
	out["bppr.phase_s"] = single(ratio(h["bppr.scatter"].Sum+h["bppr.gather"].Sum, batches), "s")
	return out
}

// probeRuns is how many Execs each side of the thread-scaling probe times.
const probeRuns = 3

// probeScaling times 20-iteration HiPa Execs on g with the engine's default
// threads run by one goroutine, then by GOMAXPROCS goroutines: the
// single-core baseline and the speedup over it. The thread count itself is
// left at the default because HiPa rounds it up to one per NUMA node, so
// only the goroutine cap gives a one-core run of the same work.
func probeScaling(g *hipa.Graph) (one, speedup float64, err error) {
	prep, err := hipa.HiPa.Prepare(g, rankOptions())
	if err != nil {
		return 0, 0, err
	}
	median := func(o hipa.Options) (float64, error) {
		var t []float64
		for i := 0; i < probeRuns; i++ {
			start := time.Now()
			if _, err := hipa.HiPa.Exec(prep, o); err != nil {
				return 0, err
			}
			t = append(t, time.Since(start).Seconds())
		}
		slices.Sort(t)
		return medianOf(t), nil
	}
	serial := rankOptions()
	serial.GoParallelism = 1
	if one, err = median(serial); err != nil {
		return 0, 0, err
	}
	all, err := median(rankOptions())
	if err != nil {
		return 0, 0, err
	}
	return one, one / all, nil
}

// streamGBps measures memory bandwidth the way STREAM's copy kernel does:
// the median of five copies between two arrays of the given size (together
// far larger than the last-level cache), split over the workers, counting
// the bytes read and the bytes written.
func streamGBps(bytes, workers int) float64 {
	src := make([]float64, bytes/8)
	dst := make([]float64, bytes/8)
	for i := range src {
		src[i] = float64(i)
	}
	copy(dst, src) // fault every page in before timing
	var t []float64
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := w*len(src)/workers, (w+1)*len(src)/workers
			wg.Add(1)
			go func() {
				defer wg.Done()
				copy(dst[lo:hi], src[lo:hi])
			}()
		}
		wg.Wait()
		t = append(t, time.Since(start).Seconds())
	}
	slices.Sort(t)
	return 2 * float64(bytes) / medianOf(t) / 1e9
}
