package serve

import "hipa/internal/obs"

// Registry metric families exported by the serving layer. The hipa_serve_*
// families describe the compute side (Execs, coalescing, reloads); the
// hipa_http_* families describe the transport side per endpoint.
const (
	MetricExecs         = "hipa_serve_execs_total"
	MetricExecCoalesced = "hipa_serve_exec_coalesced_total"
	MetricRankCacheHits = "hipa_serve_rank_cache_hits_total"
	MetricExecWait      = "hipa_serve_exec_wait_seconds"
	MetricReloads       = "hipa_serve_reloads_total"
	MetricReloadSecs    = "hipa_serve_reload_seconds"
	MetricGraphVersion  = "hipa_serve_graph_version"

	MetricHTTPSeconds  = "hipa_http_request_seconds"
	MetricHTTPRequests = "hipa_http_requests_total"
	MetricHTTPInflight = "hipa_http_inflight"

	// The hipa_serve_ppr_* families describe the /v1/ppr batching queue.
	MetricPPRQueries    = "hipa_serve_ppr_queries_total"
	MetricPPRBatches    = "hipa_serve_ppr_batches_total"
	MetricPPRExecs      = "hipa_serve_ppr_execs_total"
	MetricPPRRejected   = "hipa_serve_ppr_rejected_total"
	MetricPPRQueueDepth = "hipa_serve_ppr_queue_depth"
	MetricPPRBatchSize  = "hipa_serve_ppr_batch_size"
	MetricPPRFlushSecs  = "hipa_serve_ppr_flush_seconds"

	// MetricStageSeconds splits a request's latency into its serving stages
	// (labels endpoint, stage). /v1/ppr records stage="queue" (arrival to
	// batch flush) and stage="exec" (the batch's ExecBatch), once per
	// request.
	MetricStageSeconds = "hipa_serve_stage_seconds"
)

// serveMetrics holds the service-wide registry handles. Each lookup through
// the registry takes its mutex and builds a label signature, so request
// paths never look a series up: per-graph handles are resolved once in
// forGraph when the graph loads, and per-endpoint handles once when Handler
// builds the mux (only non-200 status counters are looked up per request).
type serveMetrics struct {
	reg             *obs.Registry
	execWait        *obs.Histogram
	reloadSeconds   *obs.Histogram
	inflight        *obs.Gauge
	pprBatchSize    *obs.Histogram
	pprFlushSeconds *obs.Histogram
	pprQueueStage   *obs.Histogram
	pprExecStage    *obs.Histogram
}

func newServeMetrics(reg *obs.Registry) *serveMetrics {
	reg.SetHelp(MetricExecs, "Engine Execs run by the serving layer.")
	reg.SetHelp(MetricExecCoalesced, "Rank requests coalesced onto an in-flight Exec.")
	reg.SetHelp(MetricRankCacheHits, "Rank requests served from a snapshot's cached vector.")
	reg.SetHelp(MetricExecWait, "Seconds rank computations waited for an Exec slot.")
	reg.SetHelp(MetricReloads, "Mutation-stream reloads applied per graph.")
	reg.SetHelp(MetricReloadSecs, "Seconds spent applying a reload (prep patch + warm re-rank).")
	reg.SetHelp(MetricGraphVersion, "Currently served graph version.")
	reg.SetHelp(MetricHTTPSeconds, "HTTP request latency per endpoint.")
	reg.SetHelp(MetricHTTPRequests, "HTTP requests per endpoint and status code.")
	reg.SetHelp(MetricHTTPInflight, "HTTP requests currently being handled.")
	reg.SetHelp(MetricPPRQueries, "Personalized-PageRank queries accepted by the batching queue.")
	reg.SetHelp(MetricPPRBatches, "Batches flushed by the /v1/ppr collector.")
	reg.SetHelp(MetricPPRExecs, "Batched B-PPR Execs completed.")
	reg.SetHelp(MetricPPRRejected, "Queries rejected because the /v1/ppr queue was full.")
	reg.SetHelp(MetricPPRQueueDepth, "Queued /v1/ppr requests awaiting collection.")
	reg.SetHelp(MetricPPRBatchSize, "Width of flushed /v1/ppr batches.")
	reg.SetHelp(MetricPPRFlushSecs, "Seconds from batch flush to responses fanned out.")
	reg.SetHelp(MetricStageSeconds, "Seconds a request spent in one serving stage, per endpoint and stage.")
	return &serveMetrics{
		reg:             reg,
		execWait:        reg.Histogram(MetricExecWait),
		reloadSeconds:   reg.Histogram(MetricReloadSecs),
		inflight:        reg.Gauge(MetricHTTPInflight),
		pprBatchSize:    reg.Histogram(MetricPPRBatchSize),
		pprFlushSeconds: reg.Histogram(MetricPPRFlushSecs),
		pprQueueStage:   reg.Histogram(MetricStageSeconds, "endpoint", "ppr", "stage", "queue"),
		pprExecStage:    reg.Histogram(MetricStageSeconds, "endpoint", "ppr", "stage", "exec"),
	}
}

// graphMetrics are one graph's registry series.
type graphMetrics struct {
	execs, execCoalesced, rankCacheHits, reloads  *obs.Counter
	pprQueries, pprBatches, pprExecs, pprRejected *obs.Counter
	version, pprQueueDepth                        *obs.Gauge
}

func (m *serveMetrics) forGraph(graph string) graphMetrics {
	c := func(name string) *obs.Counter { return m.reg.Counter(name, "graph", graph) }
	return graphMetrics{
		execs:         c(MetricExecs),
		execCoalesced: c(MetricExecCoalesced),
		rankCacheHits: c(MetricRankCacheHits),
		reloads:       c(MetricReloads),
		pprQueries:    c(MetricPPRQueries),
		pprBatches:    c(MetricPPRBatches),
		pprExecs:      c(MetricPPRExecs),
		pprRejected:   c(MetricPPRRejected),
		version:       m.reg.Gauge(MetricGraphVersion, "graph", graph),
		pprQueueDepth: m.reg.Gauge(MetricPPRQueueDepth, "graph", graph),
	}
}

func (m *serveMetrics) httpRequests(endpoint, code string) *obs.Counter {
	return m.reg.Counter(MetricHTTPRequests, "endpoint", endpoint, "code", code)
}
