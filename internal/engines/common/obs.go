package common

import (
	"hipa/internal/machine"
	"hipa/internal/obs"
)

// Span names of the engine pipeline, shared by all five engines so traces
// from different engines line up in a viewer: preprocessing (partitioning,
// layout/index construction), then per iteration scatter → reduce
// (dangling-mass fold) → gather → apply (residual fold + convergence
// check). Vertex-centric engines map their contribution pass to SpanScatter
// and their pull pass to SpanGather.
const (
	SpanPrepPartition = "prep:partition"
	SpanPrepLayout    = "prep:layout"
	SpanPrepIndex     = "prep:index"
	// SpanPrepFingerprint is the graph fingerprint that keys every
	// artifact, taken on a cache hit too.
	SpanPrepFingerprint = "prep:fingerprint"
	SpanScatter         = "scatter"
	SpanReduce          = "reduce"
	SpanGather          = "gather"
	SpanApply           = "apply"
	// SpanRound is one worker round of the barrierless engine, which has no
	// phase structure to break a superstep into.
	SpanRound = "round"
)

// RunnerLane is the trace lane for serial work done between parallel
// regions (reductions, convergence checks, preprocessing): one past the
// last worker lane.
func RunnerLane(threads int) int { return threads }

// FinishRun finalizes a run's telemetry once the Result is assembled: the
// process-wide bytes-moved counters, model-derived annotation of the
// per-iteration statistics (equal traffic share per iteration; migrations
// charged to iteration 0 for pinned engines, spread for per-phase pools),
// and Result.Iters.
func FinishRun(rec *obs.Recorder, res *Result, m *machine.Machine, pinned bool) {
	// The registry half runs recorder or not: bytes-moved totals accumulate
	// process-wide for every finished run.
	if em := metricsFor(res.Engine); em != nil && res.Model != nil {
		em.localBytes.Add(res.Model.LocalBytes)
		em.remoteBytes.Add(res.Model.RemoteBytes)
	}
	if rec == nil {
		return
	}
	line := 64
	if m != nil && m.L1.LineBytes > 0 {
		line = m.L1.LineBytes
	}
	var localBytes, remoteBytes int64
	if res.Model != nil {
		localBytes, remoteBytes = res.Model.LocalBytes, res.Model.RemoteBytes
	}
	rec.AnnotateModel(localBytes, remoteBytes, line, res.Sched.Migrations, pinned)
	res.Iters = rec.IterationStats()
}
