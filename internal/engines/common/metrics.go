package common

import (
	"strings"
	"sync"
	"time"

	"hipa/internal/obs"
)

// This file wires the engines into the process-wide obs registry. A run's
// Result and its Recorder (trace, iteration statistics) answer "what
// happened in this run"; the registry series here answer "what has this
// process been doing", continuously scrapeable at /metrics while a -repeat
// loop or a server is live. Handles are resolved once per Exec
// (NewSuperstepLoop) and recording is pure atomics, so the superstep loop
// stays at zero allocations per iteration.

// Registry metric families recorded by the engine layer.
const (
	MetricSuperstepSeconds = "hipa_superstep_seconds"
	MetricPhaseSeconds     = "hipa_phase_seconds"
	MetricResidual         = "hipa_residual"
	MetricIterationsTotal  = "hipa_iterations_total"
	MetricLocalBytesTotal  = "hipa_model_local_bytes_total"
	MetricRemoteBytesTotal = "hipa_model_remote_bytes_total"
	MetricPrepStageSeconds = "hipa_prep_stage_seconds"
	// Frontier series, recorded only by active-set engines (the dense five
	// never emit them).
	MetricActiveFraction         = "hipa_frontier_active_fraction"
	MetricPartitionsSkippedTotal = "hipa_frontier_partitions_skipped_total"
)

var engineHelpOnce sync.Once

func registerEngineHelp() {
	engineHelpOnce.Do(func() {
		reg := obs.Default()
		reg.SetHelp(MetricSuperstepSeconds, "Wall time of one complete superstep (scatter, reduce, gather, apply), per engine.")
		reg.SetHelp(MetricPhaseSeconds, "Wall time of one parallel phase of a superstep, per engine and phase.")
		reg.SetHelp(MetricResidual, "Per-superstep L-infinity rank change, per engine.")
		reg.SetHelp(MetricIterationsTotal, "Supersteps executed, per engine.")
		reg.SetHelp(MetricLocalBytesTotal, "Modelled NUMA-local DRAM traffic of finished runs, per engine.")
		reg.SetHelp(MetricRemoteBytesTotal, "Modelled NUMA-remote DRAM traffic of finished runs, per engine.")
		reg.SetHelp(MetricPrepStageSeconds, "Wall time of one preprocessing stage (partition, layout, index, fingerprint).")
		reg.SetHelp(MetricActiveFraction, "Per-iteration active-vertex fraction of a frontier-aware engine (1.0 = dense).")
		reg.SetHelp(MetricPartitionsSkippedTotal, "Partition-iterations skipped by frontier pruning, per engine.")
	})
}

// engineMetrics are one engine's registry handles, resolved once and cached
// for the process lifetime so a repeat loop re-resolves nothing.
type engineMetrics struct {
	superstep      *obs.Histogram
	scatter        *obs.Histogram
	gather         *obs.Histogram
	residual       *obs.Histogram
	activeFraction *obs.Histogram
	iterations     *obs.Counter
	localBytes     *obs.Counter
	remoteBytes    *obs.Counter
	partsSkipped   *obs.Counter
}

var engineMetricsCache sync.Map // engine name -> *engineMetrics

// metricsFor returns the cached registry handles for the named engine, or
// nil when no engine name is set (anonymous SuperstepLoop uses — tests,
// future engines — record nothing process-wide).
func metricsFor(engine string) *engineMetrics {
	if engine == "" {
		return nil
	}
	if v, ok := engineMetricsCache.Load(engine); ok {
		return v.(*engineMetrics)
	}
	registerEngineHelp()
	reg := obs.Default()
	em := &engineMetrics{
		superstep:      reg.Histogram(MetricSuperstepSeconds, "engine", engine),
		scatter:        reg.Histogram(MetricPhaseSeconds, "engine", engine, "phase", SpanScatter),
		gather:         reg.Histogram(MetricPhaseSeconds, "engine", engine, "phase", SpanGather),
		residual:       reg.Histogram(MetricResidual, "engine", engine),
		activeFraction: reg.Histogram(MetricActiveFraction, "engine", engine),
		iterations:     reg.Counter(MetricIterationsTotal, "engine", engine),
		localBytes:     reg.Counter(MetricLocalBytesTotal, "engine", engine),
		remoteBytes:    reg.Counter(MetricRemoteBytesTotal, "engine", engine),
		partsSkipped:   reg.Counter(MetricPartitionsSkippedTotal, "engine", engine),
	}
	v, _ := engineMetricsCache.LoadOrStore(engine, em)
	return v.(*engineMetrics)
}

var prepStageCache sync.Map // stage span name -> *obs.Histogram

// EndPrepStage closes one preprocessing stage begun at start: it records
// the stage's duration into the process-wide prep-stage histogram and, when
// rec traces, emits the same-named span on lane. span is a prep span name
// (SpanPrepPartition, ...); the "prep:" prefix becomes the stage label.
func EndPrepStage(rec *obs.Recorder, lane int, span string, start time.Time) {
	h, ok := prepStageCache.Load(span)
	if !ok {
		registerEngineHelp()
		h, _ = prepStageCache.LoadOrStore(span, obs.Default().Histogram(MetricPrepStageSeconds, "stage", strings.TrimPrefix(span, "prep:")))
	}
	h.(*obs.Histogram).Observe(time.Since(start).Seconds())
	if tr := rec.T(); tr != nil {
		tr.Span(lane, span, -1, start)
	}
}
