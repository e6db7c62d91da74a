package enginetest

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"hipa/internal/engines/common"
	"hipa/internal/engines/hipa"
	"hipa/internal/engines/vpr"
	"hipa/internal/gen"
	"hipa/internal/obs"
)

// TestPrepStagesRecordedOnce pins the one-call-site contract of the prep
// stages: a cold Prepare records each of its stages exactly once in
// hipa_prep_stage_seconds and emits exactly one same-named span, on the
// engine's runner lane; a cache hit records only the fingerprint.
func TestPrepStagesRecordedOnce(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Vertices: 1500, Edges: 18000, OutAlpha: 2.1, InAlpha: 0.9, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	o := testOptions(4)
	// An odd request: HiPa rounds it down to a node multiple, and its prep
	// spans must follow the rounded count, not a worker lane.
	o.Threads = 7
	hipaThreads, _ := hipa.RoundThreads(o.Threads, o.Machine.NUMANodes)
	if hipaThreads == o.Threads {
		t.Fatalf("test machine has %d nodes; pick a request HiPa rounds", o.Machine.NUMANodes)
	}
	for _, tc := range []struct {
		e      common.Engine
		lane   int
		stages []string // what a cold Prepare records
	}{
		{hipa.Engine{}, common.RunnerLane(hipaThreads), []string{common.SpanPrepFingerprint, common.SpanPrepPartition, common.SpanPrepLayout}},
		{vpr.Engine{}, common.RunnerLane(o.Threads), []string{common.SpanPrepFingerprint, common.SpanPrepIndex}},
	} {
		o := o
		o.PrepCache = common.NewPrepCache(0)
		for _, hit := range []bool{false, true} {
			before := prepStageCounts()
			rec := &obs.Recorder{Trace: obs.NewTrace()}
			o.Obs = rec
			prep, err := tc.e.Prepare(g, o)
			if err != nil {
				t.Fatalf("%s: %v", tc.e.Name(), err)
			}
			if prep.FromCache != hit {
				t.Fatalf("%s: FromCache = %v, want %v", tc.e.Name(), prep.FromCache, hit)
			}
			// A cache hit fingerprints the graph and builds nothing.
			moved := []string{common.SpanPrepFingerprint}
			if !hit {
				moved = tc.stages
			}
			after := prepStageCounts()
			spans := prepSpans(t, rec.T())
			for _, stage := range prepStages {
				want := 0
				if slices.Contains(moved, stage) {
					want = 1
				}
				if d := after[stage] - before[stage]; d != uint64(want) {
					t.Errorf("%s (hit=%v): %s histogram count rose by %d, want %d", tc.e.Name(), hit, stage, d, want)
				}
				if lanes := spans[stage]; len(lanes) != want {
					t.Errorf("%s (hit=%v): %d %s spans, want %d", tc.e.Name(), hit, len(lanes), stage, want)
				}
				for _, lane := range spans[stage] {
					if lane != tc.lane {
						t.Errorf("%s (hit=%v): %s span on lane %d, want runner lane %d", tc.e.Name(), hit, stage, lane, tc.lane)
					}
				}
			}
		}
	}
}

var prepStages = []string{common.SpanPrepFingerprint, common.SpanPrepPartition, common.SpanPrepLayout, common.SpanPrepIndex}

// prepStageCounts reads the process-wide observation count of every prep
// stage, keyed by span name.
func prepStageCounts() map[string]uint64 {
	out := map[string]uint64{}
	for _, span := range prepStages {
		h := obs.Default().Histogram(common.MetricPrepStageSeconds, "stage", strings.TrimPrefix(span, "prep:"))
		out[span] = h.Snapshot().Count
	}
	return out
}

// prepSpans returns the lanes of the trace's prep:* spans, keyed by name.
func prepSpans(t *testing.T, tr *obs.Trace) map[string][]int {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			TID  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	out := map[string][]int{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" && strings.HasPrefix(ev.Name, "prep:") {
			out[ev.Name] = append(out[ev.Name], ev.TID)
		}
	}
	return out
}
