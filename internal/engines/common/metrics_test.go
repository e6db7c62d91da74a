package common

import (
	"testing"
	"time"

	"hipa/internal/obs"
	"hipa/internal/perfmodel"
)

// TestSuperstepLoopRecordsRegistryMetrics pins the tentpole wiring: a
// SuperstepConfig with an Engine name must land superstep/phase/residual
// distributions and the iteration counter in the process-wide registry,
// while an anonymous config records nothing.
func TestSuperstepLoopRecordsRegistryMetrics(t *testing.T) {
	// Engine names are process-global registry labels; a test-unique name
	// keeps this independent of any other test that runs engines.
	const name = "test-wiring"
	const iters = 3
	kernels := PhaseKernels{
		Scatter:      func(int) {},
		Reduce:       func() {},
		Gather:       func(int) {},
		Residual:     func() float64 { return 0.5 },
		DanglingMass: func() float64 { return 0 },
	}
	if performed := RunSupersteps(SuperstepConfig{
		Engine:     name,
		Threads:    4,
		Iterations: iters,
	}, kernels); performed != iters {
		t.Fatalf("performed = %d, want %d", performed, iters)
	}

	reg := obs.Default()
	if got := reg.Histogram(MetricSuperstepSeconds, "engine", name).Count(); got != iters {
		t.Errorf("superstep histogram count = %d, want %d", got, iters)
	}
	for _, phase := range []string{SpanScatter, SpanGather} {
		if got := reg.Histogram(MetricPhaseSeconds, "engine", name, "phase", phase).Count(); got != iters {
			t.Errorf("%s phase histogram count = %d, want %d", phase, got, iters)
		}
	}
	res := reg.Histogram(MetricResidual, "engine", name).Snapshot()
	if res.Count != iters || res.Min != 0.5 || res.Max != 0.5 {
		t.Errorf("residual histogram = count %d min %g max %g, want %d/0.5/0.5", res.Count, res.Min, res.Max, iters)
	}
	if got := reg.Counter(MetricIterationsTotal, "engine", name).Value(); got != iters {
		t.Errorf("iterations counter = %d, want %d", got, iters)
	}

	// The anonymous form stays out of the registry entirely (and the loop
	// must not pay for handles it does not have).
	if metricsFor("") != nil {
		t.Error("metricsFor(\"\") != nil; anonymous loops must not record")
	}
}

func TestFinishRunAccumulatesBytesMoved(t *testing.T) {
	const name = "test-wiring-bytes"
	res := &Result{
		Engine: name,
		Model:  &perfmodel.Report{LocalBytes: 1000, RemoteBytes: 250},
	}
	FinishRun(nil, res, nil, false)
	FinishRun(nil, res, nil, false)
	reg := obs.Default()
	if got := reg.Counter(MetricLocalBytesTotal, "engine", name).Value(); got != 2000 {
		t.Errorf("local bytes counter = %d, want 2000", got)
	}
	if got := reg.Counter(MetricRemoteBytesTotal, "engine", name).Value(); got != 500 {
		t.Errorf("remote bytes counter = %d, want 500", got)
	}
}

func TestEndPrepStage(t *testing.T) {
	rec := &obs.Recorder{Trace: obs.NewTrace()}
	start := time.Now().Add(-250 * time.Millisecond)
	EndPrepStage(rec, 3, "prep:teststage", start)
	EndPrepStage(nil, 3, "prep:teststage", start)
	snap := obs.Default().Histogram(MetricPrepStageSeconds, "stage", "teststage").Snapshot()
	if snap.Count != 2 || snap.Min < 0.25 {
		t.Errorf("prep stage histogram = count %d min %g, want 2 observations of >= 0.25s", snap.Count, snap.Min)
	}
	if n := rec.T().NumSpans(); n != 1 {
		t.Errorf("trace holds %d spans, want 1 (the untraced call emits none)", n)
	}
}
