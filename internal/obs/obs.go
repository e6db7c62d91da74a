// Package obs is the telemetry layer, one system with one naming scheme:
// the process-wide Registry of counters, gauges, and histograms (registry.go,
// exported at /metrics), span-style tracing with Chrome trace_event export
// (Trace), and per-iteration execution statistics (IterationStats). A
// Recorder bundles one run's trace and iteration statistics; the run's
// scalar facts (iterations, threads, seconds, model, scheduler) are typed
// fields of its result, not named entries here.
//
// The package substitutes for the hardware observability the paper's
// evaluation leans on (VTune thread-migration counters, LLC traffic, memory
// accesses per edge, §3.3/§4): every engine run can surface per-iteration
// progress and convergence, phase-level timing, and exportable metrics.
//
// Everything is opt-in and nil-safe: a nil *Recorder or *Trace accepts
// every call as a no-op, so engines instrument their hot paths
// unconditionally and an un-instrumented run pays only a pointer test.
// Only the standard library is used.
package obs

import "sync"

// IterationStats records one PageRank iteration of one engine run. The
// in-loop fields (wall time, residual, dangling mass) are measured live at
// the iteration barrier; the simulated-machine fields (local/remote
// accesses, scheduler migrations) are annotated after the run from the
// analytic model, apportioned per iteration.
type IterationStats struct {
	// Iter is the zero-based iteration index.
	Iter int `json:"iter"`
	// WallSeconds is the real elapsed time of this iteration.
	WallSeconds float64 `json:"wall_seconds"`
	// Residual is the L∞ rank change of the iteration (the convergence
	// metric checked against Options.Tolerance).
	Residual float64 `json:"residual"`
	// DanglingMass is the summed rank of dangling vertices redistributed
	// this iteration.
	DanglingMass float64 `json:"dangling_mass"`

	// ActiveVertices / ActivePartitions are the active-set sizes of the
	// iteration for frontier-aware engines: how many vertices/partitions
	// actually executed. Zero (and omitted from JSON) for the dense engines,
	// which touch everything every iteration.
	ActiveVertices   int64 `json:"active_vertices,omitempty"`
	ActivePartitions int   `json:"active_partitions,omitempty"`

	// LocalBytes / RemoteBytes are the modelled DRAM traffic of the
	// iteration on the simulated machine, split by NUMA locality.
	LocalBytes  int64 `json:"local_bytes"`
	RemoteBytes int64 `json:"remote_bytes"`
	// LocalAccesses / RemoteAccesses are the same traffic in cache-line
	// sized accesses (the unit of the paper's MApE figures).
	LocalAccesses  int64 `json:"local_accesses"`
	RemoteAccesses int64 `json:"remote_accesses"`
	// SchedMigrations is the simulated thread migrations attributed to the
	// iteration: all at iteration 0 for pinned engines (Algorithm 2), spread
	// across iterations for per-phase thread pools (Algorithm 1).
	SchedMigrations int64 `json:"sched_migrations"`
}

// Recorder bundles the telemetry of one engine run: the per-iteration
// statistics and an optional Trace. Engines receive it via Options.Obs; a
// nil Recorder disables all instrumentation. Leave Trace nil to record the
// iteration statistics only.
type Recorder struct {
	Trace *Trace

	mu    sync.Mutex
	iters []IterationStats
}

// T returns the recorder's trace; nil-safe.
func (r *Recorder) T() *Trace {
	if r == nil {
		return nil
	}
	return r.Trace
}

// RecordIteration appends one iteration's statistics.
func (r *Recorder) RecordIteration(s IterationStats) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.iters = append(r.iters, s)
	r.mu.Unlock()
}

// IterationStats returns the recorded iterations in order.
func (r *Recorder) IterationStats() []IterationStats {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]IterationStats, len(r.iters))
	copy(out, r.iters)
	return out
}

// AnnotateModel distributes a run's modelled DRAM traffic and scheduler
// migrations over the recorded iterations: the analytic model is linear in
// the iteration count, so each iteration carries an equal share of the
// traffic, while migrations are all charged to iteration 0 for pinned
// engines (Algorithm 2 binds once at spawn) and spread evenly for
// per-phase thread pools (Algorithm 1 respawns every region).
func (r *Recorder) AnnotateModel(localBytes, remoteBytes int64, lineBytes int, migrations int64, pinned bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := int64(len(r.iters))
	if n == 0 {
		return
	}
	if lineBytes <= 0 {
		lineBytes = 64
	}
	lb, rb := localBytes/n, remoteBytes/n
	for i := range r.iters {
		it := &r.iters[i]
		it.LocalBytes = lb
		it.RemoteBytes = rb
		it.LocalAccesses = lb / int64(lineBytes)
		it.RemoteAccesses = rb / int64(lineBytes)
		if pinned {
			if i == 0 {
				it.SchedMigrations = migrations
			} else {
				it.SchedMigrations = 0
			}
		} else {
			it.SchedMigrations = migrations / n
			if int64(i) < migrations%n {
				it.SchedMigrations++
			}
		}
	}
}
