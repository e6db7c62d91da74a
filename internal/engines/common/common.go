// Package common holds the engine interface, options, result types, and the
// shared numerical and concurrency infrastructure used by all five PageRank
// implementations (HiPa, p-PR, v-PR, GPOP-like, Polymer-like).
//
// Every engine computes the same damped PageRank with dangling-mass
// redistribution:
//
//	rank'(v) = (1-d)/|V| + d·( Σ_{u→v} rank(u)/outdeg(u) + S/|V| )
//
// where S is the summed rank of dangling (outdeg-0) vertices. Initial ranks
// are 1/|V|; the rank vector sums to 1 after every iteration. Rank storage
// is float32 (the paper's 4-byte values); global reductions use float64.
//
// Each engine produces two timings: the real wall-clock of its parallel Go
// execution on the host, and a modelled execution time from
// internal/perfmodel driven by the engine's actual data-structure event
// counts on the simulated machine. Paper-shape comparisons use the model;
// the wall clock documents that the implementations really run in parallel.
package common

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"

	"hipa/internal/graph"
	"hipa/internal/machine"
	"hipa/internal/obs"
	"hipa/internal/perfmodel"
	"hipa/internal/platform"
	"hipa/internal/sched"
)

// DefaultIterations matches the paper's timed runs (§4.1).
const DefaultIterations = 20

// DefaultDamping is the standard PageRank damping factor.
const DefaultDamping = 0.85

// DefaultPartitionBytes is the paper's tuned partition size on Skylake.
// Options.PartitionBytes defaults to the machine-derived
// Machine.TunedPartitionBytes (equal to this constant on the Skylake
// preset); the constant documents the paper's headline number.
const DefaultPartitionBytes = 256 << 10

// Options configures an engine run.
type Options struct {
	// Machine is the simulated machine; nil selects the Platform's machine,
	// or the Skylake preset when Platform is also nil. When both Machine and
	// Platform are set they must agree (Validate rejects a mismatch).
	Machine *machine.Machine
	// Platform is the execution substrate (scheduling simulation, NUMA
	// placement, cost accounting). nil derives a modelled platform from
	// Machine; platform.NewNative gives pure wall-clock runs with all
	// modelled metrics reported as zero.
	Platform platform.Platform
	// Threads is the number of worker threads; 0 selects the engine's paper
	// default (all 40 logical cores for HiPa/v-PR/Polymer, 20 for p-PR and
	// GPOP). HiPa needs one group list per NUMA node, so it adjusts the
	// requested count to a feasible one — bumped to at least the node count,
	// then rounded down to a node multiple (the paper's per-node thread
	// split). Result.Threads always carries the effective count, so a
	// caller sees the adjustment by comparing it with the request.
	Threads int
	// Iterations of PageRank; 0 means DefaultIterations.
	Iterations int
	// Damping factor; 0 means DefaultDamping.
	Damping float64
	// Tolerance enables convergence-based early termination: the run stops
	// once the L∞ rank change of an iteration falls below it (checked at
	// the iteration barrier), or after Iterations, whichever first. 0 runs
	// exactly Iterations iterations (the paper's fixed-20 methodology).
	Tolerance float64
	// PartitionBytes for partition-centric engines; 0 means the engine
	// default (256KB; 1MB for GPOP, per its authors' instruction §4.1).
	PartitionBytes int
	// NoCompress disables inter-edge compression (ablation).
	NoCompress bool
	// VertexBalanced switches NUMA partitioning to the naive vertex split
	// (ablation, HiPa only).
	VertexBalanced bool
	// FCFS forces first-come-first-serve partition scheduling instead of
	// thread-data pinning (ablation, HiPa only).
	FCFS bool
	// SchedSeed seeds the simulated OS scheduler. 0 is a sentinel for the
	// default seed 0xC0FFEE (WithDefaults coerces it), so seed 0 itself is
	// not selectable; pass any other value for a distinct deterministic
	// schedule.
	SchedSeed uint64
	// GoParallelism caps real goroutines; 0 means min(Threads, GOMAXPROCS).
	GoParallelism int
	// PrepParallelism is the worker count of the Prepare pipeline (CSC
	// build, fingerprint, partition hierarchy, message layout): positive =
	// that many workers, 0 = all cores. Artifacts are bit-identical at any
	// setting, so the knob is not part of the prep-cache key. Negative is
	// rejected by Validate; callers wanting a serial build pass 1.
	PrepParallelism int
	// PrepCache, when non-nil, lets Prepare — and therefore Run — reuse
	// preprocessing artifacts across runs. Artifacts are keyed by graph
	// content plus the prep-relevant options (PartitionBytes, NoCompress,
	// VertexBalanced, node count); thread count is not part of the key, so a
	// whole thread sweep shares one artifact. nil disables reuse: every run
	// pays a cold build, as before the two-phase lifecycle.
	PrepCache *PrepCache
	// Obs receives the run's telemetry (counters, phase timers, trace
	// spans, per-iteration statistics). nil disables all instrumentation;
	// the hot paths then pay only a pointer test.
	Obs *obs.Recorder
	// Warm, when non-nil, starts the iterative phase from a previous rank
	// vector instead of the uniform distribution — the incremental re-rank
	// path of versioned graphs. Supported by HiPa (dense warm restart) and
	// the delta engine (sparse incremental propagation); every other engine
	// rejects a warm start with an explicit error rather than silently
	// running cold.
	Warm *WarmStart
}

// WarmStart carries the state of a previous converged run into a new Exec.
type WarmStart struct {
	// Ranks is the starting rank vector; its length must match the graph.
	// Exec copies it — the caller's slice is never retained or mutated.
	Ranks []float32
	// Delta, when non-nil, describes the mutation batch separating the graph
	// the ranks converged on from the graph being executed. The delta engine
	// uses it to seed a sparse frontier from the perturbed vertices; dense
	// warm engines ignore it.
	Delta *graph.Delta
}

// ResolveMachine fills only the Machine field, so engine-specific defaults
// (which depend on the topology) can be computed before WithDefaults: an
// explicit Platform supplies its machine, then fallback (an Exec's prepared
// artifact machine; may be nil), then the Skylake preset.
func (o Options) ResolveMachine(fallback *machine.Machine) Options {
	if o.Machine != nil {
		return o
	}
	switch {
	case o.Platform != nil:
		o.Machine = o.Platform.Machine()
	case fallback != nil:
		o.Machine = fallback
	default:
		o.Machine = machine.SkylakeSilver4210()
	}
	return o
}

// WithDefaults fills zero fields. defaultThreads is engine-specific.
func (o Options) WithDefaults(defaultThreads int) Options {
	o = o.ResolveMachine(nil)
	if o.Platform == nil {
		o.Platform = platform.NewModeled(o.Machine)
	}
	if o.Threads == 0 {
		o.Threads = defaultThreads
	}
	if o.Iterations == 0 {
		o.Iterations = DefaultIterations
	}
	if o.Damping == 0 {
		o.Damping = DefaultDamping
	}
	if o.PartitionBytes == 0 {
		// Cache-geometry-derived: the tuned partition size differs between
		// the Skylake and Haswell presets, so default-option artifacts built
		// on different machines never collide in a PrepCache.
		o.PartitionBytes = o.Machine.TunedPartitionBytes()
	}
	if o.GoParallelism == 0 {
		o.GoParallelism = o.Threads
		if p := runtime.GOMAXPROCS(0); p < o.GoParallelism {
			o.GoParallelism = p
		}
	}
	if o.SchedSeed == 0 {
		o.SchedSeed = 0xC0FFEE
	}
	return o
}

// Validate rejects unusable option combinations.
func (o Options) Validate() error {
	if o.Platform != nil && o.Machine != nil && o.Platform.Machine() != o.Machine {
		return fmt.Errorf("engines: Options.Machine does not match Options.Platform's machine (%s vs %s)",
			o.Machine.Name, o.Platform.Machine().Name)
	}
	if o.Threads < 1 {
		return fmt.Errorf("engines: need at least 1 thread, got %d", o.Threads)
	}
	if o.Iterations < 1 {
		return fmt.Errorf("engines: need at least 1 iteration, got %d", o.Iterations)
	}
	if o.Damping <= 0 || o.Damping >= 1 {
		return fmt.Errorf("engines: damping must be in (0,1), got %g", o.Damping)
	}
	if o.PartitionBytes < 4 {
		return fmt.Errorf("engines: partition bytes %d too small", o.PartitionBytes)
	}
	if o.Tolerance < 0 {
		return fmt.Errorf("engines: negative tolerance %g", o.Tolerance)
	}
	if o.PrepParallelism < 0 {
		return fmt.Errorf("engines: negative prep parallelism %d (use 1 for serial)", o.PrepParallelism)
	}
	return nil
}

// Result is the outcome of one engine run.
type Result struct {
	Engine     string
	Ranks      []float32
	Iterations int
	Threads    int

	// WallSeconds is the real elapsed time of the iterations (excluding
	// preprocessing).
	WallSeconds float64
	// PrepSeconds is the real elapsed time of the Prepare call whose
	// artifact this run executed against (partitioning, layout, placement —
	// the paper's "overhead", §4.2 — excluding graph loading). Near zero
	// when the artifact came from a PrepCache; see PrepBuildSeconds for the
	// cold cost.
	PrepSeconds float64
	// PrepBuildSeconds is the artifact's cold construction cost, preserved
	// across cache hits — the honest §4.2 overhead number for amortization.
	PrepBuildSeconds float64
	// PrepFromCache reports whether the artifact was served from a
	// PrepCache rather than built for this run.
	PrepFromCache bool

	// Model is the simulated-machine estimate (time, MApE, LLC traffic).
	// Always non-nil; on a Native platform it is zero-valued apart from
	// Iterations — modelled metrics are reported as zero, not fabricated.
	Model *perfmodel.Report
	// Sched is the simulated scheduler activity (spawns, migrations).
	Sched sched.Stats

	// Iters holds per-iteration statistics (wall time, residual, dangling
	// mass, modelled local/remote accesses, migrations). Populated only
	// when Options.Obs was set for the run.
	Iters []obs.IterationStats

	// Frontier summarises pruning effectiveness for frontier-aware engines
	// (active-set sizes, partition-iterations skipped); nil for the dense
	// engines, which execute the full graph every iteration.
	Frontier *FrontierReport
}

// Engine is one PageRank implementation with a two-phase lifecycle:
// Prepare builds the immutable preprocessing artifact, Exec runs the
// iterative phase against it, and Run is their composition. All five
// engines produce bit-identical rank vectors via Run and Prepare+Exec.
type Engine interface {
	// Name returns the paper's name for the implementation.
	Name() string
	// Run executes PageRank on g: Prepare followed by Exec.
	Run(g *graph.Graph, o Options) (*Result, error)
	// Prepare builds the engine's preprocessing artifact for g — partition
	// hierarchy, compressed layout and lookup inputs for partition-centric
	// engines; transpose and degree arrays for vertex-centric ones. The
	// artifact is immutable and honors o.PrepCache.
	Prepare(g *graph.Graph, o Options) (*Prepared, error)
	// Exec runs the iterative scatter-gather phase against a previously
	// Prepared artifact. Iteration-phase options (Threads, Iterations,
	// Damping, Tolerance, FCFS, SchedSeed, Obs) come from o; prep-determined
	// options must be zero or match the artifact. Safe for concurrent calls
	// sharing one artifact.
	Exec(prep *Prepared, o Options) (*Result, error)
}

// PrepareAndExec composes the two lifecycle phases; engines implement Run
// with it.
func PrepareAndExec(e Engine, g *graph.Graph, o Options) (*Result, error) {
	prep, err := e.Prepare(g, o)
	if err != nil {
		return nil, err
	}
	return e.Exec(prep, o)
}

// RankSum returns the sum of ranks (should be ~1).
func RankSum(ranks []float32) float64 {
	var s float64
	for _, r := range ranks {
		s += float64(r)
	}
	return s
}

// topKSelectMax is the largest k TopK selects by insertion; larger k sort
// the whole vector, which is cheaper than shifting a long prefix per vertex.
const topKSelectMax = 128

// rankOrder compares two vertices in top-k order: higher rank first, ties by
// ascending vertex ID.
func rankOrder(ranks []float32) func(a, b graph.VertexID) int {
	return func(a, b graph.VertexID) int {
		switch ra, rb := ranks[a], ranks[b]; {
		case ra > rb:
			return -1
		case ra < rb:
			return 1
		}
		return cmp.Compare(a, b)
	}
}

// RankOrder returns every vertex sorted highest rank first, ties by
// ascending vertex ID, so RankOrder(ranks)[:k] is TopK(ranks, k).
func RankOrder(ranks []float32) []graph.VertexID {
	order := make([]graph.VertexID, len(ranks))
	for i := range order {
		order[i] = graph.VertexID(i)
	}
	slices.SortFunc(order, rankOrder(ranks))
	return order
}

// TopK returns the min(k, len(ranks)) highest-ranked vertices, highest
// first, ties by ascending vertex ID. Small k cost one pass over ranks.
func TopK(ranks []float32, k int) []graph.VertexID {
	k = min(k, len(ranks))
	if k <= 0 {
		return nil
	}
	if k > topKSelectMax {
		return RankOrder(ranks)[:k]
	}
	order := rankOrder(ranks)
	top := make([]graph.VertexID, 0, k+1)
	for v, r := range ranks {
		// Vertices arrive in ascending ID order, so one that ties the
		// current tail sorts after it.
		if len(top) == k && r <= ranks[top[k-1]] {
			continue
		}
		id := graph.VertexID(v)
		i, _ := slices.BinarySearchFunc(top, id, order)
		if top = slices.Insert(top, i, id); len(top) > k {
			top = top[:k]
		}
	}
	return top
}

// MaxAbsDiff returns the L∞ distance between two rank vectors, or +Inf if
// the vectors differ in length.
func MaxAbsDiff(a, b []float32) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var m float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}
