package hipa

import (
	"hipa/internal/engines/common"
	deltaengine "hipa/internal/engines/delta"
	"hipa/internal/engines/gpop"
	hipaengine "hipa/internal/engines/hipa"
	"hipa/internal/engines/polymer"
	"hipa/internal/engines/ppr"
	"hipa/internal/engines/vpr"
	"hipa/internal/platform"
)

// Engine is one PageRank implementation. Every engine computes the same
// damped PageRank with dangling-mass redistribution. The paper five
// (Engines) produce identical rank vectors (to float32 precision); Delta-PR
// stops propagating a vertex's change once it falls below a gate derived
// from the tolerance, so its ranks approximate theirs.
type Engine = common.Engine

// Options configures an engine run. The zero value selects the paper's
// defaults: the Skylake testbed, the engine's tuned thread count and
// partition size, 20 iterations, damping 0.85.
type Options = common.Options

// WarmStart carries a previous run's rank vector (and optionally the graph
// delta separating the versions) into Options.Warm for incremental
// re-ranking. Supported by HiPa and Delta; other engines reject it.
type WarmStart = common.WarmStart

// Result is the outcome of an engine run: the rank vector, real wall-clock
// timings, the simulated-machine performance report (Model), and the
// simulated scheduler statistics (Sched).
type Result = common.Result

// Platform is the execution substrate an engine runs on: a modelled
// microarchitecture (scheduler simulation, NUMA placement, and cost
// accounting feeding Result.Model) or the pass-through native platform.
// Set Options.Platform to choose; nil selects the modelled platform of
// Options.Machine.
type Platform = platform.Platform

// NewModeledPlatform returns the full-simulation platform for m (nil
// selects the Skylake testbed).
func NewModeledPlatform(m *Machine) Platform { return platform.NewModeled(m) }

// NewNativePlatform returns the pass-through platform: engines run as
// plain parallel Go programs with zero modelling overhead, and every
// modelled metric in Result.Model is reported as zero — never fabricated.
// m (nil selects Skylake) still drives structural decisions such as
// partition sizing.
func NewNativePlatform(m *Machine) Platform { return platform.NewNative(m) }

// Prepared is an engine's immutable preprocessing artifact — the partition
// hierarchy and compressed layout for partition-centric engines, the
// transpose and degree arrays for vertex-centric ones. Build it once with
// Prepare, then execute the iterative phase any number of times (including
// concurrently) with Exec.
type Prepared = common.Prepared

// PrepCache is a content-keyed, bounded LRU cache of preprocessing
// artifacts. Set Options.PrepCache to share artifacts across runs that use
// the same graph and partitioning parameters; nil (the default) rebuilds on
// every Prepare.
type PrepCache = common.PrepCache

// PrepStats are a PrepCache's hit/miss/eviction counters; Misses counts
// artifact builds.
type PrepStats = common.PrepStats

// NewPrepCache returns a PrepCache holding at most capacity artifacts
// (capacity <= 0 selects a small default).
func NewPrepCache(capacity int) *PrepCache { return common.NewPrepCache(capacity) }

// Prepare runs the engine's preprocessing phase only, returning the
// reusable artifact. Run is equivalent to Prepare followed by Exec.
func Prepare(e Engine, g *Graph, o Options) (*Prepared, error) { return e.Prepare(g, o) }

// Exec runs the engine's iterative phase against a previously Prepared
// artifact. The artifact must come from the same engine with compatible
// options; Exec validates and errors otherwise. A single Prepared is safe
// for concurrent Exec calls.
func Exec(e Engine, prep *Prepared, o Options) (*Result, error) { return e.Exec(prep, o) }

// The five implementations evaluated in the paper (§4.1).
var (
	// HiPa is the paper's contribution: hierarchical NUMA- and cache-aware
	// partitioning with thread-data pinning (Algorithm 2).
	HiPa Engine = hipaengine.Engine{}
	// PPR is p-PR, the hand-optimized NUMA-oblivious partition-centric
	// baseline (PCPM re-implementation).
	PPR Engine = ppr.Engine{}
	// VPR is v-PR, the hand-optimized pull-based vertex-centric baseline.
	VPR Engine = vpr.Engine{}
	// GPOP is the partition-centric framework baseline (1MB partitions,
	// per-partition state, frontier disabled for PageRank).
	GPOP Engine = gpop.Engine{}
	// Polymer is the NUMA-aware vertex-centric framework baseline.
	Polymer Engine = polymer.Engine{}
)

// The frontier-aware engine. It runs HiPa's pinned execution shape on the
// frontier-aware superstep driver, but it is not bit-identical to the paper
// five (delta gating trades float32 exactness for skipped work), so it is
// registered separately from the paper's reporting set.
var (
	// Delta is Delta-PR: delta-propagation PageRank on HiPa's partitioned
	// substrate with a vertex-granular frontier — the warm-start engine of
	// versioned graphs (Options.Warm resumes from a previous version's
	// ranks, seeding the frontier sparsely from the mutation delta). For a
	// cold run that should stop once converged, use HiPa with
	// Options.Tolerance.
	Delta Engine = deltaengine.Engine{}
)

// Engines returns the five engines evaluated in the paper, in its reporting
// order. Paper-shape comparisons (experiments, the webrank example) iterate
// exactly this set.
func Engines() []Engine { return []Engine{HiPa, PPR, VPR, GPOP, Polymer} }

// AllEngines returns every registered engine: the paper five followed by
// the frontier-aware Delta-PR.
func AllEngines() []Engine { return []Engine{HiPa, PPR, VPR, GPOP, Polymer, Delta} }

// ReferencePageRank is the sequential float64 ground-truth implementation
// used to validate every engine.
func ReferencePageRank(g *Graph, iterations int, damping float64) []float64 {
	return common.ReferencePageRank(g, iterations, damping)
}

// RankSum returns the sum of a rank vector (≈1 for a correct run).
func RankSum(ranks []float32) float64 { return common.RankSum(ranks) }

// TopK returns the min(k, len(ranks)) highest-ranked vertices, highest
// rank first; equal ranks are listed by ascending vertex ID. It is the order
// hipaserve's /v1/topk and /v1/ppr answer in.
func TopK(ranks []float32, k int) []VertexID { return common.TopK(ranks, k) }
