// Package bppr implements B-PPR: batched multi-source personalized
// PageRank on HiPa's execution substrate. One Exec advances up to
// algorithms.MaxBatch rank columns in lockstep through the blocked
// scatter-gather kernel (algorithms.BlockSG) over the unmodified HiPa
// Prepared artifact — hierarchical partitioning, compressed inter-edge
// messages, pinned persistent threads, the shared superstep driver — so the
// graph structure is streamed once per superstep and its cost amortizes
// across the batch (the multi-RHS form of the PCPM traffic argument).
//
// Each query is a restart vector: an empty seed set is the uniform global
// PageRank column, a non-empty one teleports (and redistributes dangling
// mass) to its seeds only. Columns are numerically independent — a column's
// trajectory, iteration count included, is bitwise the one it would have at
// any other batch width, and a uniform column at B=1 reproduces the scalar
// HiPa engine bit for bit (pinned by the enginetest goldens). All folds are
// serial in global partition/column order, so results are bit-deterministic
// at any worker count.
//
// The issue sketch places this under internal/engines/ppr; that package
// name already belongs to the scalar p-PR baseline, hence bppr.
package bppr

import (
	"fmt"
	"sync"

	"hipa/internal/algorithms"
	"hipa/internal/engines/common"
	"hipa/internal/engines/hipa"
	"hipa/internal/graph"
	"hipa/internal/obs"
	"hipa/internal/perfmodel"
	"hipa/internal/platform"
	"hipa/internal/sched"
)

// Name is the engine's registry name.
const Name = "B-PPR"

// MaxBatch re-exports the widest supported batch.
const MaxBatch = algorithms.MaxBatch

// DefaultTolerance is the per-column retirement threshold used when
// Options.Tolerance is zero. Per-column convergence is the engine's point
// (a finished query must stop paying for its batch-mates), so like Delta-PR
// a zero tolerance selects a default instead of disabling the check; runs
// still stop at Options.Iterations regardless.
const DefaultTolerance = 1e-7

// MetricPushIterationsTotal counts the supersteps that pushed a sparse
// frontier instead of pulling (algorithms.BlockSG's sparse start), beside
// the engine's hipa_iterations_total.
const MetricPushIterationsTotal = "hipa_push_iterations_total"

// pushIterations is the registry counter, resolved once.
var pushIterations = sync.OnceValue(func() *obs.Counter {
	reg := obs.Default()
	reg.SetHelp(MetricPushIterationsTotal, "Supersteps that pushed a sparse frontier over the out-edges instead of pulling, per engine.")
	return reg.Counter(MetricPushIterationsTotal, "engine", Name)
})

// Query is one personalized PageRank request: rank with teleportation to
// the uniform restart vector over Seeds (empty = the global uniform
// vector, i.e. plain PageRank). Seeds must be in range and duplicate-free.
type Query struct {
	Seeds []graph.VertexID
}

// BatchResult is the outcome of one batched Exec.
type BatchResult struct {
	Engine string
	// Ranks[q] is query q's full rank vector.
	Ranks [][]float32
	// Iterations[q] is the iteration count column q actually executed
	// before retiring (== Supersteps if it never converged).
	Iterations []int
	// Supersteps is the number of driver iterations the batch ran.
	Supersteps int
	// PushIterations is how many of them pushed a sparse frontier: the
	// first iterations of a width-1 personalized batch.
	PushIterations int
	Threads        int

	WallSeconds      float64
	PrepSeconds      float64
	PrepBuildSeconds float64
	PrepFromCache    bool

	// Model is the simulated-machine estimate for the whole batch; zero-
	// valued (never nil) on a Native platform.
	Model *perfmodel.Report
	Sched sched.Stats

	// BytesPerQuery is the modelled DRAM traffic of the batch divided by
	// the batch width — the amortization figure the bench gate tracks.
	// Zero on a Native platform.
	BytesPerQuery float64

	// ColSteps/LineSteps echo the kernel's work accounting (Σ active
	// columns per superstep, Σ rank-block lines per superstep).
	ColSteps  int64
	LineSteps int64
}

// Engine is the B-PPR implementation of common.Engine: the single-query
// adapter over ExecBatch, so the engine joins the registry-wide lifecycle
// and allocation gates.
type Engine struct{}

// Name implements common.Engine.
func (Engine) Name() string { return Name }

// Run executes uniform PageRank as a width-1 batch: Prepare then Exec.
func (e Engine) Run(g *graph.Graph, o common.Options) (*common.Result, error) {
	return common.PrepareAndExec(e, g, o)
}

// Prepare builds the same node-level hierarchy and compressed layout as
// HiPa (byte-identical artifacts sharing prep-cache payloads), stamped with
// this engine's name.
func (Engine) Prepare(g *graph.Graph, o common.Options) (*common.Prepared, error) {
	return hipa.PrepareArtifact(Name, g, o)
}

// Exec runs a width-1 batch holding the single uniform query and returns
// its scalar result. Bit-identical to the HiPa engine's Exec.
func (Engine) Exec(prep *common.Prepared, o common.Options) (*common.Result, error) {
	_, res, err := execBatch(prep, o, []Query{{}})
	return res, err
}

// ExecBatch runs one batched iterative phase for queries (width
// len(queries), 1..MaxBatch) against a Prepared artifact of the HiPa family
// — one built by hipa.PrepareArtifact under any engine stamp, so a server
// holding a HiPa artifact runs its batches on it, warm arenas included.
// Safe for concurrent calls sharing one artifact.
func ExecBatch(prep *common.Prepared, o common.Options, queries []Query) (*BatchResult, error) {
	br, _, err := execBatch(prep, o, queries)
	return br, err
}

// reject is B-PPR's own option and query checks, run before the artifact
// is checked against the options.
func reject(prep *common.Prepared, o common.Options, queries []Query) error {
	if len(queries) < 1 || len(queries) > MaxBatch {
		return fmt.Errorf("bppr: batch width %d outside [1,%d]", len(queries), MaxBatch)
	}
	if o.FCFS {
		return fmt.Errorf("bppr: FCFS scheduling is not supported — the blocked kernel relies on the pinned thread-data mapping")
	}
	if o.Warm != nil {
		return fmt.Errorf("bppr: warm starts are not supported — every column starts at its restart vector")
	}
	n := prep.Graph().NumVertices()
	for q, query := range queries {
		seen := make(map[graph.VertexID]struct{}, len(query.Seeds))
		for _, v := range query.Seeds {
			if int(v) >= n {
				return fmt.Errorf("bppr: query %d seed %d outside graph of %d vertices", q, v, n)
			}
			if _, dup := seen[v]; dup {
				return fmt.Errorf("bppr: query %d has duplicate seed %d", q, v)
			}
			seen[v] = struct{}{}
		}
	}
	return nil
}

// execBatch is ExecBatch that also returns the scalar result of column 0,
// the one run reports and the registry record.
func execBatch(prep *common.Prepared, o common.Options, queries []Query) (*BatchResult, *common.Result, error) {
	p, err := hipa.BeginPinned(prep, o, hipa.PinnedOptions{Name: Name, Prefix: "bppr", Family: hipa.Family},
		func(o common.Options) error { return reject(prep, o, queries) })
	if err != nil {
		return nil, nil, err
	}
	defer p.Release()
	o = p.Opts
	tol := o.Tolerance
	if tol == 0 {
		tol = DefaultTolerance
	}
	g := prep.Graph()
	lay := prep.Partition().Lay
	seedSets := make([][]graph.VertexID, len(queries))
	for q, query := range queries {
		seedSets[q] = query.Seeds
	}
	state, err := algorithms.NewBlockSG(g, p.Hier, lay, prep.Partition().Inv,
		o.Damping, tol, p.Threads, seedSets, p.Arena)
	if err != nil {
		return nil, nil, fmt.Errorf("bppr: %w", err)
	}
	performed := p.Supersteps(state.PinnedKernels(p.Hier.Groups), tol, state.Frontier())
	pushIterations().Add(int64(state.PushIterations()))

	// The arena (and with it the rank block) is recycled by the next Exec;
	// the result de-interleaves its own per-query copies.
	ranks := make([][]float32, len(queries))
	iters := make([]int, len(queries))
	for q := range queries {
		ranks[q] = make([]float32, g.NumVertices())
		state.CopyColumn(q, ranks[q])
		iters[q] = int(state.ColumnIterations()[q])
	}
	res, err := p.Finish(func(a *platform.Accounting) error {
		return a.AddBatchRun(platform.BatchRun{
			Hier: p.Hier, Lay: lay, Lookup: p.Lookup,
			PartThread: p.Lookup.PartThread,
			NUMAAware:  true,
			Batch:      len(queries),
			Supersteps: performed,
			ColSteps:   state.ColSteps(),
			LineSteps:  state.LineSteps(),
		})
	}, platform.RunShape{EdgesProcessed: g.NumEdges() * int64(performed)}, ranks[0])
	if err != nil {
		return nil, nil, err
	}
	br := &BatchResult{
		Engine:           Name,
		Ranks:            ranks,
		Iterations:       iters,
		Supersteps:       performed,
		PushIterations:   state.PushIterations(),
		Threads:          res.Threads,
		WallSeconds:      res.WallSeconds,
		PrepSeconds:      res.PrepSeconds,
		PrepBuildSeconds: res.PrepBuildSeconds,
		PrepFromCache:    res.PrepFromCache,
		Model:            res.Model,
		Sched:            res.Sched,
		ColSteps:         state.ColSteps(),
		LineSteps:        state.LineSteps(),
	}
	if total := res.Model.LocalBytes + res.Model.RemoteBytes; total > 0 {
		br.BytesPerQuery = float64(total) / float64(len(queries))
	}
	return br, res, nil
}
