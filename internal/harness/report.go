package harness

import (
	"encoding/json"
	"io"

	"hipa/internal/engines/common"
	"hipa/internal/graph"
	"hipa/internal/layout"
	"hipa/internal/machine"
	"hipa/internal/obs"
	"hipa/internal/perfmodel"
	"hipa/internal/sched"
)

// RunReport is the machine-readable record of one engine run: the graph
// shape, the Result's scalars, the analytic model report, the simulated
// scheduler stats, and the per-iteration statistics. Every field is typed;
// process-wide series live on /metrics and spans in the -trace export. It
// is what `hipapr -stats` writes and what benchmark trajectories
// (BENCH_*.json) are built from.
type RunReport struct {
	Engine     string `json:"engine"`
	Vertices   int    `json:"vertices"`
	Edges      int64  `json:"edges"`
	Threads    int    `json:"threads"`
	Iterations int    `json:"iterations"`
	Machine    string `json:"machine,omitempty"`
	// Kernels is the kernel set that ran both pulls and the rank update,
	// HiPa's and B-PPR's width-1 one: "avx2" or "scalar" (common.KernelSet).
	Kernels string `json:"kernels"`

	WallSeconds float64 `json:"wall_seconds"`
	// LoadSeconds is the wall time of reading the graph file, for runs
	// that loaded one (hipapr).
	LoadSeconds float64 `json:"load_seconds,omitempty"`
	// PrepSeconds is this run's artifact-acquisition wall time; on a prep-
	// cache hit it is the fetch cost, and PrepBuildSeconds keeps the cold
	// construction cost of the artifact served.
	PrepSeconds      float64 `json:"prep_seconds"`
	PrepBuildSeconds float64 `json:"prep_build_seconds"`
	PrepFromCache    bool    `json:"prep_from_cache,omitempty"`

	Model *perfmodel.Report `json:"model,omitempty"`
	Sched sched.Stats       `json:"sched"`
	// Layout describes the partition-centric layout the run iterated
	// over; absent for engines without one.
	Layout *LayoutReport `json:"layout,omitempty"`

	Iters []obs.IterationStats `json:"iterations_detail,omitempty"`
}

// NewRunReport assembles the report for one run. g and m may be nil when
// unknown; the per-iteration detail is Result.Iters, empty for a run made
// without a Recorder.
func NewRunReport(g *graph.Graph, m *machine.Machine, res *common.Result) *RunReport {
	r := &RunReport{
		Engine:           res.Engine,
		Kernels:          common.KernelSet(),
		Threads:          res.Threads,
		Iterations:       res.Iterations,
		WallSeconds:      res.WallSeconds,
		PrepSeconds:      res.PrepSeconds,
		PrepBuildSeconds: res.PrepBuildSeconds,
		PrepFromCache:    res.PrepFromCache,
		Model:            res.Model,
		Sched:            res.Sched,
		Iters:            res.Iters,
	}
	if g != nil {
		r.Vertices = g.NumVertices()
		r.Edges = g.NumEdges()
	}
	if m != nil {
		r.Machine = m.String()
	}
	return r
}

// LayoutReport is a layout's resident size and the size of each of its
// pulls: real entries, padding, padding share and bytes.
type LayoutReport struct {
	Bytes     int64            `json:"bytes"`
	IntraPull layout.PullStats `json:"intra_pull"`
	InterPull layout.PullStats `json:"inter_pull"`
}

// NewLayoutReport describes lay.
func NewLayoutReport(lay *layout.Layout) *LayoutReport {
	return &LayoutReport{Bytes: lay.Bytes(), IntraPull: lay.IntraPullStats(), InterPull: lay.InterPullStats()}
}

// WriteJSON writes the report as indented JSON. Struct field order keeps
// the output deterministic for a deterministic run.
func (r *RunReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteJSONFile writes the report to path atomically (temp file + rename),
// so an interrupted run never leaves a truncated report.
func (r *RunReport) WriteJSONFile(path string) error {
	return obs.WriteFileAtomic(path, r.WriteJSON)
}
