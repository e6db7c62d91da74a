package common

import (
	"fmt"
	"time"

	"hipa/internal/platform"
)

// ExecRun is the tail every Exec shares once its set-up is done: it times
// the iteration loop, prices the run on the platform and assembles the
// Result. An engine fills in the set-up fields, drives its kernels through
// Supersteps, and hands Finish the cost-model description of its
// run together with the ranks the Result keeps.
type ExecRun struct {
	// Engine is the registry name: Result.Engine and the loop's registry
	// label.
	Engine string
	// Prefix starts every error the tail returns ("hipa", "delta", ...).
	Prefix string
	Prep   *Prepared
	// Opts are the run's resolved options.
	Opts Options
	// Pool is the run's simulated thread lifecycle; Threads its effective
	// worker count.
	Pool    *platform.Pool
	Threads int
	// Pinned marks Algorithm 2's bind-once lifecycle: per-iteration
	// migration attribution charges iteration 0 instead of spreading.
	Pinned bool
	// Frontier, when set before Finish, becomes Result.Frontier.
	Frontier *FrontierReport

	iterations int
	wall       time.Duration
}

// Supersteps drives kernels through the superstep driver for up to
// Opts.Iterations iterations, timing the loop. tol is the run's convergence
// tolerance and frontier its active set (nil = dense). Returns the
// iterations performed.
func (r *ExecRun) Supersteps(k PhaseKernels, tol float64, frontier Frontier) int {
	start := time.Now()
	r.iterations = RunSupersteps(SuperstepConfig{
		Engine:      r.Engine,
		Threads:     r.Threads,
		Parallelism: r.Opts.GoParallelism,
		Iterations:  r.Opts.Iterations,
		Tolerance:   tol,
		Frontier:    frontier,
		Rec:         r.Opts.Obs,
	}, k)
	r.wall = time.Since(start)
	return r.iterations
}

// Finish prices the run and assembles its Result. add describes the run to
// the cost model and is called only on a modelled platform; shape carries
// the run-level quantities (its Iterations is filled in here). ranks must
// be the Result's own copy: the arena they were computed in is recycled by
// the next Exec.
func (r *ExecRun) Finish(add func(*platform.Accounting) error, shape platform.RunShape, ranks []float32) (*Result, error) {
	pf := r.Opts.Platform
	acct := pf.NewAccounting(r.Pool)
	if pf.Modeled() {
		if err := add(acct); err != nil {
			return nil, fmt.Errorf("%s: %w", r.Prefix, err)
		}
	}
	shape.Iterations = r.iterations
	rep, err := pf.Finalize(acct, shape)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.Prefix, err)
	}
	res := &Result{
		Engine:           r.Engine,
		Ranks:            ranks,
		Iterations:       r.iterations,
		Threads:          r.Threads,
		WallSeconds:      r.wall.Seconds(),
		PrepSeconds:      r.Prep.PrepSeconds,
		PrepBuildSeconds: r.Prep.BuildSeconds,
		PrepFromCache:    r.Prep.FromCache,
		Model:            rep,
		Sched:            r.Pool.Stats,
		Frontier:         r.Frontier,
	}
	FinishRun(r.Opts.Obs, res, r.Opts.Machine, r.Pinned)
	return res, nil
}
