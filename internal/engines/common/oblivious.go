package common

import (
	"fmt"
	"time"

	"hipa/internal/graph"
	"hipa/internal/machine"
	"hipa/internal/partition"
	"hipa/internal/platform"
)

// ObliviousPartitionConfig parameterises the two NUMA-oblivious
// partition-centric engines (p-PR and the GPOP-like framework), which share
// the Algorithm-1 execution structure: per-phase thread pools and FCFS
// partition claiming over an interleaved data layout.
type ObliviousPartitionConfig struct {
	Name string
	// DefaultThreads is the paper's tuned thread count (20 for both p-PR
	// and GPOP on the Skylake testbed — half the logical cores, §4.1).
	DefaultThreads func(m *machine.Machine) int
	// DefaultPartitionBytes is the engine's tuned partition size (256KB for
	// p-PR, 1MB for GPOP).
	DefaultPartitionBytes int
	// ExtraBytesPerPartition and ExtraCyclesPerEdge model framework
	// overheads (GPOP's per-partition Flags/State and generality layer).
	ExtraBytesPerPartition int64
	ExtraCyclesPerEdge     float64
}

// RunObliviousPartitionEngine executes a NUMA-oblivious partition-centric
// PageRank per cfg: PrepareOblivious followed by ExecOblivious.
func RunObliviousPartitionEngine(g *graph.Graph, o Options, cfg ObliviousPartitionConfig) (*Result, error) {
	prep, err := PrepareOblivious(g, o, cfg)
	if err != nil {
		return nil, err
	}
	return ExecOblivious(prep, o, cfg)
}

// PrepareOblivious builds the preprocessing artifact of a NUMA-oblivious
// partition-centric engine: a single flat list of cache-able partitions (no
// node assignment, no pinned groups) plus the compressed message layout.
func PrepareOblivious(g *graph.Graph, o Options, cfg ObliviousPartitionConfig) (*Prepared, error) {
	o = o.ResolveMachine(nil)
	m := o.Machine
	if o.PartitionBytes == 0 {
		o.PartitionBytes = cfg.DefaultPartitionBytes
	}
	o = o.WithDefaults(cfg.DefaultThreads(m))
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if g.NumVertices() == 0 {
		return nil, fmt.Errorf("%s: empty graph", cfg.Name)
	}
	key := PrepKey{
		Kind:           PrepPartition,
		PartitionBytes: o.PartitionBytes,
		BytesPerVertex: 4,
		Compress:       !o.NoCompress,
		Nodes:          1,
	}
	lane := RunnerLane(o.Threads)
	return MakePrepared(cfg.Name, "", g, m, o, lane, key, func() (any, error) {
		art, err := BuildPartArtifact(g, partition.Config{
			PartitionBytes: o.PartitionBytes,
			BytesPerVertex: 4,
			NumNodes:       1,
			GroupsPerNode:  1,
		}, o, lane)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.Name, err)
		}
		return art, nil
	}, nil)
}

// ExecOblivious runs the FCFS iterative phase of a NUMA-oblivious
// partition-centric engine against a Prepared artifact. Safe for concurrent
// calls sharing one artifact.
func ExecOblivious(prep *Prepared, o Options, cfg ObliviousPartitionConfig) (*Result, error) {
	if err := prep.CheckExec(cfg.Name, PrepPartition); err != nil {
		return nil, err
	}
	o = o.ResolveMachine(prep.Machine())
	m := o.Machine
	if o.PartitionBytes == 0 {
		o.PartitionBytes = prep.Key().PartitionBytes
	}
	o = o.WithDefaults(cfg.DefaultThreads(m))
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if o.PartitionBytes != prep.Key().PartitionBytes {
		return nil, fmt.Errorf("%s: artifact was prepared with %dB partitions, not %dB", cfg.Name, prep.Key().PartitionBytes, o.PartitionBytes)
	}
	if !o.NoCompress != prep.Key().Compress {
		return nil, fmt.Errorf("%s: artifact compression does not match NoCompress=%v", cfg.Name, o.NoCompress)
	}
	if o.Warm != nil {
		return nil, fmt.Errorf("%s: warm starts are not supported — use HiPa or the delta engine for incremental re-ranking", cfg.Name)
	}
	g := prep.Graph()
	hier, lay := prep.part.Hier, prep.part.Lay
	rec := o.Obs

	// Platform thread lifecycle: Algorithm 1 — a fresh pool per phase,
	// threads placed arbitrarily by the OS, no binding.
	pf := o.Platform
	regions := o.Iterations * 2
	pool, err := pf.SpawnOblivious(o.SchedSeed, regions, o.Threads, false)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Name, err)
	}
	pool.SetLanes(rec.T())

	// Real execution through the shared superstep driver, on scratch buffers
	// drawn from the artifact's arena pool (warm across repeated Execs).
	arena := prep.AcquireArena()
	defer prep.ReleaseArena(arena)
	state := NewSGStateArena(g, hier, lay, prep.part.Inv, o.Damping, o.Threads, arena)
	wallStart := time.Now()
	performed := RunSupersteps(SuperstepConfig{
		Engine:      cfg.Name,
		Threads:     o.Threads,
		Parallelism: o.GoParallelism,
		Iterations:  o.Iterations,
		Tolerance:   o.Tolerance,
		Rec:         rec,
	}, FCFSKernels(state))
	wall := time.Since(wallStart)
	o.Iterations = performed

	// Cost accounting on the platform.
	acct := pf.NewAccounting(pool)
	if pf.Modeled() {
		lookup := partition.BuildLookup(hier)
		if err := acct.AddPartitionRun(platform.PartitionRun{
			Hier: hier, Lay: lay, Lookup: lookup,
			PartThread: platform.FCFSAssignment(hier, o.Threads),
			NUMAAware:  false,
			Iterations: o.Iterations,

			ExtraBytesPerPartition: cfg.ExtraBytesPerPartition,
			ExtraCyclesPerEdge:     cfg.ExtraCyclesPerEdge,
			WorkingSetSlack:        platform.FCFSWorkingSetSlack,
		}); err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.Name, err)
		}
	}
	rep, err := pf.Finalize(acct, platform.RunShape{
		Iterations:           o.Iterations,
		EdgesProcessed:       g.NumEdges() * int64(o.Iterations),
		UncoordinatedStreams: true,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Name, err)
	}

	// The arena (and with it state.Ranks) is recycled by the next Exec; the
	// result keeps its own copy — the single per-Exec allocation.
	ranks := make([]float32, len(state.Ranks))
	copy(ranks, state.Ranks)
	res := &Result{
		Engine:           cfg.Name,
		Ranks:            ranks,
		Iterations:       o.Iterations,
		Threads:          o.Threads,
		WallSeconds:      wall.Seconds(),
		PrepSeconds:      prep.PrepSeconds,
		PrepBuildSeconds: prep.BuildSeconds,
		PrepFromCache:    prep.FromCache,
		Model:            rep,
		Sched:            pool.Stats,
	}
	FinishRun(rec, res, m, false)
	return res, nil
}
