package common

import (
	"fmt"
	"slices"

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

	// Platform thread lifecycle: Algorithm 1 — a fresh pool per phase,
	// threads placed arbitrarily by the OS, no binding.
	pool, err := o.Platform.SpawnOblivious(o.SchedSeed, o.Iterations*2, o.Threads, false)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Name, err)
	}
	pool.SetLanes(o.Obs.T())
	run := ExecRun{Engine: cfg.Name, Prefix: cfg.Name, Prep: prep, Opts: o, Pool: pool, Threads: o.Threads}

	// Real execution through the shared superstep driver, on scratch buffers
	// drawn from the artifact's arena pool (warm across repeated Execs).
	arena := prep.AcquireArena()
	defer prep.ReleaseArena(arena)
	state := NewSGStateArena(g, hier, lay, prep.part.Inv, o.Damping, o.Threads, arena)
	iters := run.Supersteps(FCFSKernels(state), o.Tolerance, nil)

	// The result keeps its own copy of the ranks — the single per-Exec
	// allocation.
	return run.Finish(func(a *platform.Accounting) error {
		return a.AddPartitionRun(platform.PartitionRun{
			Hier: hier, Lay: lay, Lookup: partition.BuildLookup(hier),
			PartThread: platform.FCFSAssignment(hier, o.Threads),
			NUMAAware:  false,
			Iterations: iters,

			ExtraBytesPerPartition: cfg.ExtraBytesPerPartition,
			ExtraCyclesPerEdge:     cfg.ExtraCyclesPerEdge,
			WorkingSetSlack:        platform.FCFSWorkingSetSlack,
		})
	}, platform.RunShape{
		EdgesProcessed:       g.NumEdges() * int64(iters),
		UncoordinatedStreams: true,
	}, slices.Clone(state.Ranks))
}
