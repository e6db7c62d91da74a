package common

import (
	"fmt"
	"slices"
	"time"

	"hipa/internal/execbuf"
	"hipa/internal/graph"
	"hipa/internal/machine"
	"hipa/internal/platform"
)

// VertexEngineConfig parameterises the two vertex-centric engines (v-PR and
// the Polymer-like framework), which share the pull-based execution: per
// iteration, one parallel pass computes contributions, a second pulls them
// over in-edges.
type VertexEngineConfig struct {
	Name           string
	DefaultThreads func(m *machine.Machine) int
	// NUMAAware assigns thread vertex ranges node-major with local data
	// placement and node-bound threads (Polymer); otherwise ranges are
	// plain edge-balanced chunks over interleaved data (v-PR).
	NUMAAware bool
	// FrontierBytesPerVertex and FrameworkCyclesPerEdge / AtomicUpdates
	// model framework overheads (0/0/false for hand-coded v-PR).
	FrontierBytesPerVertex int64
	FrameworkCyclesPerEdge float64
	AtomicUpdates          bool
	// SpatialReuseFactor and BoundaryRemoteFraction forward to the vertex
	// cost accounting (see platform.VertexRun).
	SpatialReuseFactor     float64
	BoundaryRemoteFraction float64
}

// RunVertexEngine executes a pull-based vertex-centric PageRank per cfg:
// PrepareVertex followed by ExecVertex.
func RunVertexEngine(g *graph.Graph, o Options, cfg VertexEngineConfig) (*Result, error) {
	prep, err := PrepareVertex(g, o, cfg)
	if err != nil {
		return nil, err
	}
	return ExecVertex(prep, o, cfg)
}

// PrepareVertex builds the preprocessing artifact of a vertex-centric
// engine: the in-edge (CSC) form on the graph plus the 1/outdeg array. The
// artifact is machine- and thread-independent, so v-PR and Polymer share
// cache entries for the same graph.
func PrepareVertex(g *graph.Graph, o Options, cfg VertexEngineConfig) (*Prepared, error) {
	o = o.ResolveMachine(nil)
	m := o.Machine
	o = o.WithDefaults(cfg.DefaultThreads(m))
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if g.NumVertices() == 0 {
		return nil, fmt.Errorf("%s: empty graph", cfg.Name)
	}
	lane := RunnerLane(o.Threads)
	return MakePrepared(cfg.Name, "", g, m, o, lane, PrepKey{Kind: PrepVertex}, func() (any, error) {
		start := time.Now()
		g.BuildInWorkers(o.PrepParallelism)
		inv := InvOutDegreesWorkers(g, o.PrepParallelism)
		EndPrepStage(o.Obs, lane, SpanPrepIndex, start)
		return &VertexArtifact{Inv: inv}, nil
	}, func() {
		// A cache hit built the payload from a content-identical graph; this
		// pointer still needs its own CSC form.
		g.BuildInWorkers(o.PrepParallelism)
	})
}

// vertexKernels builds the phase kernels of a pull-based vertex-centric
// engine over static per-thread vertex ranges: the contribution pass maps
// to Scatter, the pull pass to Gather. The dangling sum is fused into the
// gather pass, which re-sums its own range's dangling mass from the ranks
// it just wrote — bit-identical to the scatter-side sum it replaces because
// both fold the same vertices in the same order per thread. seedDangling
// establishes the invariant for iteration zero.
type vertexKernels struct {
	bounds    []int
	ranks     []float32
	contrib   []float32
	inv       []float32
	inOff     []int64
	inAdj     []graph.VertexID
	base      float32
	d         float32
	redis     float32
	sum       float64 // dangling mass of the last Reduce
	n         int
	partials  []execbuf.PadF64
	residuals []execbuf.PadF64
}

// seedDangling computes each thread's iteration-zero dangling partial over
// its own vertex range, exactly as the fused gather will keep doing.
func (k *vertexKernels) seedDangling() {
	for tid := 0; tid+1 < len(k.bounds); tid++ {
		var dangling float64
		for v := k.bounds[tid]; v < k.bounds[tid+1]; v++ {
			if k.inv[v] == 0 {
				dangling += float64(k.ranks[v])
			}
		}
		k.partials[tid].V = dangling
	}
}

func (k *vertexKernels) scatter(tid int) {
	ranks := k.ranks
	inv := k.inv
	lo, hi := k.bounds[tid], k.bounds[tid+1]
	contrib := k.contrib[lo:hi:hi]
	for i, r := range ranks[lo:hi:hi] {
		// Dangling vertices (inv 0) contribute 0; their mass was folded into
		// the partials by the previous gather (or seedDangling).
		contrib[i] = r * inv[lo+i]
	}
}

func (k *vertexKernels) reduce() {
	var sum float64
	for i := range k.partials {
		sum += k.partials[i].V
	}
	k.sum = sum
	k.redis = float32(k.d * float32(sum/float64(k.n)))
}

func (k *vertexKernels) gather(tid int) {
	res := k.residuals[tid].V
	base, d, redis := k.base, k.d, k.redis
	ranks, contrib, inv := k.ranks, k.contrib, k.inv
	inOff, inAdj := k.inOff, k.inAdj
	var dangling float64
	for v := k.bounds[tid]; v < k.bounds[tid+1]; v++ {
		lo, hi := inOff[v], inOff[v+1]
		in := inAdj[lo:hi:hi]
		var acc float32
		// 4-way unrolled pull with the adds kept strictly sequential — the
		// float32 fold order defines the result bits and must not change.
		i := 0
		for ; i+4 <= len(in); i += 4 {
			acc += contrib[in[i]]
			acc += contrib[in[i+1]]
			acc += contrib[in[i+2]]
			acc += contrib[in[i+3]]
		}
		for ; i < len(in); i++ {
			acc += contrib[in[i]]
		}
		old := ranks[v]
		nv := base + float32(d*acc) + redis
		ranks[v] = nv
		if inv[v] == 0 {
			dangling += float64(nv)
		}
		diff := float64(nv - old)
		if diff < 0 {
			diff = -diff
		}
		if diff > res {
			res = diff
		}
	}
	k.residuals[tid].V = res
	k.partials[tid].V = dangling
}

func (k *vertexKernels) residual() float64 {
	var maxRes float64
	for i := range k.residuals {
		if k.residuals[i].V > maxRes {
			maxRes = k.residuals[i].V
		}
		k.residuals[i].V = 0
	}
	return maxRes
}

// ExecVertex runs the pull-based iterative phase of a vertex-centric engine
// against a Prepared artifact. Safe for concurrent calls sharing one
// artifact.
func ExecVertex(prep *Prepared, o Options, cfg VertexEngineConfig) (*Result, error) {
	if err := prep.CheckExec(cfg.Name, PrepVertex); err != nil {
		return nil, err
	}
	o = o.ResolveMachine(prep.Machine())
	m := o.Machine
	o = o.WithDefaults(cfg.DefaultThreads(m))
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if o.Warm != nil {
		return nil, fmt.Errorf("%s: warm starts are not supported — use HiPa or the delta engine for incremental re-ranking", cfg.Name)
	}
	g := prep.Graph()
	n := g.NumVertices()
	threads := o.Threads
	if threads > n {
		threads = n
	}

	// Thread vertex ranges are thread-count-dependent, so they are computed
	// per Exec on top of the artifact's CSC form (cheap: O(V)).
	var bounds []int
	if cfg.NUMAAware {
		// Split vertices across nodes edge-balanced, then across each
		// node's threads — Polymer's sub-graph-per-node structure.
		perNode := threads / m.NUMANodes
		if perNode < 1 {
			perNode = 1
			threads = m.NUMANodes
		} else {
			threads = perNode * m.NUMANodes
		}
		nodeBounds := SplitByWeight(g.InOffsets(), m.NUMANodes)
		bounds = []int{0}
		inOff := g.InOffsets()
		for nd := 0; nd < m.NUMANodes; nd++ {
			lo, hi := nodeBounds[nd], nodeBounds[nd+1]
			// Edge-balanced split of [lo,hi) into perNode ranges.
			sub := make([]int64, hi-lo+1)
			for i := range sub {
				sub[i] = inOff[lo+i] - inOff[lo]
			}
			sb := SplitByWeight(sub, perNode)
			for _, b := range sb[1:] {
				bounds = append(bounds, lo+b)
			}
		}
	} else {
		bounds = SplitByWeight(g.InOffsets(), threads)
	}

	// Platform thread lifecycle: Algorithm-1 pools per phase; Polymer binds
	// its threads to nodes (and pays the migrations), v-PR does not.
	pool, err := o.Platform.SpawnOblivious(o.SchedSeed, o.Iterations*2, threads, cfg.NUMAAware)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Name, err)
	}
	if cfg.NUMAAware && pool.Nodes != nil {
		// The accounting's locality keys off the thread's node, which for
		// Polymer is determined by its vertex range, not the random
		// placement snapshot.
		perNode := threads / m.NUMANodes
		for t := range pool.Nodes {
			pool.Nodes[t] = t / perNode
			if pool.Nodes[t] >= m.NUMANodes {
				pool.Nodes[t] = m.NUMANodes - 1
			}
		}
	}
	pool.SetLanes(o.Obs.T())
	run := ExecRun{Engine: cfg.Name, Prefix: cfg.Name, Prep: prep, Opts: o, Pool: pool, Threads: threads}

	// Real execution through the shared superstep driver, on scratch buffers
	// drawn from the artifact's arena pool (warm across repeated Execs).
	arena := prep.AcquireArena()
	defer prep.ReleaseArena(arena)
	inOff, inAdj := g.InCSR()
	k := &vertexKernels{
		bounds:    bounds,
		ranks:     arena.Ranks(n),
		contrib:   arena.Contrib(n),
		inv:       prep.vert.Inv,
		inOff:     inOff,
		inAdj:     inAdj,
		base:      float32((1 - o.Damping) / float64(n)),
		d:         float32(o.Damping),
		n:         n,
		partials:  arena.Partials(threads),
		residuals: arena.Residuals(threads),
	}
	FillInitRanks(k.ranks)
	k.seedDangling()
	iters := run.Supersteps(PhaseKernels{
		Scatter:      k.scatter,
		Reduce:       k.reduce,
		Gather:       k.gather,
		Residual:     k.residual,
		DanglingMass: func() float64 { return k.sum },
	}, o.Tolerance, nil)

	// The result keeps its own copy of the ranks — the single per-Exec
	// allocation.
	return run.Finish(func(a *platform.Accounting) error {
		return a.AddVertexRun(platform.VertexRun{
			G:                      g,
			Bounds:                 bounds,
			NUMAAware:              cfg.NUMAAware,
			FrontierBytesPerVertex: cfg.FrontierBytesPerVertex,
			FrameworkCyclesPerEdge: cfg.FrameworkCyclesPerEdge,
			SpatialReuseFactor:     cfg.SpatialReuseFactor,
			BoundaryRemoteFraction: cfg.BoundaryRemoteFraction,
			AtomicUpdates:          cfg.AtomicUpdates,
			Iterations:             iters,
		})
	}, platform.RunShape{
		EdgesProcessed:       g.NumEdges() * int64(iters),
		UncoordinatedStreams: true,
	}, slices.Clone(k.ranks))
}
