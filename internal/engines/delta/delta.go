// Package delta implements Delta-PR: the delta-propagation PageRank of
// algorithms.PageRankDelta promoted to a registered engine on HiPa's
// partitioned substrate. Each iteration propagates only the rank *changes*
// (deltas) of vertices whose |delta| exceeds a gate derived from the
// tolerance, over the same hierarchical partitioning, compressed inter-edge
// messages, and pinned persistent threads as HiPa (the artifacts are
// byte-identical and share prep-cache payloads).
//
// The engine maintains a vertex-granular frontier: a vertex is active while
// its gated send value is non-zero, and a partition whose active count is
// zero is skipped by the scatter phase entirely. The gather phase stays
// dense — it decodes the (mostly zero) message bins, applies the delta
// recurrence, and regates every vertex — which keeps every fold
// per-partition and in partition order, so results are bit-deterministic at
// any thread count for a given partitioning.
//
// Delta-PR is the warm-start engine of versioned graphs: given
// Options.Warm it resumes from a previous version's converged ranks, and
// when the WarmStart carries the graph delta it seeds the frontier sparsely
// from the perturbed vertices alone — the first superstep then computes
// exactly P_new(w) − P_old(w) per vertex (the operator difference under the
// old ranks) and the change propagates outward only as far as it remains
// above the gate.
package delta

import (
	"fmt"
	"time"

	"hipa/internal/engines/common"
	"hipa/internal/engines/hipa"
	"hipa/internal/graph"
	"hipa/internal/layout"
	"hipa/internal/partition"
	"hipa/internal/platform"
)

// Name is the engine's registry name.
const Name = "Delta-PR"

// DefaultTolerance is the convergence threshold used when Options.Tolerance
// is zero. Delta propagation without a gate degenerates to dense PageRank,
// so like the other frontier-aware engines a zero tolerance selects a
// default instead of disabling convergence; runs still stop at
// Options.Iterations regardless.
const DefaultTolerance = 1e-7

// epsDivisor derives the per-vertex propagation gate from the tolerance:
// eps = tol/16. The gate must sit well below the termination threshold so
// gating error never masquerades as convergence — deltas between eps and
// tol still propagate and show up in the residual.
const epsDivisor = 16

// Engine is the Delta-PR implementation of common.Engine.
type Engine struct{}

// Name implements common.Engine.
func (Engine) Name() string { return Name }

// Run executes delta-propagation PageRank: Prepare followed by Exec.
func (e Engine) Run(g *graph.Graph, o common.Options) (*common.Result, error) {
	return common.PrepareAndExec(e, g, o)
}

// Prepare builds the same node-level hierarchy and compressed layout as
// HiPa, stamped with this engine's name (the payload is shared through the
// prep cache).
func (Engine) Prepare(g *graph.Graph, o common.Options) (*common.Prepared, error) {
	return hipa.PrepareArtifact(Name, g, o)
}

// state is the mutable execution state of one Delta-PR Exec, drawn from the
// artifact's arena. send[v] is the gated outgoing delta contribution
// delta(v)·inv(v) — non-zero iff v is active — and partCounts[p] is the
// number of active vertices in partition p, maintained by the gather phase
// and consulted by the scatter phase to skip quiescent partitions.
type state struct {
	g    *graph.Graph
	hier *partition.Hierarchy
	lay  *layout.Layout
	inv  []float32

	ranks []float32
	acc   []float32
	send  []float32
	bins  []float32

	partRes    []float32
	partDang   []float64
	partIters  []int32
	partCounts []int32

	damping float64
	d       float32 // float32 damping for the hot loop
	base    float32 // (1-d)/n
	eps     float32 // propagation gate
	redis   float32 // d·danglingDelta/n, set by reduce
	first   bool    // first superstep: apply the base−rank correction
	correct bool    // whether the first superstep applies that correction

	lastDangling float64
	totalVerts   int64
	activeVerts  int64

	iterations      int
	activePartIters int64
	activeVertIters int64
	skipped         int64
}

// scatterPartition streams partition p's active sends: intra-edges add into
// the local accumulators, inter-edges write the compressed message bins.
// Bins were zeroed by the gather that consumed them, so only non-zero sends
// need writing; a partition with no active vertex is skipped by the caller.
func (s *state) scatterPartition(p int) {
	part := s.hier.Partitions[p]
	send := s.send
	acc := s.acc
	lay := s.lay
	intraOff := lay.IntraOff
	for v := int(part.VertexStart); v < int(part.VertexEnd); v++ {
		c := send[v]
		if c == 0 {
			continue
		}
		lo, hi := intraOff[v], intraOff[v+1]
		dst := lay.IntraDst[lo:hi:hi]
		for _, d := range dst {
			acc[d] += c
		}
	}
	for bi := lay.SrcBlockStart[p]; bi < lay.SrcBlockEnd[p]; bi++ {
		b := lay.Blocks[bi]
		src := lay.MsgSrc[b.MsgStart:b.MsgEnd:b.MsgEnd]
		bins := s.bins[b.MsgStart:b.MsgEnd:b.MsgEnd]
		for i, u := range src {
			if c := send[u]; c != 0 {
				bins[i] = c
			}
		}
	}
}

// gatherPartition decodes the messages targeting p (consuming each bin back
// to zero), applies the delta recurrence to p's vertices, and regates them:
//
//	nd(v)   = d·acc(v) + redis  (+ base − rank(v) on the first superstep)
//	rank(v) += nd(v)
//	send(v) = nd(v)·inv(v) if |nd(v)| > eps, else 0
//
// folding p's new dangling delta, residual, and active count into the
// per-partition arrays — every fold is partition-local, so thread count
// never perturbs an order.
func (s *state) gatherPartition(p int) {
	acc := s.acc
	lay := s.lay
	for _, bi := range lay.DstBlocks[p] {
		b := lay.Blocks[bi]
		bins := s.bins[b.MsgStart:b.MsgEnd:b.MsgEnd]
		msgOff := lay.MsgDstOff[b.MsgStart : b.MsgEnd+1 : b.MsgEnd+1]
		for i, val := range bins {
			if val == 0 {
				continue
			}
			bins[i] = 0
			lo, hi := msgOff[i], msgOff[i+1]
			dst := lay.MsgDst[lo:hi:hi]
			for _, d := range dst {
				acc[d] += val
			}
		}
	}

	part := s.hier.Partitions[p]
	ranks, send, inv := s.ranks, s.send, s.inv
	d, base, redis, eps := s.d, s.base, s.redis, s.eps
	first := s.first && s.correct
	var res float64
	var dangling float64
	var active int32
	for v := int(part.VertexStart); v < int(part.VertexEnd); v++ {
		nd := d*acc[v] + redis
		if first {
			// First superstep of a cold or dense-warm run: delta_0 is the
			// full starting rank, so the recurrence swaps the starting mass
			// for the stationary base term (algorithms.PageRankDelta's
			// it==0 correction, per-vertex so warm starts are exact).
			nd += base - ranks[v]
		}
		acc[v] = 0
		ranks[v] += nd
		ad := float64(nd)
		if ad < 0 {
			ad = -ad
		}
		if ad > res {
			res = ad
		}
		if inv[v] == 0 {
			dangling += float64(nd)
			send[v] = 0
			continue
		}
		if float32(ad) > eps {
			send[v] = nd * inv[v]
			active++
		} else {
			send[v] = 0
		}
	}
	s.partRes[p] = float32(res)
	s.partDang[p] = dangling
	s.partCounts[p] = active
	s.partIters[p]++
}

// reduce folds the per-partition dangling deltas in partition order into
// the redistribution term — the fold never depends on thread count.
func (s *state) reduce() {
	var sum float64
	for p := range s.partDang {
		sum += s.partDang[p]
	}
	s.lastDangling = sum
	if n := s.g.NumVertices(); n > 0 {
		s.redis = float32(s.damping * sum / float64(n))
	}
}

// residual returns the max per-partition |delta| of the last gather.
func (s *state) residual() float64 {
	var max float64
	for p := range s.partRes {
		if r := float64(s.partRes[p]); r > max {
			max = r
		}
	}
	return max
}

func (s *state) danglingMass() float64 { return s.lastDangling }

// startIteration marks the first superstep (for the correction term) and
// accrues the frontier-effectiveness counters for the iteration about to
// run.
func (s *state) startIteration(it int) {
	s.first = it == 0
	s.iterations++
	var parts int
	for p := range s.partCounts {
		if s.partCounts[p] > 0 {
			parts++
		}
	}
	s.activePartIters += int64(parts)
	s.activeVertIters += s.activeVerts
	s.skipped += int64(len(s.partCounts) - parts)
}

// Stats implements common.Frontier.
func (s *state) Stats() common.FrontierStats {
	var parts int
	for p := range s.partCounts {
		if s.partCounts[p] > 0 {
			parts++
		}
	}
	return common.FrontierStats{
		ActivePartitions: parts,
		TotalPartitions:  len(s.partCounts),
		ActiveVertices:   s.activeVerts,
		TotalVertices:    s.totalVerts,
	}
}

// Rebuild implements common.Frontier: recount the active set the last
// gather produced; the run is done when nothing is active and no dangling
// delta is pending redistribution (the pending mass sits in partDang and
// would feed the next iteration's redistribution term).
func (s *state) Rebuild(int) (common.FrontierStats, bool) {
	var verts int64
	for p := range s.partCounts {
		verts += int64(s.partCounts[p])
	}
	s.activeVerts = verts
	var pending float64
	for p := range s.partDang {
		pending += s.partDang[p]
	}
	st := s.Stats()
	return st, verts == 0 && pending == 0
}

// report summarises the run's frontier effectiveness.
func (s *state) report() *common.FrontierReport {
	return &common.FrontierReport{
		TotalPartitions:           len(s.partCounts),
		TotalVertices:             s.totalVerts,
		IterationsExecuted:        s.iterations,
		ActivePartitionIterations: s.activePartIters,
		ActiveVertexIterations:    s.activeVertIters,
		PartitionsSkipped:         s.skipped,
	}
}

// deltaPhase walks one thread's pinned partition group through a phase —
// scatter skips quiescent partitions, gather is dense.
type deltaPhase struct {
	s      *state
	groups []partition.Group
	gather bool
}

func (g *deltaPhase) run(tid int) {
	s := g.s
	gr := g.groups[tid]
	for p := gr.PartStart; p < gr.PartEnd; p++ {
		if g.gather {
			s.gatherPartition(p)
		} else if s.partCounts[p] > 0 {
			s.scatterPartition(p)
		}
	}
}

// seedCold gates the uniform initial mass as delta_0 = 1/n for every vertex
// and seeds the per-partition dangling masses — the engine's cold start,
// also used (with ranks = w) for a dense warm start without a graph delta.
func (s *state) seedCold() {
	for p := range s.hier.Partitions {
		part := s.hier.Partitions[p]
		var dangling float64
		var active int32
		for v := int(part.VertexStart); v < int(part.VertexEnd); v++ {
			dv := s.ranks[v]
			if s.inv[v] == 0 {
				dangling += float64(dv)
				s.send[v] = 0
				continue
			}
			ad := dv
			if ad < 0 {
				ad = -ad
			}
			if ad > s.eps {
				s.send[v] = dv * s.inv[v]
				active++
			} else {
				s.send[v] = 0
			}
		}
		s.partDang[p] = dangling
		s.partCounts[p] = active
	}
	s.correct = true
}

// seedWarmDelta seeds the sparse incremental frontier from a graph delta:
// the accumulators are pre-loaded serially with the operator difference
//
//	Σ_{u→v new} w(u)·inv_new(u) − Σ_{u→v old} w(u)·inv_old(u)
//
// over the mutated sources only, and the dangling seed is the dangling-mass
// shift of sources whose dangling status flipped. The first gather then
// computes nd_1(v) = P_new(w)(v) − P_old(w)(v) exactly; since w is the old
// version's converged fixpoint, P_old(w) ≈ w within that run's residual,
// and the change propagates outward from the perturbed vertices alone.
func (s *state) seedWarmDelta(d *graph.Delta, w []float32) {
	var danglingSeed float64
	for _, u := range d.Touched {
		wu := w[u]
		newDeg := s.g.OutDegree(u)
		oldDeg := d.Prev.OutDegree(u)
		if newDeg > 0 {
			c := wu * s.inv[u]
			for _, v := range s.g.OutNeighbors(u) {
				s.acc[v] += c
			}
		}
		if oldDeg > 0 {
			c := wu * float32(1.0/float64(oldDeg))
			for _, v := range d.Prev.OutNeighbors(u) {
				s.acc[v] -= c
			}
		}
		switch {
		case oldDeg > 0 && newDeg == 0:
			danglingSeed += float64(wu)
		case oldDeg == 0 && newDeg > 0:
			danglingSeed -= float64(wu)
		}
	}
	// The first reduce folds partDang as usual; the seed rides in slot 0
	// (gather overwrites every slot afterwards).
	s.partDang[0] = danglingSeed
	s.correct = false
	// Nothing scatters in superstep 0 — the seed already sits in the
	// accumulators — but the perturbed vertices count as active so the
	// frontier statistics reflect the seeded work.
	for _, v := range d.Perturbed {
		s.partCounts[s.hier.PartitionOfVertex(v)]++
	}
	s.activeVerts = int64(len(d.Perturbed))
}

// Exec runs the delta-propagation iterative phase against a Prepared
// artifact. Safe for concurrent calls sharing one artifact.
func (Engine) Exec(prep *common.Prepared, o common.Options) (*common.Result, error) {
	if err := prep.CheckExec(Name, common.PrepPartition); err != nil {
		return nil, err
	}
	o = o.ResolveMachine(prep.Machine())
	m := o.Machine
	if o.PartitionBytes == 0 {
		o.PartitionBytes = prep.Key().PartitionBytes
	}
	o = o.WithDefaults(m.LogicalCores())
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if o.FCFS {
		return nil, fmt.Errorf("delta: FCFS scheduling is not supported — frontier maintenance relies on the pinned thread-data mapping")
	}
	if o.PartitionBytes != prep.Key().PartitionBytes {
		return nil, fmt.Errorf("delta: artifact was prepared with %dB partitions, not %dB", prep.Key().PartitionBytes, o.PartitionBytes)
	}
	if !o.NoCompress != prep.Key().Compress {
		return nil, fmt.Errorf("delta: artifact compression does not match NoCompress=%v", o.NoCompress)
	}
	if o.VertexBalanced != prep.Key().VertexBalanced {
		return nil, fmt.Errorf("delta: artifact was prepared with VertexBalanced=%v", prep.Key().VertexBalanced)
	}
	if m.NUMANodes != prep.Key().Nodes {
		return nil, fmt.Errorf("delta: artifact was prepared for %d NUMA nodes, machine has %d", prep.Key().Nodes, m.NUMANodes)
	}
	tol := o.Tolerance
	if tol == 0 {
		tol = DefaultTolerance
	}
	g := prep.Graph()
	n := g.NumVertices()
	if o.Warm != nil {
		if len(o.Warm.Ranks) != n {
			return nil, fmt.Errorf("delta: warm-start ranks have %d entries, graph has %d vertices", len(o.Warm.Ranks), n)
		}
		if d := o.Warm.Delta; d != nil {
			if d.Next != g && d.Fingerprint != prep.Key().GraphFP {
				return nil, fmt.Errorf("delta: warm-start delta ends at a graph that does not match this artifact")
			}
			if d.Prev == nil {
				return nil, fmt.Errorf("delta: warm-start delta carries no previous graph")
			}
		}
	}

	nodes := m.NUMANodes
	threads, groupsPerNode := hipa.RoundThreads(o.Threads, nodes)
	if threads > m.LogicalCores() {
		return nil, fmt.Errorf("delta: %d threads exceed the machine's %d logical cores", threads, m.LogicalCores())
	}

	rec := o.Obs
	tr := rec.T()

	hier := partition.Regroup(prep.Partition().Hier, groupsPerNode)
	lookup := partition.BuildLookup(hier)

	pf := o.Platform
	pool, err := pf.SpawnPinned(o.SchedSeed, threads)
	if err != nil {
		return nil, fmt.Errorf("delta: %w", err)
	}
	pool.SetLanes(tr)

	arena := prep.AcquireArena()
	defer prep.ReleaseArena(arena)
	lay := prep.Partition().Lay
	P := hier.NumPartitions()
	s := &state{
		g: g, hier: hier, lay: lay,
		inv:        prep.Partition().Inv,
		ranks:      arena.Ranks(n),
		acc:        arena.Acc(n),
		send:       arena.Contrib(n),
		bins:       arena.Bins(int(lay.NumMessages())),
		partRes:    arena.PartResiduals(P),
		partDang:   arena.PartDangling(P),
		partIters:  arena.PartIters(P),
		partCounts: arena.PartCounts(P),
		damping:    o.Damping,
		d:          float32(o.Damping),
		base:       float32((1 - o.Damping) / float64(n)),
		eps:        float32(tol / epsDivisor),
		totalVerts: int64(n),
	}
	switch {
	case o.Warm == nil:
		common.FillInitRanks(s.ranks)
		s.seedCold()
		s.activeVerts = s.totalVerts
	case o.Warm.Delta == nil:
		copy(s.ranks, o.Warm.Ranks)
		s.seedCold()
		s.activeVerts = s.totalVerts
	default:
		copy(s.ranks, o.Warm.Ranks)
		clear(s.send)
		s.seedWarmDelta(o.Warm.Delta, o.Warm.Ranks)
	}

	scatter := &deltaPhase{s: s, groups: hier.Groups}
	gather := &deltaPhase{s: s, groups: hier.Groups, gather: true}
	kernels := common.PhaseKernels{
		StartIteration: s.startIteration,
		Scatter:        scatter.run,
		Reduce:         s.reduce,
		Gather:         gather.run,
		Residual:       s.residual,
		DanglingMass:   s.danglingMass,
	}
	wallStart := time.Now()
	o.Iterations = common.RunSupersteps(common.SuperstepConfig{
		Engine:      Name,
		Threads:     threads,
		Parallelism: o.GoParallelism,
		Iterations:  o.Iterations,
		Tolerance:   tol,
		Frontier:    s,
		Rec:         rec,
	}, kernels)
	wall := time.Since(wallStart)

	report := s.report()

	acct := pf.NewAccounting(pool)
	if pf.Modeled() {
		if err := acct.AddPartitionRun(platform.PartitionRun{
			Hier: hier, Lay: lay, Lookup: lookup,
			PartThread: lookup.PartThread,
			NUMAAware:  true,
			Iterations: o.Iterations,
			PartIters:  s.partIters,
		}); err != nil {
			return nil, fmt.Errorf("delta: %w", err)
		}
	}
	rep, err := pf.Finalize(acct, platform.RunShape{
		Iterations:     o.Iterations,
		EdgesProcessed: g.NumEdges() * int64(o.Iterations),
	})
	if err != nil {
		return nil, fmt.Errorf("delta: %w", err)
	}

	ranks := make([]float32, n)
	copy(ranks, s.ranks)
	res := &common.Result{
		Engine:           Name,
		Ranks:            ranks,
		Iterations:       o.Iterations,
		Threads:          threads,
		WallSeconds:      wall.Seconds(),
		PrepSeconds:      prep.PrepSeconds,
		PrepBuildSeconds: prep.BuildSeconds,
		PrepFromCache:    prep.FromCache,
		Model:            rep,
		Sched:            pool.Stats,
		Frontier:         report,
	}
	common.FinishRun(rec, res, m, true)
	return res, nil
}
