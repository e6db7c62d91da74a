// Package delta implements Delta-PR: delta-propagation PageRank as a
// registered engine on HiPa's partitioned substrate (the root package's
// PageRankDelta runs it cold). Each iteration propagates only the rank
// *changes* (deltas) of vertices whose |delta| exceeds a gate derived from
// the tolerance, over the same hierarchical partitioning, compressed inter-edge
// messages, and pinned persistent threads as HiPa (the artifacts are
// byte-identical and share prep-cache payloads).
//
// The engine maintains a vertex-granular frontier: a vertex is active while
// its gated send value is non-zero, and a partition with no active vertex
// is skipped by the scatter phase entirely. An active partition pushes its
// few active sources over the graph's out-CSR, or pulls its intra-edges
// through HiPa's SELL kernel, as its active out-edges favour; both add the
// same values in the same order. The gather phase stays dense — it
// decodes the (mostly zero) message bins, applies the delta recurrence,
// and regates every vertex — which keeps every fold per-partition and in
// partition order, so results are bit-deterministic at any thread count
// for a given partitioning.
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
	"math"
	"slices"

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
// delta(v)·inv(v) — non-zero iff v is active — and send[n] and bins[M]
// are the +0 the pulls' padding adds. The gather writes each partition's
// active count (partCounts), its active vertices, ascending, into front
// at the partition's first vertex, and their out-edges (partEdges), by
// which the scatter skips a partition or picks its direction.
type state struct {
	g      *graph.Graph
	hier   *partition.Hierarchy
	lay    *layout.Layout
	inv    []float32
	groups []partition.Group // pinned: thread tid runs partitions groups[tid]

	ranks []float32
	acc   []float32
	send  []float32
	bins  []float32
	front []graph.VertexID

	partRes    []float32
	partDang   []float64
	partIters  []int32
	partCounts []int32
	partEdges  []int64

	damping float64
	d       float32 // float32 damping for the hot loop
	base    float32 // (1-d)/n
	eps     float32 // propagation gate
	redis   float32 // d·danglingDelta/n, set by reduce
	first   bool    // first superstep: apply the base−rank correction
	correct bool    // whether the first superstep applies that correction

	lastDangling float64
	activeVerts  int64

	rep common.FrontierReport // the run's frontier effectiveness so far
}

// scatterPartition streams partition p's active sends: its intra-edges
// into the zeroed local accumulators, pushing the active sources over the
// graph's out-CSR when pushes(p), else through the intra pull over every
// send (its zero sends and padding +0 change no sum, which is never −0, so
// both directions give the same bits), and its inter-edges into the
// compressed message bins. Bins were zeroed by the gather that consumed
// them, so only non-zero sends need writing.
func (s *state) scatterPartition(p int) {
	part := s.hier.Partitions[p]
	send := s.send
	lay := s.lay
	if s.pushes(p) {
		lo := int(part.VertexStart)
		common.PushCSR(s.g.OutOffsets(), s.g.OutEdges(), send, s.acc, s.front[lo:lo+int(s.partCounts[p])], part.VertexStart, part.VertexEnd, true)
	} else {
		clo, chi := lay.IntraPull.Chunks(p)
		common.AddSELL(&lay.IntraPull, send, s.acc, clo, chi)
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

// pushes reports whether partition p pushes its intra-edges, weighing what
// each direction reads: the push its active sources' out-edges, inter ones
// included, the pull its intra entries, padding included.
func (s *state) pushes(p int) bool {
	ip := &s.lay.IntraPull
	return common.PushPays(s.partEdges[p], ip.Chunk[ip.Part[p+1]]-ip.Chunk[ip.Part[p]])
}

// gatherPartition adds the messages targeting p to their destinations'
// accumulators through p's inter pull (AddSELL, in ascending message
// index, the push's order), consumes those bins, one contiguous range,
// back to zero, applies the delta recurrence to p's vertices, and regates
// them:
//
//	nd(v)   = d·acc(v) + redis  (+ base − rank(v) on the first superstep)
//	rank(v) += nd(v)
//	send(v) = nd(v)·inv(v) if |nd(v)| > eps, else 0
//
// Every fold is partition-local, so thread count never perturbs an order.
func (s *state) gatherPartition(p int) {
	acc := s.acc
	lay := s.lay
	clo, chi := lay.InterPull.Chunks(p)
	common.AddSELL(&lay.InterPull, s.bins, acc, clo, chi)
	mlo, mhi := lay.DstMessages(p)
	clear(s.bins[mlo:mhi])

	part := s.hier.Partitions[p]
	lo, hi := int(part.VertexStart), int(part.VertexEnd)
	ranks := s.ranks
	d, base, redis := s.d, s.base, s.redis
	first := s.first && s.correct
	var res float64
	for v := lo; v < hi; v++ {
		nd := float32(d*acc[v]) + redis
		if first {
			// First superstep of a cold or dense-warm run: delta_0 is the
			// full starting rank, so the recurrence swaps the starting mass
			// for the stationary base term, per vertex so warm starts are
			// exact.
			nd += base - ranks[v]
		}
		acc[v] = nd
		ranks[v] += nd
		if ad := math.Abs(float64(nd)); ad > res {
			res = ad
		}
	}
	s.partRes[p] = float32(res)
	s.gate(p, lo, hi)
	s.partIters[p]++
}

// gate regates partition p's vertices [lo,hi) on the new deltas their
// accumulators hold, zeroing the accumulators, and stores p's dangling
// delta, active count, active list and active out-edges.
func (s *state) gate(p, lo, hi int) {
	acc, send, inv, front := s.acc, s.send, s.inv, s.front[lo:hi]
	off := s.g.OutOffsets()
	var dangling float64
	var active int32
	var edges int64
	for v := lo; v < hi; v++ {
		nd := acc[v]
		acc[v] = 0
		if inv[v] == 0 {
			dangling += float64(nd)
			send[v] = 0
			continue
		}
		if float32(math.Abs(float64(nd))) > s.eps {
			send[v] = nd * inv[v]
			front[active] = graph.VertexID(v)
			active++
			edges += off[v+1] - off[v]
		} else {
			send[v] = 0
		}
	}
	s.partDang[p] = dangling
	s.partCounts[p] = active
	s.partEdges[p] = edges
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
// run, the scattering partitions that push included.
func (s *state) startIteration(it int) {
	s.first = it == 0
	st := s.Stats()
	s.rep.IterationsExecuted++
	s.rep.ActivePartitionIterations += int64(st.ActivePartitions)
	s.rep.ActiveVertexIterations += st.ActiveVertices
	s.rep.PartitionsSkipped += int64(st.TotalPartitions - st.ActivePartitions)
	for p, e := range s.partEdges {
		if e > 0 && s.pushes(p) {
			s.rep.PushPartitionIterations++
		}
	}
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
		TotalVertices:    s.rep.TotalVertices,
	}
}

// Rebuild implements common.Frontier: recount the active set the last
// gather produced; the run is done when nothing is active and no dangling
// delta is pending redistribution (the pending mass sits in partDang and
// would feed the next iteration's redistribution term).
func (s *state) Rebuild(int) (common.FrontierStats, bool) {
	var verts int64
	var pending float64
	for p := range s.partCounts {
		verts += int64(s.partCounts[p])
		pending += s.partDang[p]
	}
	s.activeVerts = verts
	return s.Stats(), verts == 0 && pending == 0
}

// scatter runs thread tid's partitions that have an active out-edge.
func (s *state) scatter(tid int) {
	for p := s.groups[tid].PartStart; p < s.groups[tid].PartEnd; p++ {
		if s.partEdges[p] > 0 {
			s.scatterPartition(p)
		}
	}
}

// gather runs every partition of thread tid.
func (s *state) gather(tid int) {
	for p := s.groups[tid].PartStart; p < s.groups[tid].PartEnd; p++ {
		s.gatherPartition(p)
	}
}

// seedCold gates the uniform initial mass as delta_0 = 1/n for every vertex
// and seeds the per-partition dangling masses, active counts, lists and
// out-edges — the engine's cold start, also used (with ranks = w) for a
// dense warm start without a graph delta. The first iteration's active set
// is the gated vertices, which leaves out the dangling ones.
func (s *state) seedCold() {
	for p, part := range s.hier.Partitions {
		lo, hi := int(part.VertexStart), int(part.VertexEnd)
		copy(s.acc[lo:hi], s.ranks[lo:hi])
		s.gate(p, lo, hi)
		s.activeVerts += int64(s.partCounts[p])
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
			c := float32(wu * s.inv[u])
			for _, v := range s.g.OutNeighbors(u) {
				s.acc[v] += c
			}
		}
		if oldDeg > 0 {
			c := float32(wu * float32(1.0/float64(oldDeg)))
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
	// accumulators, and partEdges stays zero — but the perturbed vertices
	// count as active so the frontier statistics reflect the seeded work.
	for _, v := range d.Perturbed {
		s.partCounts[s.hier.PartitionOfVertex(v)]++
	}
	s.activeVerts = int64(len(d.Perturbed))
}

// Exec runs the delta-propagation iterative phase against a Prepared
// artifact. Safe for concurrent calls sharing one artifact.
func (Engine) Exec(prep *common.Prepared, o common.Options) (*common.Result, error) {
	p, err := hipa.BeginPinned(prep, o, hipa.PinnedOptions{Name: Name, Prefix: "delta"}, func(o common.Options) error {
		if o.FCFS {
			return fmt.Errorf("delta: FCFS scheduling is not supported — frontier maintenance relies on the pinned thread-data mapping")
		}
		if o.Warm == nil {
			return nil
		}
		g := prep.Graph()
		if len(o.Warm.Ranks) != g.NumVertices() {
			return fmt.Errorf("delta: warm-start ranks have %d entries, graph has %d vertices", len(o.Warm.Ranks), g.NumVertices())
		}
		if d := o.Warm.Delta; d != nil {
			if d.Next != g && d.Fingerprint != prep.Key().GraphFP {
				return fmt.Errorf("delta: warm-start delta ends at a graph that does not match this artifact")
			}
			if d.Prev == nil {
				return fmt.Errorf("delta: warm-start delta carries no previous graph")
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer p.Release()
	o = p.Opts
	tol := o.Tolerance
	if tol == 0 {
		tol = DefaultTolerance
	}
	g := prep.Graph()
	n := g.NumVertices()
	hier, lay, arena := p.Hier, prep.Partition().Lay, p.Arena
	P := hier.NumPartitions()
	s := &state{
		g: g, hier: hier, lay: lay,
		inv:        prep.Partition().Inv,
		ranks:      arena.Ranks(n),
		acc:        arena.Acc(n),
		send:       arena.Contrib(n + 1),
		bins:       arena.Bins(int(lay.NumMessages()) + 1),
		front:      arena.Frontier(n),
		partRes:    arena.PartResiduals(P),
		partDang:   arena.PartDangling(P),
		partIters:  arena.PartIters(P),
		partCounts: arena.PartCounts(P),
		partEdges:  arena.PartEdges(P),
		damping:    o.Damping,
		d:          float32(o.Damping),
		base:       float32((1 - o.Damping) / float64(n)),
		eps:        float32(tol / epsDivisor),
		groups:     hier.Groups,
		rep:        common.FrontierReport{TotalPartitions: P, TotalVertices: int64(n)},
	}
	switch {
	case o.Warm == nil:
		common.FillInitRanks(s.ranks)
		s.seedCold()
	case o.Warm.Delta == nil:
		copy(s.ranks, o.Warm.Ranks)
		s.seedCold()
	default:
		copy(s.ranks, o.Warm.Ranks)
		clear(s.send)
		s.seedWarmDelta(o.Warm.Delta, o.Warm.Ranks)
	}

	iters := p.Supersteps(common.PhaseKernels{
		StartIteration: s.startIteration,
		Scatter:        s.scatter,
		Reduce:         s.reduce,
		Gather:         s.gather,
		Residual:       s.residual,
		DanglingMass:   s.danglingMass,
	}, tol, s)
	p.Frontier = &s.rep

	return p.Finish(func(a *platform.Accounting) error {
		return a.AddPartitionRun(platform.PartitionRun{
			Hier: hier, Lay: lay, Lookup: p.Lookup,
			PartThread: p.Lookup.PartThread,
			NUMAAware:  true,
			Iterations: iters,
			PartIters:  s.partIters,
		})
	}, platform.RunShape{EdgesProcessed: g.NumEdges() * int64(iters)}, slices.Clone(s.ranks))
}
