package platform

import (
	"fmt"

	"hipa/internal/graph"
	"hipa/internal/layout"
	"hipa/internal/machine"
	"hipa/internal/partition"
	"hipa/internal/perfmodel"
)

// Cycle cost constants for the analytic model. They set the compute
// component of the estimate (absolute scale); the memory components come
// from the machine parameters.
const (
	// CyclesPerEdge covers the add/multiply plus index arithmetic of one
	// edge traversal.
	CyclesPerEdge = 5.0
	// CyclesPerMessage covers encoding/decoding one compressed inter-edge
	// message.
	CyclesPerMessage = 4.0
	// CyclesPerVertex covers the per-vertex rank recomputation.
	CyclesPerVertex = 10.0
	// AtomicPenaltyCycles is the extra cost of an atomic read-modify-write
	// on a contended line (the Polymer-style frameworks' push updates).
	AtomicPenaltyCycles = 12.0
	// WorkingSetSlack scales a partition's vertex bytes to its full cache
	// working set: vertex subset + resident part of the edge subset + the
	// scatter buffer must co-reside in L2 (§4.5: "the size of a vertex
	// subset is supposed to be smaller than the L2 cache size, so that the
	// edge subset and buffer are co-located").
	WorkingSetSlack = 1.5
	// FCFSWorkingSetSlack is the working-set factor for first-come-first-
	// serve partition processing: threads hop across non-contiguous
	// partitions and keep more live bin pages resident than HiPa's pinned
	// threads over the contiguous per-group layout (§3.4), so their
	// resident set per partition is larger. This is the mechanism behind
	// the oblivious engines' degradation beyond the physical core count
	// (Fig. 6).
	FCFSWorkingSetSlack = 2.25
)

// Accounting accumulates per-thread memory and compute events against a
// pool's placement. A zero Accounting (from the Native platform) ignores
// every call: the engines account unconditionally and pay only a nil test.
//
// Engines feed it either with the aggregate run descriptions
// (AddPartitionRun / AddVertexRun — event counts driven by the real layout)
// or with the fine-grained Account* primitives.
type Accounting struct {
	m      *machine.Machine // nil => no-op (Native)
	nodes  []int
	shared []bool
	costs  []perfmodel.ThreadCost

	barriers    int64
	schedCostNS float64

	// Random-access classification context, set by AddPartitionRun and used
	// by AccountRandom: the cached working set per thread.
	partBytes     int64
	slack         float64
	capBytes      int64
	threadsOnNode []int
}

// Enabled reports whether events are being recorded (false on Native).
func (a *Accounting) Enabled() bool { return a.m != nil }

// Costs exposes the accumulated per-thread costs — the perfmodel input
// Finalize prices. nil on Native.
func (a *Accounting) Costs() []perfmodel.ThreadCost { return a.costs }

// Barriers exposes the accumulated barrier count.
func (a *Accounting) Barriers() int64 { return a.barriers }

// AccountBarriers adds n barrier synchronisations to the run.
func (a *Accounting) AccountBarriers(n int64) {
	if a.m == nil {
		return
	}
	a.barriers += n
}

// AccountCompute adds raw compute cycles to thread t.
func (a *Accounting) AccountCompute(t int, cycles float64) {
	if a.m == nil {
		return
	}
	a.costs[t].ComputeCycles += cycles
}

// AccountAtomic adds the atomic read-modify-write penalty for count
// operations on thread t.
func (a *Accounting) AccountAtomic(t int, count int64) {
	if a.m == nil {
		return
	}
	// The float64 conversions here and in the compute terms below round each
	// product before it is added, so no platform fuses it into a
	// multiply-add and the modelled cycles match amd64's bit for bit.
	a.costs[t].ComputeCycles += float64(AtomicPenaltyCycles * float64(count))
}

// AccountRead classifies `bytes` of streamed reads by thread t against the
// node the data lives on (dataNode < 0 means interleaved).
func (a *Accounting) AccountRead(t int, dataNode int, bytes int64) {
	a.stream(t, dataNode, bytes)
}

// AccountWrite classifies `bytes` of streamed writes by thread t. Streamed
// reads and writes price identically in the bandwidth model; the two names
// keep call sites self-describing.
func (a *Accounting) AccountWrite(t int, dataNode int, bytes int64) {
	a.stream(t, dataNode, bytes)
}

// AccountRandom classifies `count` random accesses by thread t within its
// partition working set across L2/LLC/DRAM fractions. Requires the working-
// set context established by AddPartitionRun.
func (a *Accounting) AccountRandom(t int, dataNode int, count int64) {
	a.random(t, dataNode, count)
}

// stream splits bytes into local/remote for a thread given the node the
// data lives on (dataNode < 0 means interleaved).
func (a *Accounting) stream(t int, dataNode int, bytes int64) {
	if a.m == nil || bytes == 0 {
		return
	}
	c := &a.costs[t]
	if dataNode >= 0 {
		if dataNode == c.Node {
			c.StreamLocalBytes += bytes
		} else {
			c.StreamRemoteBytes += bytes
		}
		return
	}
	local := bytes / int64(a.m.NUMANodes)
	c.StreamLocalBytes += local
	c.StreamRemoteBytes += bytes - local
}

// random classifies count random accesses across L2/LLC/DRAM fractions
// using the partition working-set context.
func (a *Accounting) random(t int, dataNode int, count int64) {
	if a.m == nil || count == 0 {
		return
	}
	m := a.m
	c := &a.costs[t]
	fL2, fLLC, fDRAM := perfmodel.ClassifyPartitionRandom(m, a.partBytes, a.slack, c.PhysShared, a.threadsOnNode[c.Node], a.capBytes)
	c.L2Accesses += int64(float64(count) * fL2)
	c.LLCAccesses += int64(float64(count) * fLLC)
	dram := int64(float64(count) * fDRAM)
	if dram == 0 {
		return
	}
	if dataNode < 0 {
		local := dram / int64(m.NUMANodes)
		c.RandomLocal += local
		c.RandomRemote += dram - local
	} else if dataNode == c.Node {
		c.RandomLocal += dram
	} else {
		c.RandomRemote += dram
	}
}

// PartitionRun describes a partition-centric scatter-gather run (HiPa,
// p-PR, GPOP) for aggregate accounting.
type PartitionRun struct {
	Hier   *partition.Hierarchy
	Lay    *layout.Layout
	Lookup *partition.LookupTable

	// PartThread[p] is the thread that processes partition p (the pinned
	// assignment for HiPa, or the modelled average assignment for FCFS
	// engines).
	PartThread []int32

	// NUMAAware marks data placed on the owning node (HiPa); otherwise
	// arrays are effectively interleaved across nodes and a 1/NUMANodes
	// fraction of traffic is local.
	NUMAAware bool

	Iterations int
	// PartIters, when non-nil, overrides Iterations per partition: entry p is
	// the number of iterations partition p actually executed. Delta-PR passes
	// its executed-iteration counters here so modelled traffic
	// scales with the active set instead of iters × verts; barrier counts
	// still use Iterations (the driver ran that many supersteps). Must have
	// one entry per partition when set.
	PartIters []int32
	// ExtraBytesPerPartition models per-partition framework state streamed
	// each phase (GPOP's Flags/State fields, §4.5).
	ExtraBytesPerPartition int64
	// ExtraCyclesPerEdge models framework bookkeeping on the edge path
	// (GPOP's generality layer; 0 for the hand-coded engines).
	ExtraCyclesPerEdge float64
	// WorkingSetSlack overrides the default WorkingSetSlack factor when
	// non-zero. Pinned threads over the contiguous per-group layout (§3.4)
	// keep a tight resident set (default 1.5×); FCFS threads hop across
	// non-contiguous partitions and keep more live bin pages resident, so
	// the oblivious engines pass FCFSWorkingSetSlack — this is the L2
	// contention that makes them degrade past the physical core count
	// (§3.3.1, Fig. 6).
	WorkingSetSlack float64
}

// AddPartitionRun classifies the memory events of a partition-centric
// scatter-gather run into the accumulators, plus the barrier count (three
// per iteration). Event counts are exact (driven by the real layout);
// placement classification is exact for NUMA-aware runs and expectation-
// based for interleaved ones. The placement comes from the pool the
// Accounting was opened on.
func (a *Accounting) AddPartitionRun(s PartitionRun) error {
	if a.m == nil {
		return nil
	}
	if len(a.nodes) == 0 {
		return fmt.Errorf("platform: no threads in accounting")
	}
	if len(s.PartThread) != s.Hier.NumPartitions() {
		return fmt.Errorf("platform: PartThread has %d entries for %d partitions", len(s.PartThread), s.Hier.NumPartitions())
	}
	if s.PartIters != nil && len(s.PartIters) != s.Hier.NumPartitions() {
		return fmt.Errorf("platform: PartIters has %d entries for %d partitions", len(s.PartIters), s.Hier.NumPartitions())
	}
	nThreads := len(a.nodes)
	m := a.m
	// LLC demand counts only *active* threads (those owning at least one
	// partition); a huge partition size can leave most threads idle.
	active := make([]bool, nThreads)
	for _, t := range s.PartThread {
		if int(t) >= 0 && int(t) < nThreads {
			active[t] = true
		}
	}
	threadsOnNode := make([]int, m.NUMANodes)
	for t, nd := range a.nodes {
		if active[t] {
			threadsOnNode[nd]++
		}
	}

	// Per-partition aggregates from the layout.
	P := s.Hier.NumPartitions()
	msgsOut := make([]int64, P)
	dstsOut := make([]int64, P)
	msgsIn := make([]int64, P)
	dstsIn := make([]int64, P)
	for _, b := range s.Lay.Blocks {
		nm := b.Messages()
		nd := b.Edges
		msgsOut[b.SrcPart] += nm
		dstsOut[b.SrcPart] += nd
		msgsIn[b.DstPart] += nm
		dstsIn[b.DstPart] += nd
	}

	slack := s.WorkingSetSlack
	if slack == 0 {
		slack = WorkingSetSlack
	}
	// Establish the random-access classification context for this run (also
	// used by any subsequent AccountRandom calls).
	a.partBytes = int64(s.Hier.VerticesPerPartition * s.Hier.Config.BytesPerVertex)
	a.slack = slack
	// The aggregate LLC demand can never exceed the per-node footprint of
	// the vertex attribute arrays (rank + accumulator); without this cap
	// the model overstates DRAM spill for large partitions on small graphs
	// (cross-checked against the exact simulator in internal/validate).
	a.capBytes = int64(s.Hier.NumVertices) * int64(s.Hier.Config.BytesPerVertex) * 2 / int64(m.NUMANodes)
	a.threadsOnNode = threadsOnNode

	iters := int64(s.Iterations)
	vb := int64(s.Hier.Config.BytesPerVertex)
	for p := 0; p < P; p++ {
		t := int(s.PartThread[p])
		if t < 0 || t >= nThreads {
			return fmt.Errorf("platform: partition %d assigned to thread %d of %d", p, t, nThreads)
		}
		// A frontier-aware run charges each partition only the iterations it
		// actually executed: a pruned partition stops generating traffic.
		itersP := iters
		if s.PartIters != nil {
			itersP = int64(s.PartIters[p])
		}
		part := s.Hier.Partitions[p]
		vp := int64(part.Vertices())
		intra := s.Lay.PartIntraEdges(s.Hier, p)

		// Where p's data lives: its own node when NUMA-aware, interleaved
		// otherwise.
		dataNode := -1
		if s.NUMAAware {
			dataNode = int(s.Lookup.PartNode[p])
		}

		// --- Scatter phase (per iteration) ---
		// Stream: rank slice, intra-edge structure, message sources.
		a.stream(t, dataNode, itersP*(vp*vb+intra*4+msgsOut[p]*4))
		// Bin writes: bins live with the *destination* partition when
		// NUMA-aware, so cross-node messages are the remote traffic of the
		// scatter phase (Fig. 1's "node 2 sends out updated data").
		if s.NUMAAware {
			for bi := s.Lay.SrcBlockStart[p]; bi < s.Lay.SrcBlockEnd[p]; bi++ {
				b := s.Lay.Blocks[bi]
				a.stream(t, int(s.Lookup.PartNode[b.DstPart]), itersP*b.Messages()*4)
			}
		} else {
			a.stream(t, -1, itersP*msgsOut[p]*4)
		}
		// Random: intra-edge accumulator updates stay inside the cached
		// partition.
		a.random(t, dataNode, itersP*intra)

		// --- Gather phase (per iteration) ---
		// Stream: bins targeting q (local when NUMA-aware), destination
		// lists, rank recompute (read accumulator + write rank).
		a.stream(t, dataNode, itersP*(msgsIn[p]*4+dstsIn[p]*4+vp*vb*2))
		// Random: decoded destination updates within the cached partition.
		a.random(t, dataNode, itersP*dstsIn[p])

		// Framework per-partition state (GPOP), streamed each phase.
		if s.ExtraBytesPerPartition > 0 {
			a.stream(t, -1, itersP*2*s.ExtraBytesPerPartition)
		}

		// Compute.
		a.costs[t].ComputeCycles += float64(float64(itersP) * (float64((CyclesPerEdge+s.ExtraCyclesPerEdge)*float64(intra+dstsIn[p])) +
			float64(CyclesPerVertex*2*float64(vp)) +
			float64(CyclesPerMessage*float64(msgsOut[p]+msgsIn[p]))))
	}
	// Three barriers per iteration: after scatter, after gather, after the
	// dangling-mass reduction. The driver runs every superstep over the full
	// pool, so barriers scale with Iterations even under pruning.
	a.barriers += iters * 3
	return nil
}

// BatchRun describes a blocked (rank-B) partition-centric scatter-gather
// run — the batched personalized-PageRank engine — for aggregate
// accounting. Its traffic shape differs structurally from PartitionRun:
// there is no bins array (the gather decodes messages by reading source
// rank blocks directly), graph structure is streamed once per superstep
// regardless of the batch width, and all per-rank traffic scales with the
// *active* column count, which per-column convergence shrinks over time.
type BatchRun struct {
	Hier   *partition.Hierarchy
	Lay    *layout.Layout
	Lookup *partition.LookupTable

	// PartThread[p] is the pinned thread of partition p.
	PartThread []int32
	// NUMAAware marks data placed on the owning node (the batched engine
	// always pins; the field mirrors PartitionRun for symmetry).
	NUMAAware bool

	// Supersteps is the number of driver iterations executed (structure
	// streams and barriers scale with it).
	Batch      int
	Supersteps int
	// ColSteps is Σ over supersteps of the active column count — the factor
	// of all per-column streamed traffic and compute.
	ColSteps int64
	// LineSteps is Σ over supersteps of ceil(active*4/64) — how many 64-byte
	// lines one vertex's rank block spans at the active width, the factor of
	// all line-granular (random and message-payload) traffic.
	LineSteps int64
}

// AddBatchRun classifies the memory events of a blocked scatter-gather run
// into the accumulators, plus the barrier count (three per superstep).
// Event counts are exact (driven by the real layout and the kernel's
// measured ColSteps/LineSteps); placement mirrors AddPartitionRun.
//
// The gather phase's message decode reads the source vertex's rank block —
// a vertex-random access into the *source* partition's rank array, the
// access the scalar engine's bins exist to avoid. It is charged as line
// fills at full cost (LineSteps × 64 bytes per message, remote when the
// source partition lives on another node): at paper scale the rank block
// array dwarfs every cache, so the no-reuse regime is the honest one, and
// it keeps the B=1 batched path priced worse than scalar HiPa — which is
// exactly the amortization the batch width exists to buy (one line carries
// up to 16 columns of the same source vertex).
func (a *Accounting) AddBatchRun(s BatchRun) error {
	if a.m == nil {
		return nil
	}
	if len(a.nodes) == 0 {
		return fmt.Errorf("platform: no threads in accounting")
	}
	if len(s.PartThread) != s.Hier.NumPartitions() {
		return fmt.Errorf("platform: PartThread has %d entries for %d partitions", len(s.PartThread), s.Hier.NumPartitions())
	}
	if s.Batch < 1 {
		return fmt.Errorf("platform: batch width %d < 1", s.Batch)
	}
	nThreads := len(a.nodes)
	m := a.m
	active := make([]bool, nThreads)
	for _, t := range s.PartThread {
		if int(t) >= 0 && int(t) < nThreads {
			active[t] = true
		}
	}
	threadsOnNode := make([]int, m.NUMANodes)
	for t, nd := range a.nodes {
		if active[t] {
			threadsOnNode[nd]++
		}
	}

	// Per-partition aggregates from the layout (gather side only — the
	// blocked scatter does no message work).
	P := s.Hier.NumPartitions()
	msgsIn := make([]int64, P)
	dstsIn := make([]int64, P)
	for _, b := range s.Lay.Blocks {
		msgsIn[b.DstPart] += b.Messages()
		dstsIn[b.DstPart] += b.Edges
	}

	// Random-access classification context: the cached working set is the
	// partition's rank-block rows, B columns wide.
	vb := int64(s.Hier.Config.BytesPerVertex)
	a.partBytes = int64(s.Hier.VerticesPerPartition) * vb * int64(s.Batch)
	a.slack = WorkingSetSlack
	a.capBytes = int64(s.Hier.NumVertices) * vb * int64(s.Batch) * 2 / int64(m.NUMANodes)
	a.threadsOnNode = threadsOnNode

	steps := int64(s.Supersteps)
	for p := 0; p < P; p++ {
		t := int(s.PartThread[p])
		if t < 0 || t >= nThreads {
			return fmt.Errorf("platform: partition %d assigned to thread %d of %d", p, t, nThreads)
		}
		part := s.Hier.Partitions[p]
		vp := int64(part.Vertices())
		intra := s.Lay.PartIntraEdges(s.Hier, p)

		dataNode := -1
		if s.NUMAAware {
			dataNode = int(s.Lookup.PartNode[p])
		}

		// Structure streams, once per superstep whatever the width: intra
		// CSR (scatter), message sources and destination lists (gather).
		a.stream(t, dataNode, steps*(intra*4+msgsIn[p]*4+dstsIn[p]*4))

		// Per-column rank streams: scatter's rank-block read plus gather's
		// accumulator read and rank write, 4 bytes per vertex per active
		// column.
		a.stream(t, dataNode, s.ColSteps*vp*vb*3)

		// Message payload: the gather reads each message's source rank block
		// from the node the source partition lives on — line fills at the
		// active width (see the doc comment on the no-reuse regime).
		if s.NUMAAware {
			for _, bi := range s.Lay.DstBlocks[p] {
				b := s.Lay.Blocks[bi]
				a.stream(t, int(s.Lookup.PartNode[b.SrcPart]), s.LineSteps*b.Messages()*64)
			}
		} else {
			a.stream(t, -1, s.LineSteps*msgsIn[p]*64)
		}

		// Random accumulator updates inside the cached partition block: one
		// line-granular access per intra edge / decoded destination per
		// rank-block line.
		a.random(t, dataNode, s.LineSteps*(intra+dstsIn[p]))

		// Compute scales with the active column count.
		a.costs[t].ComputeCycles += float64(float64(s.ColSteps) * (float64(CyclesPerEdge*float64(intra+dstsIn[p])) +
			float64(CyclesPerVertex*2*float64(vp)) +
			float64(CyclesPerMessage*float64(msgsIn[p]))))
	}
	a.barriers += steps * 3
	return nil
}

// VertexRun describes a vertex-centric pull run (v-PR, Polymer) for
// aggregate accounting.
type VertexRun struct {
	G *graph.Graph

	// Bounds are the per-thread destination vertex ranges (len threads+1).
	Bounds []int

	// NUMAAware places each thread's in-edge structure and rank slice on
	// its node and counts true source-locality (Polymer); otherwise
	// interleaved.
	NUMAAware bool
	// FrontierBytesPerVertex models framework frontier machinery streamed
	// per vertex per iteration (Polymer; 0 for hand-coded v-PR).
	FrontierBytesPerVertex int64
	// AtomicUpdates adds the atomic-operation penalty per edge (Polymer's
	// push-style updates; §4.3 "suffering from atomic operations").
	AtomicUpdates bool
	// FrameworkCyclesPerEdge models per-edge framework overhead (virtual
	// dispatch, work-stealing bookkeeping). 0 for the hand-coded v-PR;
	// calibrated against Table 2 for the Polymer-like framework.
	FrameworkCyclesPerEdge float64
	// SpatialReuseFactor divides the random-miss count: a NUMA-aware
	// framework that clusters each node's in-edges by source locality
	// (Polymer's sub-graph construction) reuses each fetched line for
	// several nearby edges. 0 or 1 means no reuse (v-PR's global pull).
	SpatialReuseFactor float64
	// BoundaryRemoteFraction is the share of random misses that cross
	// nodes in a NUMA-aware engine (sub-graph boundary vertices fetched
	// from the owning node). Ignored when NUMAAware is false.
	BoundaryRemoteFraction float64

	Iterations int
}

// AddVertexRun classifies the events of a pull/push vertex-centric run into
// the accumulators, plus the barrier count (two per iteration).
func (a *Accounting) AddVertexRun(s VertexRun) error {
	if a.m == nil {
		return nil
	}
	nThreads := len(a.nodes)
	if nThreads == 0 || len(s.Bounds) != nThreads+1 {
		return fmt.Errorf("platform: bad vertex run (threads=%d bounds=%d)", nThreads, len(s.Bounds))
	}
	if !s.G.HasInEdges() {
		return fmt.Errorf("platform: vertex accounting needs in-edges")
	}
	m := a.m
	threadsOnNode := make([]int, m.NUMANodes)
	for _, nd := range a.nodes {
		threadsOnNode[nd]++
	}

	n := s.G.NumVertices()
	inOff := s.G.InOffsets()
	iters := int64(s.Iterations)

	// Real pull engines schedule vertex chunks dynamically, so the load
	// balance approaches the LPT bound: every thread gets ≈ |E|/T in-edges,
	// floored by the largest single vertex (a vertex's pull cannot be split
	// without atomics). The static Bounds drive locality and vertex counts;
	// edge loads use the dynamic-balance estimate.
	totalIn := inOff[n]
	evenE := totalIn / int64(nThreads)
	var maxIn int64
	for v := 0; v < n; v++ {
		if d := inOff[v+1] - inOff[v]; d > maxIn {
			maxIn = d
		}
	}
	slowestE := evenE
	if maxIn > slowestE {
		slowestE = maxIn
	}
	// Distribute the remainder so totals stay exact: thread 0 carries the
	// hub-bound load, others share the rest evenly.
	restE := totalIn - slowestE
	otherE := int64(0)
	if nThreads > 1 {
		otherE = restE / int64(nThreads-1)
	}
	edgesOf := func(t int) int64 {
		if t == 0 {
			return slowestE
		}
		if t == nThreads-1 {
			return restE - otherE*int64(nThreads-2)
		}
		return otherE
	}

	// The random-read working set: the contribution array spans all
	// vertices for an oblivious engine; a NUMA-aware engine's references
	// concentrate on its own node's slice (Polymer's sub-graphs), shrinking
	// the effective working set per node.
	for t := 0; t < nThreads; t++ {
		lo, hi := s.Bounds[t], s.Bounds[t+1]
		verts := int64(hi - lo)
		inEdges := edgesOf(t)
		c := &a.costs[t]

		dataNode := -1
		if s.NUMAAware {
			dataNode = c.Node
		}
		// Streams: in-edge structure (4B per edge + 8B offsets per vertex),
		// contribution write + rank write (4B each per vertex).
		stream := iters * (inEdges*4 + verts*8 + verts*8)
		if s.FrontierBytesPerVertex > 0 {
			stream += iters * verts * s.FrontierBytesPerVertex
		}
		if dataNode >= 0 {
			c.StreamLocalBytes += stream
		} else {
			local := stream / int64(m.NUMANodes)
			c.StreamLocalBytes += local
			c.StreamRemoteBytes += stream - local
		}

		// Random contribution reads: one per in-edge. The effective cache
		// for one thread's random reads is its node's LLC plus its own L2.
		ws := int64(n) * 4
		llcCap := int64(m.LLC.SizeBytes) + int64(m.L2.SizeBytes)
		if s.NUMAAware && m.NUMANodes > 0 {
			// Polymer-style sub-graphs: each node holds a local replica of
			// the contribution slice it reads, so the random working set is
			// the per-node share.
			ws /= int64(m.NUMANodes)
		}
		pHit := 1.0
		if ws > llcCap {
			pHit = float64(llcCap) / float64(ws)
		}
		hits := int64(float64(iters*inEdges) * pHit)
		misses := iters*inEdges - hits
		if s.SpatialReuseFactor > 1 {
			// Clustered in-edges reuse each fetched line for several edges.
			misses = int64(float64(misses) / s.SpatialReuseFactor)
		}
		c.LLCAccesses += hits
		if s.NUMAAware {
			// Misses go to the node-local replica except for sub-graph
			// boundary vertices fetched from the owning node; the replicas
			// are merged once per iteration (4 bytes per remote vertex over
			// the interconnect).
			remote := int64(float64(misses) * s.BoundaryRemoteFraction)
			c.RandomLocal += misses - remote
			c.RandomRemote += remote
			c.StreamRemoteBytes += iters * verts * 4 * int64(m.NUMANodes-1)
		} else {
			lm := misses / int64(m.NUMANodes)
			c.RandomLocal += lm
			c.RandomRemote += misses - lm
		}

		// Compute. The pull path has a dependent load per edge, costing more
		// than the partition engines' streamed edge work.
		perEdge := 2*CyclesPerEdge + s.FrameworkCyclesPerEdge
		if s.AtomicUpdates {
			perEdge += AtomicPenaltyCycles
		}
		cyc := float64(float64(iters) * (float64(perEdge*float64(inEdges)) + float64(CyclesPerVertex*float64(verts))))
		c.ComputeCycles += cyc
	}
	// Two barriers per iteration (contribution pass, rank pass).
	a.barriers += iters * 2
	return nil
}

// FCFSAssignment models the steady-state outcome of first-come-first-serve
// partition claiming for the analytic cost model: dynamic scheduling
// approximates a greedy least-loaded assignment, so each partition (in
// order) goes to the thread with the least accumulated edge work. With many
// small partitions this is near-perfectly balanced; with fewer partitions
// than threads (GPOP's 1MB partitions on a small graph) the imbalance the
// paper observes emerges naturally.
func FCFSAssignment(h *partition.Hierarchy, threads int) []int32 {
	out := make([]int32, h.NumPartitions())
	load := make([]int64, threads)
	for p, part := range h.Partitions {
		best := 0
		for t := 1; t < threads; t++ {
			if load[t] < load[best] {
				best = t
			}
		}
		out[p] = int32(best)
		load[best] += part.EdgeCount + 1
	}
	return out
}
