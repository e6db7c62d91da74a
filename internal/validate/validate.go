// Package validate cross-checks the analytic performance model
// (internal/perfmodel and the builders in internal/engines/common) against
// the exact substrates: it replays the actual memory reference stream of a
// partition-centric scatter-gather iteration — address by address, from the
// real layout over real memsim regions — through the trace-exact cache
// simulator (internal/cachesim) and the NUMA traffic counters
// (internal/memsim), and reports the measured cache-level and local/remote
// distributions for comparison with the model's classification.
package validate

import (
	"fmt"
	"slices"

	"hipa/internal/cachesim"
	"hipa/internal/graph"
	"hipa/internal/layout"
	"hipa/internal/machine"
	"hipa/internal/memsim"
	"hipa/internal/partition"
	"hipa/internal/sched"
)

// Replay drives one graph's scatter-gather access pattern through the exact
// simulators.
type Replay struct {
	g      *graph.Graph
	mach   *machine.Machine
	hier   *partition.Hierarchy
	lay    *layout.Layout
	lookup *partition.LookupTable

	space *memsim.Space
	cache *cachesim.System

	// Simulated regions for every array the engines touch.
	ranks, acc, bins *memsim.Region
	msgSrcR, msgDstR *memsim.Region
	intraR           *memsim.Region
	numaAware        bool
	threadLogical    []int // logical core per thread
	threadNode       []int
	// Messages are numbered destination-major, so the bins and the
	// message-destination array are laid out destination-major and
	// destination-local placement is a contiguous slice per node. srcSlot
	// maps a message to its position in the message sources, which are
	// priced as stored source-major, a contiguous slice per source node.
	srcSlot []int64
	// intraStart[p] is partition p's first intra-edge in the paper's push
	// lists, stored in source order.
	intraStart []int64
	// The replay decodes the paper's push: message m's destinations are
	// msgDst[msgOff[m]:msgOff[m+1]], rebuilt from the layout's inter pull
	// (pushOrder).
	msgOff []int64
	msgDst []graph.VertexID

	// Measured DRAM traffic (cache-miss line fills only).
	Counters memsim.Counters
	// RandomLevels counts the cache level satisfying each partition-random
	// access (the accumulator updates the model classifies).
	RandomLevels [4]int64 // indexed by cachesim.Level
}

// NewReplay prepares the substrates for graph g on machine m with the given
// partition size and thread count. numaAware selects HiPa-style placement
// (sliced regions, pinned threads) versus oblivious (interleaved regions,
// random thread placement).
func NewReplay(g *graph.Graph, m *machine.Machine, partitionBytes, threads int, numaAware bool) (*Replay, error) {
	nodes := m.NUMANodes
	if threads < nodes {
		threads = nodes
	}
	threads = (threads / nodes) * nodes
	hier, err := partition.Build(g, partition.Config{
		PartitionBytes: partitionBytes,
		BytesPerVertex: 4,
		NumNodes:       nodes,
		GroupsPerNode:  threads / nodes,
	})
	if err != nil {
		return nil, err
	}
	lay, err := layout.Build(g, hier, true)
	if err != nil {
		return nil, err
	}
	r := &Replay{
		g:         g,
		mach:      m,
		hier:      hier,
		lay:       lay,
		lookup:    partition.BuildLookup(hier),
		space:     memsim.NewSpace(m),
		cache:     cachesim.NewSystem(m),
		numaAware: numaAware,
	}

	// Placement policies: HiPa slices per-vertex arrays by partition
	// ownership and places per-message arrays with the destination
	// partition; the oblivious engines interleave everything.
	n := int64(g.NumVertices())
	// Bins and destinations are laid out destination-major, as the
	// messages are numbered: boundaries where the destination partition's
	// node changes.
	r.msgOff, r.msgDst = pushOrder(lay, g.NumVertices())
	var binBounds, dstBounds []int64
	{
		node := 0
		for q := range lay.DstBlocks {
			m, end := lay.DstMessages(q)
			if m == end {
				continue
			}
			if dn := int(r.lookup.PartNode[q]); dn != node {
				binBounds = append(binBounds, m*4)
				dstBounds = append(dstBounds, r.msgOff[m]*4)
				node = dn
			}
		}
		binBounds = append(binBounds, lay.NumMessages()*4)
		dstBounds = append(dstBounds, int64(len(r.msgDst))*4)
	}
	// Per-source-ordered arrays (message sources, the paper's intra-edge
	// push lists, priced as stored though the layout keeps only the pull)
	// are owned by the source partition's node: boundaries where the
	// source partition's node changes.
	var srcBounds, intraBounds []int64
	r.intraStart = make([]int64, hier.NumPartitions()+1)
	for p := range hier.Partitions {
		r.intraStart[p+1] = r.intraStart[p] + lay.PartIntraEdges(hier, p)
	}
	intraEdges := r.intraStart[hier.NumPartitions()]
	{
		r.srcSlot = make([]int64, lay.NumMessages())
		var cum int64
		node := 0
		for _, b := range lay.Blocks {
			if sn := int(r.lookup.PartNode[b.SrcPart]); sn != node {
				srcBounds = append(srcBounds, cum*4)
				node = sn
			}
			for m := b.MsgStart; m < b.MsgEnd; m++ {
				r.srcSlot[m] = cum
				cum++
			}
		}
		srcBounds = append(srcBounds, lay.NumMessages()*4)
		for _, na := range hier.Nodes[1:] {
			intraBounds = append(intraBounds, r.intraStart[na.PartStart]*4)
		}
		intraBounds = append(intraBounds, intraEdges*4)
	}
	var vertexPolicy, binPolicy, srcPolicy, dstPolicy, intraPolicy memsim.Placement = memsim.Interleave{}, memsim.Interleave{}, memsim.Interleave{}, memsim.Interleave{}, memsim.Interleave{}
	if numaAware {
		vertexPolicy = memsim.Sliced{Bounds: hier.RankBoundsBytes(4)}
		binPolicy = memsim.Sliced{Bounds: binBounds}
		srcPolicy = memsim.Sliced{Bounds: srcBounds}
		dstPolicy = memsim.Sliced{Bounds: dstBounds}
		intraPolicy = memsim.Sliced{Bounds: intraBounds}
	}
	alloc := func(name string, size int64, p memsim.Placement) *memsim.Region {
		if size <= 0 {
			size = 1
		}
		return r.space.MustAlloc(name, size, p)
	}
	r.ranks = alloc("ranks", n*4, vertexPolicy)
	r.acc = alloc("acc", n*4, vertexPolicy)
	r.bins = alloc("bins", lay.NumMessages()*4, binPolicy)
	r.msgSrcR = alloc("msgsrc", lay.NumMessages()*4, srcPolicy)
	r.msgDstR = alloc("msgdst", int64(len(r.msgDst))*4, dstPolicy)
	r.intraR = alloc("intra", intraEdges*4, intraPolicy)

	// Thread placement via the scheduler simulation.
	sc := sched.New(m, 1)
	var pool []*sched.Thread
	if numaAware {
		pool, _, err = sc.RunPinnedThreads(threads)
		if err != nil {
			return nil, err
		}
	} else {
		pool = sc.SpawnN(threads, sched.PlacementRandom)
	}
	for _, t := range pool {
		r.threadLogical = append(r.threadLogical, t.Logical)
		r.threadNode = append(r.threadNode, t.Node(m))
	}
	return r, nil
}

// pushOrder rebuilds the paper's push order of the inter-edges from the
// layout's inter pull over n vertices: message m's destinations are
// dst[off[m]:off[m+1]], in ascending vertex order (its source's adjacency
// order, as CSR rows are sorted), a repeated edge repeated, so block b's
// are dst[off[b.MsgStart]:off[b.MsgEnd]].
func pushOrder(lay *layout.Layout, n int) (off []int64, dst []graph.VertexID) {
	ip := &lay.InterPull
	msgs := lay.NumMessages()
	sink := graph.VertexID(msgs)
	idx := ip.Decode(sink)
	off = make([]int64, msgs+1)
	for _, m := range idx {
		if m != sink {
			off[m+1]++
		}
	}
	for m := int64(0); m < msgs; m++ {
		off[m+1] += off[m]
	}
	// Walk the rows in vertex order, each vertex's from its lane.
	slot := make([]int, n)
	for k, v := range ip.Perm {
		if int(v) < n {
			slot[v] = k
		}
	}
	cur := slices.Clone(off[:msgs])
	dst = make([]graph.VertexID, off[msgs])
	for v, k := range slot {
		c := k / layout.PullLanes
		for e := ip.Chunk[c] + int64(k%layout.PullLanes); e < ip.Chunk[c+1] && idx[e] != sink; e += layout.PullLanes {
			m := idx[e]
			dst[cur[m]] = graph.VertexID(v)
			cur[m]++
		}
	}
	return off, dst
}

// access simulates one 4-byte reference by thread t at offset within region
// reg, updating the cache hierarchy, the DRAM counters (on miss), and the
// random-level histogram when isRandom.
func (r *Replay) access(t int, reg *memsim.Region, offset int64, isRandom bool) {
	logical := r.threadLogical[t]
	lv := r.cache.Access(logical, reg.Addr(offset))
	if lv == cachesim.Memory {
		r.Counters.Record(reg, offset, r.mach.L1.LineBytes, r.threadNode[t])
	}
	if isRandom {
		r.RandomLevels[lv]++
	}
}

// RunIteration replays one full scatter-gather iteration. Threads are
// replayed round-robin partition-phase-interleaved to approximate
// concurrent cache occupancy (each thread's accesses hit its own private
// caches; the shared LLC sees the union).
func (r *Replay) RunIteration() {
	lay := r.lay
	// Scatter phase: interleave threads partition by partition.
	// The intra-edges are walked as the paper's push lists: g's out-CSR
	// restricted to the partition, at a running offset into their region.
	off, adj := r.g.OutOffsets(), r.g.OutEdges()
	r.forEachThreadPartition(func(t, p int) {
		part := r.hier.Partitions[p]
		span := uint32(part.VertexEnd - part.VertexStart)
		ii := r.intraStart[p]
		for v := int(part.VertexStart); v < int(part.VertexEnd); v++ {
			r.access(t, r.ranks, int64(v)*4, false)
			for _, d := range adj[off[v]:off[v+1]] {
				if uint32(d-part.VertexStart) < span {
					r.access(t, r.intraR, ii*4, false)
					r.access(t, r.acc, int64(d)*4, true)
					ii++
				}
			}
		}
		for bi := lay.SrcBlockStart[p]; bi < lay.SrcBlockEnd[p]; bi++ {
			b := lay.Blocks[bi]
			for m := b.MsgStart; m < b.MsgEnd; m++ {
				r.access(t, r.msgSrcR, r.srcSlot[m]*4, false)
				r.access(t, r.ranks, int64(lay.MsgSrc[m])*4, false)
				r.access(t, r.bins, m*4, false)
			}
		}
	})
	// Gather phase.
	r.forEachThreadPartition(func(t, p int) {
		for _, bi := range lay.DstBlocks[p] {
			b := lay.Blocks[bi]
			for m := b.MsgStart; m < b.MsgEnd; m++ {
				r.access(t, r.bins, m*4, false)
				for di := r.msgOff[m]; di < r.msgOff[m+1]; di++ {
					r.access(t, r.msgDstR, di*4, false)
					r.access(t, r.acc, int64(r.msgDst[di])*4, true)
				}
			}
		}
		part := r.hier.Partitions[p]
		for v := int(part.VertexStart); v < int(part.VertexEnd); v++ {
			r.access(t, r.acc, int64(v)*4, false)
			r.access(t, r.ranks, int64(v)*4, false)
		}
	})
}

// forEachThreadPartition visits (thread, partition) pairs interleaved
// round-robin across threads, approximating concurrent execution.
func (r *Replay) forEachThreadPartition(fn func(t, p int)) {
	nThreads := len(r.threadLogical)
	cursors := make([]int, nThreads)
	for {
		progressed := false
		for t := 0; t < nThreads; t++ {
			gr := r.hier.Groups[t%len(r.hier.Groups)]
			p := gr.PartStart + cursors[t]
			if p >= gr.PartEnd {
				continue
			}
			fn(t%len(r.hier.Groups), p)
			cursors[t]++
			progressed = true
		}
		if !progressed {
			return
		}
	}
}

// ResetCounters clears the measured traffic (keep the cache state warm to
// exclude cold misses).
func (r *Replay) ResetCounters() {
	r.Counters = memsim.Counters{}
	r.RandomLevels = [4]int64{}
}

// RandomFractions returns the measured fraction of partition-random
// accesses satisfied at (private cache, LLC, DRAM) — comparable to
// perfmodel.ClassifyPartitionRandom's (fL2, fLLC, fDRAM).
func (r *Replay) RandomFractions() (private, llc, dram float64, err error) {
	total := r.RandomLevels[0] + r.RandomLevels[1] + r.RandomLevels[2] + r.RandomLevels[3]
	if total == 0 {
		return 0, 0, 0, fmt.Errorf("validate: no random accesses recorded")
	}
	private = float64(r.RandomLevels[cachesim.HitL1]+r.RandomLevels[cachesim.HitL2]) / float64(total)
	llc = float64(r.RandomLevels[cachesim.HitLLC]) / float64(total)
	dram = float64(r.RandomLevels[cachesim.Memory]) / float64(total)
	return private, llc, dram, nil
}
