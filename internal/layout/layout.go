// Package layout builds the partition-centric data layout that HiPa, the
// p-PR baseline, Delta-PR and B-PPR iterate over (paper §3.4, Fig. 4):
// intra-edges kept local to the owning core's cache, and inter-edges
// compressed into per-(source-partition, destination-partition) message
// blocks — all inter-edges that share a source vertex and a destination
// partition collapse into a single message carrying one rank value
// (PCPM's compression, Lakhotia et al.).
//
// Blocks are stored in (source partition, destination partition) order,
// and messages are numbered destination-major, by (destination partition,
// source partition, source vertex), so each destination partition's
// messages, and their slots in the engines' bins, are one contiguous range.
// The scatter phase of the owning thread streams through its blocks, one
// sequential run per destination partition, writing one value per message
// into the bins, while its random reads stay inside the cache-resident
// source partition.
//
// Both edge kinds are pulled by their destination through a sliced
// ELLPACK per partition (SELL-C-σ with C = PullLanes and σ = the whole
// partition, Kreutzer et al.): the partition's vertices are sorted by row
// length, descending and stable by ID, and cut into chunks of PullLanes
// rows. A chunk is stored column-major, so one step through it reads one
// entry for each of its rows, and every row is padded up to the chunk's
// longest row with a sink index. A kernel keeps one running sum per lane:
// PullLanes independent add chains and no per-row loop exit. A chunk whose
// rows step by less than 2^16 − 1 is stored narrow, as 16-bit differences
// after a 32-bit first index per lane (encode.go), which halves the bytes
// a pull streams.
//
//   - The intra pull (IntraPull) lists each vertex's intra in-neighbours in
//     ascending order; its entries index the engines' per-vertex
//     contributions, and its sink is the vertex count n.
//   - The inter pull (InterPull) lists the global index of every message
//     that targets the vertex, in ascending order — the order in which a
//     push would have decoded them, block by block in source-partition
//     order — a repeated edge repeating its message; its entries index the
//     bins, and its sink is the message count.
//
// Each row adds exactly the values a push would have added, in the same
// order; the padding adds the +0 engines keep at the sink slot, which
// leaves a sum that is never −0 unchanged. So the pulls' float32 sums are
// bit-identical to the paper's push, and any set of chunks can run on a
// different thread without races. The intra pull is the one stored copy
// of the intra-edges: a kernel that pushes a sparse frontier instead
// walks the graph's own out-CSR and keeps the destinations inside the
// partition (common.PushCSR).
//
// The same structure with compression disabled (one message per inter-edge)
// serves as the ablation baseline for the compression optimisation.
package layout

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"unsafe"

	"hipa/internal/graph"
	"hipa/internal/par"
	"hipa/internal/partition"
)

// PullLanes is the number of rows interleaved in one chunk of a pull.
const PullLanes = 8

// maxIndex bounds a layout's vertex and message counts: every pull entry
// and either sink must be a non-negative int32, the index type of the
// AVX2 gather.
const maxIndex = 1 << 31

// Block is one (source partition → destination partition) run of messages.
type Block struct {
	SrcPart, DstPart int32
	// MsgStart/MsgEnd delimit the block's messages in MsgSrc (and in an
	// engine's per-message value bins).
	MsgStart, MsgEnd int64
	// Edges is the number of inter-edges the block's messages carry.
	Edges int64
}

// Messages returns the number of compressed messages in the block.
func (b Block) Messages() int64 { return b.MsgEnd - b.MsgStart }

// SELL is one pull: a sliced ELLPACK of a row per vertex, per partition.
// Partition p's chunks are [Part[p], Part[p+1]), ceil(|p|/PullLanes) of
// them. Perm[c·PullLanes+i] is the vertex of lane i of chunk c, or n for a
// padding lane; padding lanes only trail a partition's last chunk. Chunk c
// has Chunk[c+1]−Chunk[c] entries, column-major: PullLanes per step, over
// as many steps as its first lane's row is long. A lane holds its vertex's
// row, then the pull's sink up to the chunk's width. The entries are
// stored encoded, chunk c as Enc[Off[c]:Off[c+1]] (encode.go); Decoder
// decodes a chunk.
type SELL struct {
	Part  []int32
	Chunk []int64
	Off   []int64
	Perm  []graph.VertexID
	Enc   []uint16
}

// Lanes returns the vertices of chunk c's lanes.
func (s *SELL) Lanes(c int) []graph.VertexID {
	return s.Perm[c*PullLanes : (c+1)*PullLanes : (c+1)*PullLanes]
}

// Chunks returns the chunks of partition p that hold entries: p's chunk
// range up to its first chunk of width zero. Rows are sorted by length, so
// the empty chunks, those of the vertices with empty rows, trail.
func (s *SELL) Chunks(p int) (int, int) {
	clo, chi := int(s.Part[p]), int(s.Part[p+1])
	return clo, clo + sort.Search(chi-clo, func(i int) bool { return s.Chunk[clo+i] == s.Chunk[clo+i+1] })
}

// Layout is the immutable partition-centric representation of one graph
// under one hierarchical partitioning.
type Layout struct {
	NumPartitions int
	Compressed    bool

	// Blocks sorted by (SrcPart, DstPart).
	Blocks []Block
	// SrcBlocks[p] is the [start,end) range in Blocks of partition p's
	// outgoing blocks.
	SrcBlockStart []int32
	SrcBlockEnd   []int32
	// DstBlocks[q] lists indices into Blocks of the blocks targeting q.
	DstBlocks [][]int32

	// MsgSrc[i] is message i's source vertex.
	MsgSrc []graph.VertexID

	// IntraPull's rows are each vertex's intra in-neighbours, ascending;
	// its sink is the vertex count n.
	IntraPull SELL
	// InterPull's rows are the indices of the messages targeting each
	// vertex, ascending, a message repeated once per edge it carries to
	// the vertex; its sink is NumMessages().
	InterPull SELL

	// Totals for reporting and the analytic model.
	IntraEdges int64
	InterEdges int64
}

// NumMessages returns the total compressed message count.
func (l *Layout) NumMessages() int64 { return int64(len(l.MsgSrc)) }

// DstMessages returns the range of the messages that target partition q:
// messages are numbered destination-major, so they are contiguous.
func (l *Layout) DstMessages(q int) (int64, int64) {
	list := l.DstBlocks[q]
	if len(list) == 0 {
		return 0, 0
	}
	return l.Blocks[list[0]].MsgStart, l.Blocks[list[len(list)-1]].MsgEnd
}

// PartIntraEdges returns the intra-edges of partition p of h, the
// hierarchy l was built under: its out-edges less those its blocks carry.
func (l *Layout) PartIntraEdges(h *partition.Hierarchy, p int) int64 {
	intra := h.Partitions[p].EdgeCount
	for _, b := range l.Blocks[l.SrcBlockStart[p]:l.SrcBlockEnd[p]] {
		intra -= b.Edges
	}
	return intra
}

// Build constructs the layout for g under hierarchy h with the default
// parallelism. When compress is false every inter-edge becomes its own
// single-destination message.
func Build(g *graph.Graph, h *partition.Hierarchy, compress bool) (*Layout, error) {
	return BuildWorkers(g, h, compress, 0)
}

// BuildWorkers is Build with an explicit worker count (positive = that many
// workers, 0 = all cores, negative = serial).
//
// Both edge-scanning passes (count, then fill) run parallel over source
// partitions: every array cell they touch — a (p,q) row of the pair-count
// and cursor matrices, a vertex's intra pull lane (an intra edge's
// destination lies in its source's partition), p's intra pull
// chunks, a message inside one of p's blocks and its destinations — is
// owned by exactly one source partition p, so rows can be processed
// concurrently with disjoint writes, and within a row the serial vertex
// order is preserved. The fill writes the inter-edges in push order, each
// message's destinations as one run; the inter pull is then built from
// that run list in two passes parallel over destination partitions, whose
// writes are owned by the destination. Rows are split by edge weight so
// one hub partition cannot serialize the build. The layout is
// bit-identical at any worker count.
func BuildWorkers(g *graph.Graph, h *partition.Hierarchy, compress bool, workers int) (*Layout, error) {
	if err := checkVertices(g, h); err != nil {
		return nil, err
	}
	P := h.NumPartitions()
	l := newLayout(h, compress)
	s := newRowScan(g, h, compress)

	// Row split: contiguous source-partition ranges of roughly equal edge
	// weight, one per worker.
	w := par.Fit(par.Workers(workers), g.NumEdges())
	partEdges := make([]int64, P+1)
	for p := 0; p < P; p++ {
		partEdges[p+1] = partEdges[p] + h.Partitions[p].EdgeCount
	}

	// Pass 1: count messages and destinations per (p,q), and intra
	// in-edges per vertex, then order each partition's intra pull rows. The
	// pair matrix is dense; partition counts stay small at realistic
	// partition sizes (P = |V|·4B / partitionBytes).
	msgCount := make([]int64, P*P)
	dstCount := make([]int64, P*P)
	par.WeightedBlocks(w, partEdges, func(_, plo, phi int) {
		var hist []int64
		for p := plo; p < phi; p++ {
			vlo, vhi := s.rowRange(p)
			s.count(p, vlo, vhi, msgCount[p*P:(p+1)*P], dstCount[p*P:(p+1)*P])
			hist = l.IntraPull.sortLanes(p, vlo, s.deg[vlo:vhi], s.sink, hist)
		}
	})
	push, err := l.placeBlocks(msgCount, dstCount, g.NumEdges())
	if err != nil {
		return nil, err
	}

	// Pass 2: fill messages, their destination runs and the intra pull in
	// one row-parallel scan, through the per-block cursors placeBlocks
	// left in msgCount and dstCount and the per-destination lane cursors
	// fill derives from the intra pull's chunks, writing each entry in its
	// encoded place; then build the inter pull from the push order.
	par.WeightedBlocks(w, partEdges, func(_, plo, phi int) {
		for p := plo; p < phi; p++ {
			vlo, vhi := s.rowRange(p)
			s.fill(l, p, vlo, vhi, msgCount[p*P:(p+1)*P], dstCount[p*P:(p+1)*P], push, true)
		}
	})
	s.pullInter(l, push, w)
	return l, nil
}

// checkVertices rejects a graph that does not match its hierarchy or whose
// vertex IDs would not fit a pull index.
func checkVertices(g *graph.Graph, h *partition.Hierarchy) error {
	if h.NumVertices >= maxIndex {
		return fmt.Errorf("layout: %d vertices; a pull index holds fewer than 2^31", h.NumVertices)
	}
	if g.NumVertices() != h.NumVertices {
		return fmt.Errorf("layout: graph has %d vertices, hierarchy %d", g.NumVertices(), h.NumVertices)
	}
	return nil
}

// newLayout allocates the per-partition and per-vertex arrays, whose sizes
// follow from h alone: the push offsets, and each pull's chunk ranges,
// chunk offsets and lane permutation.
func newLayout(h *partition.Hierarchy, compress bool) *Layout {
	P := h.NumPartitions()
	return &Layout{
		NumPartitions: P,
		Compressed:    compress,
		SrcBlockStart: make([]int32, P),
		SrcBlockEnd:   make([]int32, P),
		DstBlocks:     make([][]int32, P),
		IntraPull:     newSELL(h),
		InterPull:     newSELL(h),
	}
}

// newSELL allocates a pull's chunk ranges, chunk offsets and lanes for h's
// partitions.
func newSELL(h *partition.Hierarchy) SELL {
	P := h.NumPartitions()
	s := SELL{Part: make([]int32, P+1)}
	for p, part := range h.Partitions {
		s.Part[p+1] = s.Part[p] + int32((part.Vertices()+PullLanes-1)/PullLanes)
	}
	chunks := int(s.Part[P])
	s.Chunk = make([]int64, chunks+1)
	s.Off = make([]int64, chunks+1)
	s.Perm = make([]graph.VertexID, chunks*PullLanes)
	return s
}

// sortLanes orders partition p's vertices, the first of which is vlo, into
// p's lanes by row length (deg[i] is vertex vlo+i's), descending and stable
// by ID — a counting sort with hist as its reusable scratch (returned for
// the next call). The slots past the last vertex are padding lanes, set to
// sink. Each chunk's entry count, PullLanes times its first (longest)
// lane's length, goes to Chunk[c+1] for place's prefix sum.
func (s *SELL) sortLanes(p, vlo int, deg []int64, sink graph.VertexID, hist []int64) []int64 {
	var top int64
	for _, d := range deg {
		top = max(top, d)
	}
	hist = slices.Grow(hist[:0], int(top)+1)[:top+1]
	clear(hist)
	for _, d := range deg {
		hist[d]++
	}
	// hist[d] becomes the first slot of length d, the longest first.
	var slot int64
	for d := top; d >= 0; d-- {
		c := hist[d]
		hist[d] = slot
		slot += c
	}
	clo, chi := int(s.Part[p]), int(s.Part[p+1])
	perm := s.Perm[clo*PullLanes : chi*PullLanes]
	for i, d := range deg {
		perm[hist[d]] = graph.VertexID(vlo + i)
		hist[d]++
	}
	for i := len(deg); i < len(perm); i++ {
		perm[i] = sink
	}
	for c := clo; c < chi; c++ {
		s.Chunk[c+1] = PullLanes * deg[int(perm[(c-clo)*PullLanes])-vlo]
	}
	return hist
}

// place turns the per-chunk entry counts into chunk offsets.
func (s *SELL) place() {
	for c := 0; c+1 < len(s.Chunk); c++ {
		s.Chunk[c+1] += s.Chunk[c]
	}
}

// placeWide sets the encoding offsets of a pull whose chunks are all wide
// and allocates its encoding, which the fill then writes in place: entry e
// at Enc[2e:2e+2].
func (s *SELL) placeWide() {
	for c := 0; c+1 < len(s.Chunk); c++ {
		s.Off[c+1] = 2 * s.Chunk[c+1]
	}
	s.Enc = make([]uint16, s.Off[len(s.Off)-1])
}

// pad turns the row length cur[v] of each vertex v of partition p into its
// lane cursor, the index of the lane's first entry less base, and calls
// put(e) for every entry e (less base) of p's chunks past the end of its
// lane's row, which the caller sets to the pull's sink. laneSink marks
// padding lanes.
func (s *SELL) pad(p int, cur []int64, base int64, laneSink graph.VertexID, put func(e int64)) {
	for c := int(s.Part[p]); c < int(s.Part[p+1]); c++ {
		end := s.Chunk[c+1] - base
		for i, v := range s.Lanes(c) {
			e := s.Chunk[c] - base + int64(i)
			if v != laneSink {
				deg := cur[v]
				cur[v] = e
				e += PullLanes * deg
			}
			for ; e < end; e += PullLanes {
				put(e)
			}
		}
	}
}

// put32 writes x as a wide entry at enc[e:e+2], in one 32-bit store.
func put32(enc []uint16, e int64, x graph.VertexID) {
	w := enc[e : e+2 : e+2]
	w[0], w[1] = uint16(x), uint16(x>>16)
}

// bytes returns the resident size of the pull's arrays.
func (s *SELL) bytes() int64 {
	return 4*int64(cap(s.Part)+cap(s.Perm)) + 8*int64(cap(s.Chunk)+cap(s.Off)) + 2*int64(cap(s.Enc))
}

// rowScan walks the out-adjacency rows of one source partition's vertices,
// grouping each inter-edge into a message: with compression, consecutive
// destinations of one vertex in the same destination partition share a
// message; without, every inter-edge is its own. An edge of source partition
// p is intra when its destination lies in p's range [p·per, (p+1)·per), one
// unsigned compare; only inter-edges pay for their destination partition,
// a multiply and a shift (divider) in place of a divide.
//
// deg[v] is a vertex's row length in the pull being built, then its lane
// cursor: v's intra in-degree after count and its next intra pull entry
// during fill, then its inter in-degree and its next inter pull entry in
// pullInter. sink (the vertex count) marks padding lanes and pads the
// intra pull.
type rowScan struct {
	h        *partition.Hierarchy
	per      int
	part     divider
	off      []int64
	adj      []graph.VertexID
	compress bool
	deg      []int64
	sink     graph.VertexID
}

func newRowScan(g *graph.Graph, h *partition.Hierarchy, compress bool) rowScan {
	n := g.NumVertices()
	return rowScan{h: h, per: h.VerticesPerPartition, part: newDivider(uint32(h.VerticesPerPartition)),
		off: g.OutOffsets(), adj: g.OutEdges(), compress: compress,
		deg: make([]int64, n), sink: graph.VertexID(n)}
}

// divider divides a vertex ID, below 2^31, by a fixed divisor d ≥ 1 as
// (v·m) >> s with m = ceil(2^s/d) and s = 31 + ceil(log2 d), which is exact
// for every dividend below 2^31 (Granlund and Montgomery, "Division by
// invariant integers using multiplication", Theorem 4.2), and m·v stays
// below 2^63.
type divider struct {
	m uint64
	s uint
}

func newDivider(d uint32) divider {
	s := 31 + uint(bits.Len32(d-1))
	return divider{m: (uint64(1)<<s + uint64(d) - 1) / uint64(d), s: s}
}

func (dv divider) div(v graph.VertexID) int { return int((uint64(v) * dv.m) >> dv.s) }

// rowRange returns the vertex range of partition p.
func (s rowScan) rowRange(p int) (int, int) {
	return int(s.h.Partitions[p].VertexStart), int(s.h.Partitions[p].VertexEnd)
}

// count adds source partition p's messages and destinations per destination
// partition q to msgs[q] and dsts[q] (p's row of the pair matrices), each
// vertex v's intra in-edges to s.deg[v].
func (s rowScan) count(p, vlo, vhi int, msgs, dsts []int64) {
	in := s.deg
	lo, per := uint32(p*s.per), uint32(s.per)
	for v := vlo; v < vhi; v++ {
		lastQ := -1
		for _, d := range s.adj[s.off[v]:s.off[v+1]] {
			if uint32(d)-lo < per {
				in[d]++
				continue
			}
			q := s.part.div(d)
			dsts[q]++
			if !s.compress || q != lastQ {
				msgs[q]++
				lastQ = q
			}
		}
	}
}

// interPush is the inter-edges in the paper's push order: message m's
// destinations are dst[off[m]:off[m+1]], so block b's are
// dst[off[b.MsgStart]:off[b.MsgEnd]]. The fill writes it and pullInter
// turns it into the inter pull; the layout does not keep it.
type interPush struct {
	off []int64
	dst []graph.VertexID
}

// fill places source partition p's messages, their destination runs and,
// with intra set, its intra edges. msgCur[q] and dstCur[q] start at block
// (p,q)'s first message and first destination index: inside a block,
// messages follow the scan's source order and each message's destinations
// are a contiguous run of its row, so one message cursor and one
// destination cursor per block place everything. An intra edge (v,d) is
// written in place, as a wide entry (the intra pull's chunks are all
// wide), to d's intra pull lane through the cursor s.deg[d], which steps
// by PullLanes; sources arrive in ascending order, so each lane ends up
// sorted.
func (s rowScan) fill(l *Layout, p, vlo, vhi int, msgCur, dstCur []int64, push interPush, intra bool) {
	cur, enc := s.deg, l.IntraPull.Enc
	if intra {
		l.IntraPull.pad(p, cur, 0, s.sink, func(e int64) { put32(enc, 2*e, s.sink) })
	}
	lo, per := uint32(p*s.per), uint32(s.per)
	for v := vlo; v < vhi; v++ {
		lastQ := -1
		for _, d := range s.adj[s.off[v]:s.off[v+1]] {
			if uint32(d)-lo < per {
				if intra {
					put32(enc, 2*cur[d], graph.VertexID(v))
					cur[d] += PullLanes
				}
				continue
			}
			q := s.part.div(d)
			if !s.compress || q != lastQ {
				m := msgCur[q]
				msgCur[q]++
				l.MsgSrc[m] = graph.VertexID(v)
				push.off[m] = dstCur[q]
				lastQ = q
			}
			push.dst[dstCur[q]] = d
			dstCur[q]++
		}
	}
}

// pullInter builds the inter pull from the push order, in two passes
// parallel over destination partitions, split by their inter in-edges:
// the first counts each vertex's inter in-edges and sorts its partition's
// lanes, the second pads the lanes and appends, message by message, each
// message's index to the lane of each of its destinations, in the
// worker's 32-bit scratch, then encodes the partition's chunks from it
// while they are hot; join gathers the partitions' encodings. A
// partition's messages are numbered in DstBlocks order, ascending source
// partition, so every lane lists its messages in ascending index — the
// order in which a push decodes them. Every write lands in the
// destination partition's own lanes and chunks.
func (s rowScan) pullInter(l *Layout, push interPush, workers int) {
	P := l.NumPartitions
	inEdges := make([]int64, P+1)
	for _, b := range l.Blocks {
		inEdges[b.DstPart+1] += b.Edges
	}
	for q := 0; q < P; q++ {
		inEdges[q+1] += inEdges[q]
	}
	ip := &l.InterPull
	deg := s.deg
	par.WeightedBlocks(workers, inEdges, func(_, qlo, qhi int) {
		var hist []int64
		for q := qlo; q < qhi; q++ {
			vlo, vhi := s.rowRange(q)
			clear(deg[vlo:vhi])
			mlo, mhi := l.DstMessages(q)
			for _, d := range push.dst[push.off[mlo]:push.off[mhi]] {
				deg[d]++
			}
			hist = ip.sortLanes(q, vlo, deg[vlo:vhi], s.sink, hist)
		}
	})
	ip.place()
	msgSink := graph.VertexID(l.NumMessages())
	parts := make([][]uint16, P)
	par.WeightedBlocks(workers, inEdges, func(_, qlo, qhi int) {
		var idx []graph.VertexID
		for q := qlo; q < qhi; q++ {
			base := ip.Chunk[ip.Part[q]]
			idx = slices.Grow(idx[:0], int(ip.Chunk[ip.Part[q+1]]-base))[:ip.Chunk[ip.Part[q+1]]-base]
			ip.pad(q, deg, base, s.sink, func(e int64) { idx[e] = msgSink })
			mlo, mhi := l.DstMessages(q)
			for m := mlo; m < mhi; m++ {
				for _, d := range push.dst[push.off[m]:push.off[m+1]] {
					idx[deg[d]] = graph.VertexID(m)
					deg[d] += PullLanes
				}
			}
			parts[q] = ip.encode(q, idx, msgSink)
		}
	})
	ip.join(parts, workers)
}

// placeBlocks turns the per-chunk entry counts into the intra pull's chunk
// offsets, lays out the blocks in (p,q) order, numbers the messages
// destination-major — by destination partition, then source partition,
// then source vertex, so partition q's messages are one contiguous range
// and its blocks' ranges follow each other in DstBlocks order — with the
// destinations (the inter-edges; the rest of the graph's edges are intra)
// numbered alongside, and allocates the message sources and the push order
// the fill writes. msgCount and dstCount become each (p,q) pair's first
// message and first destination index: the cursors of the fill pass. It
// refuses a layout of 2^31 or more messages, whose indices would not fit a
// pull.
func (l *Layout) placeBlocks(msgCount, dstCount []int64, edges int64) (interPush, error) {
	P := l.NumPartitions
	for p := 0; p < P; p++ {
		l.SrcBlockStart[p] = int32(len(l.Blocks))
		for q := 0; q < P; q++ {
			if msgCount[p*P+q] == 0 {
				continue
			}
			l.DstBlocks[q] = append(l.DstBlocks[q], int32(len(l.Blocks)))
			l.Blocks = append(l.Blocks, Block{SrcPart: int32(p), DstPart: int32(q), Edges: dstCount[p*P+q]})
		}
		l.SrcBlockEnd[p] = int32(len(l.Blocks))
	}
	var totalMsgs, totalDsts int64
	for q := 0; q < P; q++ {
		for _, bi := range l.DstBlocks[q] {
			b := &l.Blocks[bi]
			idx := int(b.SrcPart)*P + q
			b.MsgStart, b.MsgEnd = totalMsgs, totalMsgs+msgCount[idx]
			msgCount[idx], dstCount[idx] = totalMsgs, totalDsts
			totalMsgs = b.MsgEnd
			totalDsts += b.Edges
		}
	}
	l.InterEdges, l.IntraEdges = totalDsts, edges-totalDsts
	if totalMsgs >= maxIndex {
		return interPush{}, fmt.Errorf("layout: %d messages; a pull index holds fewer than 2^31", totalMsgs)
	}
	l.IntraPull.place()
	l.IntraPull.placeWide()
	l.MsgSrc = make([]graph.VertexID, totalMsgs)
	push := interPush{off: make([]int64, totalMsgs+1), dst: make([]graph.VertexID, totalDsts)}
	push.off[totalMsgs] = totalDsts
	return push, nil
}

// Validate checks structural invariants; used by tests. The blocks must
// tile the messages in DstBlocks order; the intra pull must replay the
// graph's intra-edges and the inter pull its inter-edges, grouped into
// messages as the build groups them: every lane lists, in order, exactly
// the sources or messages a push over g's out-CSR would add into its
// vertex, and every entry past a row is the pull's sink. Every chunk must
// be stored in the encoding the encoder's rule picks for its rows.
func (l *Layout) Validate(g *graph.Graph, h *partition.Hierarchy) error {
	per := h.VerticesPerPartition
	n := g.NumVertices()
	msgs := l.NumMessages()
	// block[(p,q)] is the index of block p->q; next[bi] its next message.
	block := make(map[[2]int]int, len(l.Blocks))
	next := make([]int64, len(l.Blocks))
	listed := make([]int, len(l.Blocks))
	var msgCur, interEdges int64
	for q, list := range l.DstBlocks {
		for _, bi := range list {
			b := l.Blocks[bi]
			if int(b.DstPart) != q {
				return fmt.Errorf("layout: DstBlocks of %d lists block %d->%d", q, b.SrcPart, b.DstPart)
			}
			if b.MsgStart != msgCur || b.MsgEnd <= b.MsgStart || b.MsgEnd > msgs || b.Edges < b.Messages() {
				return fmt.Errorf("layout: block %d->%d messages [%d,%d) carrying %d edges do not follow %d", b.SrcPart, b.DstPart, b.MsgStart, b.MsgEnd, b.Edges, msgCur)
			}
			msgCur = b.MsgEnd
			listed[bi]++
		}
	}
	if msgCur != msgs {
		return fmt.Errorf("layout: blocks cover %d of %d messages", msgCur, msgs)
	}
	for bi, b := range l.Blocks {
		if b.SrcPart == b.DstPart {
			return fmt.Errorf("layout: block %d->%d is intra", b.SrcPart, b.DstPart)
		}
		if listed[bi] != 1 {
			return fmt.Errorf("layout: block %d->%d is listed %d times in DstBlocks", b.SrcPart, b.DstPart, listed[bi])
		}
		interEdges += b.Edges
		for m := b.MsgStart; m < b.MsgEnd; m++ {
			if int(l.MsgSrc[m])/per != int(b.SrcPart) {
				return fmt.Errorf("layout: message %d source %d outside partition %d", m, l.MsgSrc[m], b.SrcPart)
			}
		}
		block[[2]int{int(b.SrcPart), int(b.DstPart)}] = bi
		next[bi] = b.MsgStart
	}

	intra, err := l.IntraPull.lanes("intra", h, n, graph.VertexID(n), false)
	if err != nil {
		return err
	}
	inter, err := l.InterPull.lanes("inter", h, n, graph.VertexID(msgs), true)
	if err != nil {
		return err
	}
	var edges int64
	for u := 0; u < n; u++ {
		p, lastQ, bi := u/per, -1, -1
		for _, d := range g.OutNeighbors(graph.VertexID(u)) {
			q := int(d) / per
			if q == p {
				if !intra.next(d, graph.VertexID(u)) {
					return fmt.Errorf("layout: intra pull lane of %d does not hold intra edge (%d,%d) in source order", d, u, d)
				}
				continue
			}
			edges++
			if !l.Compressed || q != lastQ {
				var ok bool
				if bi, ok = block[[2]int{p, q}]; !ok || next[bi] == l.Blocks[bi].MsgEnd || l.MsgSrc[next[bi]] != graph.VertexID(u) {
					return fmt.Errorf("layout: inter edge (%d,%d) has no message from %d in block %d->%d", u, d, u, p, q)
				}
				next[bi]++
				lastQ = q
			}
			if m := next[bi] - 1; !inter.next(d, graph.VertexID(m)) {
				return fmt.Errorf("layout: inter pull lane of %d does not hold message %d of edge (%d,%d) in push order", d, m, u, d)
			}
		}
	}
	for bi, b := range l.Blocks {
		if next[bi] != b.MsgEnd {
			return fmt.Errorf("layout: block %d->%d holds %d messages the graph does not send", b.SrcPart, b.DstPart, b.MsgEnd-next[bi])
		}
	}
	if err := intra.padding(); err != nil {
		return err
	}
	if err := inter.padding(); err != nil {
		return err
	}

	// Edge conservation.
	if edges != l.InterEdges || interEdges != l.InterEdges {
		return fmt.Errorf("layout: graph has %d inter-edges and blocks carry %d, want %d", edges, interEdges, l.InterEdges)
	}
	if l.IntraEdges+l.InterEdges != g.NumEdges() {
		return fmt.Errorf("layout: intra %d + inter %d != edges %d", l.IntraEdges, l.InterEdges, g.NumEdges())
	}
	if !l.Compressed && msgs != l.InterEdges {
		return fmt.Errorf("layout: uncompressed layout must have one message per inter-edge")
	}
	return nil
}

// laneCheck replays a pull's rows, decoded into idx, in the order they
// were filled: cur[v] is the next entry of v's lane, end[v] its chunk's
// end.
type laneCheck struct {
	name     string
	s        *SELL
	idx      []graph.VertexID
	cur, end []int64
	sink     graph.VertexID
	narrow   bool
}

// lanes checks the shape of the pull named name, whose sink is sink and
// whose chunks are narrow where the rule allows if narrow is set, against
// h and n, which is everything the pull kernels rely on besides the
// entries: each partition's lane slots hold each of its vertices once,
// then only padding lanes (the sink n), the chunk offsets count whole
// steps of PullLanes entries, and each chunk's encoding is the size of a
// wide or a narrow one. It returns the checker that replays the rows.
func (s *SELL) lanes(name string, h *partition.Hierarchy, n int, sink graph.VertexID, narrow bool) (*laneCheck, error) {
	P := len(h.Partitions)
	if len(s.Part) != P+1 || s.Part[0] != 0 {
		return nil, fmt.Errorf("layout: %d %s pull chunk ranges for %d partitions", len(s.Part)-1, name, P)
	}
	for p, part := range h.Partitions {
		if got, want := s.Part[p+1]-s.Part[p], (part.Vertices()+PullLanes-1)/PullLanes; int(got) != want {
			return nil, fmt.Errorf("layout: partition %d has %d %s pull chunks, want %d", p, got, name, want)
		}
	}
	chunks := int(s.Part[P])
	off := s.Chunk
	if len(off) != chunks+1 || len(s.Off) != chunks+1 || len(s.Perm) != chunks*PullLanes || off[0] != 0 || s.Off[0] != 0 || s.Off[chunks] != int64(len(s.Enc)) {
		return nil, fmt.Errorf("layout: %d %s pull chunk offsets, %d encoding offsets and %d lanes do not tile %d chunks of %d encoded entries", len(off), name, len(s.Off), len(s.Perm), chunks, len(s.Enc))
	}
	for c := 0; c < chunks; c++ {
		e := off[c+1] - off[c]
		if e < 0 || e%PullLanes != 0 {
			return nil, fmt.Errorf("layout: %s pull chunk %d spans %d entries, not whole steps of %d", name, c, e, PullLanes)
		}
		if size, w := s.Off[c+1]-s.Off[c], e/PullLanes; size != wideSize(w) && (w < 2 || size != narrowSize(w)) {
			return nil, fmt.Errorf("layout: %s pull chunk %d of %d steps is encoded in %d uint16s, neither wide (%d) nor narrow (%d)", name, c, w, size, wideSize(w), narrowSize(w))
		}
	}
	laneSink := graph.VertexID(n)
	lc := &laneCheck{name: name, s: s, idx: s.Decode(sink), cur: make([]int64, n), end: make([]int64, n), sink: sink, narrow: narrow}
	for i := range lc.cur {
		lc.cur[i] = -1
	}
	for p, part := range h.Partitions {
		clo, chi := int(s.Part[p]), int(s.Part[p+1])
		for i, v := range s.Perm[clo*PullLanes : chi*PullLanes] {
			if i >= part.Vertices() {
				if v != laneSink {
					return nil, fmt.Errorf("layout: %s pull padding lane %d of partition %d holds %d, not the sink %d", name, i, p, v, laneSink)
				}
				continue
			}
			if v < part.VertexStart || v >= part.VertexEnd || lc.cur[v] >= 0 {
				return nil, fmt.Errorf("layout: %s pull lane %d of partition %d holds %d: the lanes are not a permutation of [%d,%d)", name, i, p, v, part.VertexStart, part.VertexEnd)
			}
			c := clo + i/PullLanes
			lc.cur[v], lc.end[v] = off[c]+int64(i%PullLanes), off[c+1]
		}
	}
	return lc, nil
}

// next reports whether x is the next entry of d's lane, and steps past it.
func (lc *laneCheck) next(d, x graph.VertexID) bool {
	if lc.cur[d] >= lc.end[d] || lc.idx[lc.cur[d]] != x {
		return false
	}
	lc.cur[d] += PullLanes
	return true
}

// padding checks, once every row has been replayed, that each entry past
// a lane's row is the sink, and that the pull is encoded as the encoder
// encodes its entries: each chunk of the kind the rule picks, a narrow
// chunk's steps past a row's end all 0.
func (lc *laneCheck) padding() error {
	s, laneSink := lc.s, graph.VertexID(len(lc.cur))
	for c := 0; c+1 < len(s.Chunk); c++ {
		for i, v := range s.Lanes(c) {
			e := s.Chunk[c] + int64(i)
			if v != laneSink {
				e = lc.cur[v]
			}
			for ; e < s.Chunk[c+1]; e += PullLanes {
				if lc.idx[e] != lc.sink {
					return fmt.Errorf("layout: %s pull entry %d past the row of lane %d of chunk %d holds %d, not the sink %d", lc.name, e, i, c, lc.idx[e], lc.sink)
				}
			}
		}
	}
	want := SELL{Chunk: s.Chunk}
	want.Encode(lc.idx, lc.sink, lc.narrow)
	for c := 0; c+1 < len(s.Chunk); c++ {
		if !slices.Equal(want.Enc[want.Off[c]:want.Off[c+1]], s.Enc[s.Off[c]:s.Off[c+1]]) {
			return fmt.Errorf("layout: %s pull chunk %d (narrow %v) is not encoded as the encoder encodes its rows (narrow %v)", lc.name, c, s.Narrow(c), want.Narrow(c))
		}
	}
	return nil
}

// PullStats describes one pull: its real entries (one per edge), its
// padding entries, the padding as a share of the real entries, the
// resident bytes of its arrays, the bytes of its encoded index stream, and
// the share of its entries, padding included, in narrow chunks.
type PullStats struct {
	Entries     int64   `json:"entries"`
	Padding     int64   `json:"padding"`
	PadShare    float64 `json:"padding_share"`
	Bytes       int64   `json:"bytes"`
	IndexBytes  int64   `json:"index_bytes"`
	NarrowShare float64 `json:"narrow_share"`
}

func (s *SELL) stats(edges int64) PullStats {
	st := PullStats{Entries: edges, Padding: s.Entries() - edges, Bytes: s.bytes(), IndexBytes: 2 * int64(len(s.Enc))}
	if edges > 0 {
		st.PadShare = float64(st.Padding) / float64(edges)
	}
	var narrow int64
	for c := 0; c+1 < len(s.Chunk); c++ {
		if s.Narrow(c) {
			narrow += s.Chunk[c+1] - s.Chunk[c]
		}
	}
	if all := s.Entries(); all > 0 {
		st.NarrowShare = float64(narrow) / float64(all)
	}
	return st
}

// IntraPullStats describes the intra pull; its padding entries add the
// sink's +0 because a lane's row is shorter than its chunk's longest.
func (l *Layout) IntraPullStats() PullStats { return l.IntraPull.stats(l.IntraEdges) }

// InterPullStats describes the inter pull.
func (l *Layout) InterPullStats() PullStats { return l.InterPull.stats(l.InterEdges) }

// BinBytes returns the total size of the message value bins (one 4-byte rank
// value per message), the memory the scatter phase writes and the gather
// phase reads each iteration. The compression win of §3.4 is the ratio of
// this number between compressed and uncompressed layouts.
func (l *Layout) BinBytes() int64 { return l.NumMessages() * 4 }

// Bytes returns the resident size of the layout's arrays: blocks, block
// indexes, message sources and both pulls, padding included.
func (l *Layout) Bytes() int64 {
	n := int64(cap(l.Blocks))*int64(unsafe.Sizeof(Block{})) +
		4*int64(cap(l.SrcBlockStart)+cap(l.SrcBlockEnd)+cap(l.MsgSrc)) +
		l.IntraPull.bytes() + l.InterPull.bytes() +
		int64(cap(l.DstBlocks))*int64(unsafe.Sizeof([]int32(nil)))
	for _, list := range l.DstBlocks {
		n += 4 * int64(cap(list))
	}
	return n
}
