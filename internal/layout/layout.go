// Package layout builds the partition-centric data layout that HiPa and the
// p-PR baseline iterate over (paper §3.4, Fig. 4): intra-edges kept as a
// local CSR applied inside the owning core's cache, and inter-edges
// compressed into per-(source-partition, destination-partition) message
// blocks — all inter-edges that share a source vertex and a destination
// partition collapse into a single message carrying one rank value, decoded
// into its destination vertices locally during the gather phase.
//
// Messages are stored sorted by (source partition, destination partition,
// source vertex). The scatter phase of the owning thread therefore streams
// sequentially through its blocks while its random reads stay inside the
// cache-resident source partition; the gather phase of the destination
// thread streams sequentially through the blocks targeting its partitions.
//
// Intra-edges are stored twice. IntraOff/IntraDst is the paper's push CSR,
// source-ordered, which the sparse consumers (Delta-PR's frontier, the
// framework programs, SpMV, the cost model and the exact simulator) walk.
// The dense scatters (the scalar kernel's and B-PPR's BlockSG) pull instead,
// over a sliced ELLPACK of each partition's intra in-edges (SELL-C-σ with
// C = PullLanes and σ = the whole partition, Kreutzer et al.): the
// partition's vertices are sorted by intra in-degree, descending and stable
// by ID, and cut into chunks of PullLanes rows. A chunk is stored
// column-major, so one step through it reads one source for each of its
// rows, and every row lists its sources in ascending order, padded up to
// the chunk's longest row with the sink index n. A kernel keeps one running
// sum per lane: PullLanes independent add chains and no per-row loop exit.
// Each row still adds its sources in exactly the order the push would have,
// starting from +0; the padding adds the +0 contribution engines keep at
// index n, which leaves a sum that is never −0 unchanged. So the pull's
// float32 sums are bit-identical to the push's, and any set of chunks can
// run on a different thread without races.
//
// A message's destinations are not delimited by offsets: each block's
// destinations are one contiguous run of MsgDst, and the first destination
// of every message carries the FirstDst bit (PCPM's encoding). The gather
// decodes a block as one flat stream, stepping to the next message's value
// at each flagged entry, so it has no per-message loop exit to mispredict.
// The flag bit limits layouts to graphs of fewer than 2^31 vertices.
//
// The same structure with compression disabled (one message per inter-edge)
// serves as the ablation baseline for the compression optimisation.
package layout

import (
	"fmt"
	"slices"
	"unsafe"

	"hipa/internal/graph"
	"hipa/internal/par"
	"hipa/internal/partition"
)

// FirstDst marks the first destination of each message in MsgDst. The
// vertex ID is the entry with the bit cleared (d &^ FirstDst).
const FirstDst graph.VertexID = 1 << 31

// PullLanes is the number of rows interleaved in one chunk of the intra
// pull.
const PullLanes = 8

// maxVertices bounds a layout's vertex count: every vertex ID must leave the
// FirstDst bit clear.
const maxVertices = int(FirstDst)

// Block is one (source partition → destination partition) run of messages.
type Block struct {
	SrcPart, DstPart int32
	// MsgStart/MsgEnd delimit the block's messages in MsgSrc (and in an
	// engine's per-message value bins).
	MsgStart, MsgEnd int64
	// DstStart/DstEnd delimit the block's destinations in MsgDst: its
	// messages' destination runs back to back, each opened by a flagged
	// entry.
	DstStart, DstEnd int64
}

// Messages returns the number of compressed messages in the block.
func (b Block) Messages() int64 { return b.MsgEnd - b.MsgStart }

// Dsts returns the number of message destinations (inter-edges) in the
// block.
func (b Block) Dsts() int64 { return b.DstEnd - b.DstStart }

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

	// MsgSrc[i] is message i's source vertex. MsgDst holds every message's
	// destination vertices in message order; the first destination of each
	// message carries FirstDst, so message i of block b owns the run from
	// its flagged entry up to the next flagged entry or b.DstEnd.
	MsgSrc []graph.VertexID
	MsgDst []graph.VertexID

	// Intra-edge CSR over all vertices: destinations of v's intra-partition
	// edges are IntraDst[IntraOff[v]:IntraOff[v+1]].
	IntraOff []int64
	IntraDst []graph.VertexID
	// The intra pull, sliced ELLPACK per partition. Partition p's chunks
	// are [PullPart[p], PullPart[p+1]), ceil(|p|/PullLanes) of them.
	// PullPerm[c·PullLanes+i] is the vertex of lane i of chunk c, or n for
	// a padding lane; padding lanes only trail a partition's last chunk.
	// Chunk c's entries are PullIdx[PullChunk[c]:PullChunk[c+1]],
	// column-major: entry k of lane i is PullIdx[PullChunk[c]+k·PullLanes+i].
	// A lane holds its vertex's intra in-neighbours in ascending order, then
	// n up to the chunk's width, the in-degree of its first lane.
	PullPart  []int32
	PullChunk []int64
	PullPerm  []graph.VertexID
	PullIdx   []graph.VertexID

	// Totals for reporting and the analytic model.
	IntraEdges int64
	InterEdges int64
}

// NumMessages returns the total compressed message count.
func (l *Layout) NumMessages() int64 { return int64(len(l.MsgSrc)) }

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
// and cursor matrices, a vertex's push row and pull lane (an intra edge's
// destination lies in its source's partition), p's pull chunks, a message
// inside one of p's blocks — is owned by exactly one source partition p, so
// rows can be processed concurrently with disjoint writes, and within a row
// the serial vertex order is preserved. Rows are split by edge weight so one
// hub partition cannot serialize the build. The layout is bit-identical at
// any worker count.
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
	// rowRange returns the vertex range of source partition p.
	rowRange := func(p int) (int, int) {
		return int(h.Partitions[p].VertexStart), int(h.Partitions[p].VertexEnd)
	}

	// Pass 1: count messages and destinations per (p,q), and intra out- and
	// in-edges per vertex, then order each partition's pull rows. The pair
	// matrix is dense; partition counts stay small at realistic partition
	// sizes (P = |V|·4B / partitionBytes).
	msgCount := make([]int64, P*P)
	dstCount := make([]int64, P*P)
	intraPerRow := make([]int64, P)
	par.WeightedBlocks(w, partEdges, func(_, plo, phi int) {
		var hist []int64
		for p := plo; p < phi; p++ {
			vlo, vhi := rowRange(p)
			intraPerRow[p] = s.count(l, p, vlo, vhi, msgCount[p*P:(p+1)*P], dstCount[p*P:(p+1)*P])
			hist = s.sortPull(l, p, vlo, vhi, hist)
		}
	})
	var intraTotal int64
	for _, c := range intraPerRow {
		intraTotal += c
	}
	l.placeBlocks(msgCount, dstCount, intraTotal, g.NumEdges())

	// Pass 2: fill messages, their destinations and both intra directions
	// in one row-parallel scan, through the per-block cursors placeBlocks
	// left in msgCount and dstCount and the per-destination lane cursors
	// fill derives from the pull chunks.
	par.WeightedBlocks(w, partEdges, func(_, plo, phi int) {
		for p := plo; p < phi; p++ {
			vlo, vhi := rowRange(p)
			s.fill(l, p, vlo, vhi, msgCount[p*P:(p+1)*P], dstCount[p*P:(p+1)*P])
		}
	})
	return l, nil
}

// checkVertices rejects a graph that does not match its hierarchy or whose
// vertex IDs would collide with the FirstDst flag.
func checkVertices(g *graph.Graph, h *partition.Hierarchy) error {
	if h.NumVertices >= maxVertices {
		return fmt.Errorf("layout: %d vertices; the message encoding holds fewer than 2^31", h.NumVertices)
	}
	if g.NumVertices() != h.NumVertices {
		return fmt.Errorf("layout: graph has %d vertices, hierarchy %d", g.NumVertices(), h.NumVertices)
	}
	return nil
}

// newLayout allocates the per-partition and per-vertex arrays, whose sizes
// follow from h alone: the push offsets, and the pull's chunk ranges,
// chunk offsets and lane permutation.
func newLayout(h *partition.Hierarchy, compress bool) *Layout {
	P := h.NumPartitions()
	l := &Layout{
		NumPartitions: P,
		Compressed:    compress,
		SrcBlockStart: make([]int32, P),
		SrcBlockEnd:   make([]int32, P),
		DstBlocks:     make([][]int32, P),
		IntraOff:      make([]int64, h.NumVertices+1),
		PullPart:      make([]int32, P+1),
	}
	for p, part := range h.Partitions {
		l.PullPart[p+1] = l.PullPart[p] + int32((part.Vertices()+PullLanes-1)/PullLanes)
	}
	chunks := int(l.PullPart[P])
	l.PullChunk = make([]int64, chunks+1)
	l.PullPerm = make([]graph.VertexID, chunks*PullLanes)
	return l
}

// rowScan walks the out-adjacency rows of one source partition's vertices,
// grouping each inter-edge into a message: with compression, consecutive
// destinations of one vertex in the same destination partition share a
// message; without, every inter-edge is its own. An edge of source partition
// p is intra when its destination lies in p's range [p·per, (p+1)·per), one
// unsigned compare; only inter-edges pay a division, in 32 bits (vertex IDs
// stay below 2^31), for their destination partition.
//
// pull[v] is v's intra in-degree after count, and v's next entry in its
// pull lane during fill; sink (the vertex count) pads the pull.
type rowScan struct {
	per      int
	off      []int64
	adj      []graph.VertexID
	compress bool
	pull     []int64
	sink     graph.VertexID
}

func newRowScan(g *graph.Graph, h *partition.Hierarchy, compress bool) rowScan {
	n := g.NumVertices()
	return rowScan{per: h.VerticesPerPartition, off: g.OutOffsets(), adj: g.OutEdges(), compress: compress,
		pull: make([]int64, n), sink: graph.VertexID(n)}
}

// count adds source partition p's messages and destinations per destination
// partition q to msgs[q] and dsts[q] (p's row of the pair matrices), each
// vertex v's intra out-edges to l.IntraOff[v+1] and its intra in-edges to
// s.pull[v]. It returns p's intra-edge total.
func (s rowScan) count(l *Layout, p, vlo, vhi int, msgs, dsts []int64) int64 {
	var intra int64
	outOff, in := l.IntraOff, s.pull
	lo, per := uint32(p*s.per), uint32(s.per)
	for v := vlo; v < vhi; v++ {
		lastQ := -1
		var out int64
		for _, d := range s.adj[s.off[v]:s.off[v+1]] {
			if uint32(d)-lo < per {
				in[d]++
				out++
				continue
			}
			q := int(uint32(d) / per)
			dsts[q]++
			if !s.compress || q != lastQ {
				msgs[q]++
				lastQ = q
			}
		}
		outOff[v+1] = out
		intra += out
	}
	return intra
}

// sortPull orders partition p's vertices [vlo,vhi) into its pull lanes by
// intra in-degree, descending and stable by ID — a counting sort over the
// degrees count left in s.pull, with hist as its reusable scratch (returned
// for the next call). The slots past the last vertex are padding lanes. Each
// chunk's entry count, PullLanes times its first (longest) lane's degree,
// goes to PullChunk[c+1] for placeBlocks' prefix sum.
func (s rowScan) sortPull(l *Layout, p, vlo, vhi int, hist []int64) []int64 {
	deg := s.pull[vlo:vhi]
	var top int64
	for _, d := range deg {
		top = max(top, d)
	}
	hist = slices.Grow(hist[:0], int(top)+1)[:top+1]
	clear(hist)
	for _, d := range deg {
		hist[d]++
	}
	// hist[d] becomes the first slot of degree d, the highest degree first.
	var slot int64
	for d := top; d >= 0; d-- {
		c := hist[d]
		hist[d] = slot
		slot += c
	}
	clo, chi := int(l.PullPart[p]), int(l.PullPart[p+1])
	perm := l.PullPerm[clo*PullLanes : chi*PullLanes]
	for i, d := range deg {
		perm[hist[d]] = graph.VertexID(vlo + i)
		hist[d]++
	}
	for i := len(deg); i < len(perm); i++ {
		perm[i] = s.sink
	}
	for c := clo; c < chi; c++ {
		l.PullChunk[c+1] = PullLanes * s.pull[perm[(c-clo)*PullLanes]]
	}
	return hist
}

// fill places source partition p's messages, their destinations and its
// intra edges. msgCur[q] and dstCur[q] start at block (p,q)'s first message
// and first destination index: inside a block, messages follow the scan's
// source order and each message's destinations are a contiguous run of its
// row, so one message cursor and one destination cursor per block place
// everything. The destination that opens a message is stored flagged. An
// intra edge (v,d) is also appended to d's pull lane through the cursor
// s.pull[d], which steps by PullLanes; sources arrive in ascending order,
// so each lane ends up sorted.
func (s rowScan) fill(l *Layout, p, vlo, vhi int, msgCur, dstCur []int64) {
	s.padPull(l, p)
	intraDst, cur, pullIdx := l.IntraDst, s.pull, l.PullIdx
	lo, per := uint32(p*s.per), uint32(s.per)
	for v := vlo; v < vhi; v++ {
		lastQ := -1
		intra := l.IntraOff[v]
		for _, d := range s.adj[s.off[v]:s.off[v+1]] {
			if uint32(d)-lo < per {
				intraDst[intra] = d
				intra++
				pullIdx[cur[d]] = graph.VertexID(v)
				cur[d] += PullLanes
				continue
			}
			q := int(uint32(d) / per)
			if !s.compress || q != lastQ {
				m := msgCur[q]
				msgCur[q]++
				l.MsgSrc[m] = graph.VertexID(v)
				d |= FirstDst
				lastQ = q
			}
			l.MsgDst[dstCur[q]] = d
			dstCur[q]++
		}
	}
}

// padPull turns the in-degree of each vertex of partition p into its lane
// cursor, the lane's first entry, and writes the sink into every entry of
// p's chunks past the end of its lane's row.
func (s rowScan) padPull(l *Layout, p int) {
	for c := int(l.PullPart[p]); c < int(l.PullPart[p+1]); c++ {
		end := l.PullChunk[c+1]
		for i, v := range l.PullPerm[c*PullLanes : (c+1)*PullLanes] {
			e := l.PullChunk[c] + int64(i)
			if v != s.sink {
				deg := s.pull[v]
				s.pull[v] = e
				e += PullLanes * deg
			}
			for ; e < end; e += PullLanes {
				l.PullIdx[e] = s.sink
			}
		}
	}
}

// placeBlocks turns the per-vertex intra counts into the push CSR offsets
// and the per-chunk entry counts into the pull's chunk offsets, lays out the
// blocks in (p,q) order with global message and destination prefix sums,
// and allocates the edge arrays. msgCount and dstCount become each (p,q)
// pair's first message and first destination index: the cursors of the
// fill pass.
func (l *Layout) placeBlocks(msgCount, dstCount []int64, intraTotal, edges int64) {
	P := l.NumPartitions
	l.IntraEdges = intraTotal
	l.InterEdges = edges - intraTotal
	for v := 0; v+1 < len(l.IntraOff); v++ {
		l.IntraOff[v+1] += l.IntraOff[v]
	}
	for c := 0; c+1 < len(l.PullChunk); c++ {
		l.PullChunk[c+1] += l.PullChunk[c]
	}
	l.IntraDst = make([]graph.VertexID, intraTotal)
	l.PullIdx = make([]graph.VertexID, l.PullChunk[len(l.PullChunk)-1])

	var totalMsgs, totalDsts int64
	for p := 0; p < P; p++ {
		l.SrcBlockStart[p] = int32(len(l.Blocks))
		for q := 0; q < P; q++ {
			idx := p*P + q
			mc, dc := msgCount[idx], dstCount[idx]
			msgCount[idx], dstCount[idx] = totalMsgs, totalDsts
			if mc == 0 {
				continue
			}
			bi := int32(len(l.Blocks))
			l.Blocks = append(l.Blocks, Block{
				SrcPart: int32(p), DstPart: int32(q),
				MsgStart: totalMsgs, MsgEnd: totalMsgs + mc,
				DstStart: totalDsts, DstEnd: totalDsts + dc,
			})
			l.DstBlocks[q] = append(l.DstBlocks[q], bi)
			totalMsgs += mc
			totalDsts += dc
		}
		l.SrcBlockEnd[p] = int32(len(l.Blocks))
	}
	l.MsgSrc = make([]graph.VertexID, totalMsgs)
	l.MsgDst = make([]graph.VertexID, totalDsts)
}

// Validate checks structural invariants; used by tests. Per block it checks
// what the flat gather decode relies on: the blocks' destination ranges tile
// MsgDst, the first destination is flagged and the flags count the block's
// messages, so the decode's message index stays inside the block's bins.
func (l *Layout) Validate(g *graph.Graph, h *partition.Hierarchy) error {
	per := h.VerticesPerPartition
	var dstCur int64
	for _, b := range l.Blocks {
		if b.SrcPart == b.DstPart {
			return fmt.Errorf("layout: block %d->%d is intra", b.SrcPart, b.DstPart)
		}
		for m := b.MsgStart; m < b.MsgEnd; m++ {
			if int(l.MsgSrc[m])/per != int(b.SrcPart) {
				return fmt.Errorf("layout: message %d source %d outside partition %d", m, l.MsgSrc[m], b.SrcPart)
			}
		}
		if b.DstStart != dstCur || b.DstEnd < b.DstStart || b.DstEnd > int64(len(l.MsgDst)) {
			return fmt.Errorf("layout: block %d->%d destinations [%d,%d) do not follow %d", b.SrcPart, b.DstPart, b.DstStart, b.DstEnd, dstCur)
		}
		dstCur = b.DstEnd
		dst := l.MsgDst[b.DstStart:b.DstEnd]
		if len(dst) == 0 || dst[0]&FirstDst == 0 {
			return fmt.Errorf("layout: block %d->%d does not open with a flagged destination", b.SrcPart, b.DstPart)
		}
		var flags int64
		for _, d := range dst {
			flags += int64(d >> 31)
			if v := d &^ FirstDst; int(v)/per != int(b.DstPart) {
				return fmt.Errorf("layout: block %d->%d destination %d outside partition %d", b.SrcPart, b.DstPart, v, b.DstPart)
			}
		}
		if flags != b.Messages() {
			return fmt.Errorf("layout: block %d->%d has %d flagged destinations for %d messages", b.SrcPart, b.DstPart, flags, b.Messages())
		}
	}
	if dstCur != int64(len(l.MsgDst)) {
		return fmt.Errorf("layout: blocks cover %d of %d message destinations", dstCur, len(l.MsgDst))
	}
	// Intra edges stay within the source's partition.
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		for _, d := range l.IntraDst[l.IntraOff[v]:l.IntraOff[v+1]] {
			if int(d)/per != v/per {
				return fmt.Errorf("layout: intra edge (%d,%d) crosses partitions", v, d)
			}
		}
	}
	if err := l.validatePull(h, n); err != nil {
		return err
	}
	// Edge conservation.
	if int64(len(l.MsgDst)) != l.InterEdges {
		return fmt.Errorf("layout: %d message destinations, want %d inter-edges", len(l.MsgDst), l.InterEdges)
	}
	if l.IntraEdges+l.InterEdges != g.NumEdges() {
		return fmt.Errorf("layout: intra %d + inter %d != edges %d", l.IntraEdges, l.InterEdges, g.NumEdges())
	}
	if !l.Compressed && l.NumMessages() != l.InterEdges {
		return fmt.Errorf("layout: uncompressed layout must have one message per inter-edge")
	}
	return nil
}

// validatePull checks the pull against the push CSR, which is everything
// the pull kernels rely on. Each partition's lane slots hold each of its
// vertices once, then only padding lanes (the sink n). The chunk offsets
// tile PullIdx in whole steps of PullLanes entries. Replaying the push rows
// in source order visits every lane's entries in place, and each entry
// past the end of a lane's row is the sink.
func (l *Layout) validatePull(h *partition.Hierarchy, n int) error {
	P := l.NumPartitions
	if len(l.PullPart) != P+1 || l.PullPart[0] != 0 {
		return fmt.Errorf("layout: %d pull chunk ranges for %d partitions", len(l.PullPart)-1, P)
	}
	for p, part := range h.Partitions {
		if got, want := l.PullPart[p+1]-l.PullPart[p], (part.Vertices()+PullLanes-1)/PullLanes; int(got) != want {
			return fmt.Errorf("layout: partition %d has %d pull chunks, want %d", p, got, want)
		}
	}
	chunks := int(l.PullPart[P])
	off := l.PullChunk
	if len(off) != chunks+1 || len(l.PullPerm) != chunks*PullLanes || off[0] != 0 || off[chunks] != int64(len(l.PullIdx)) {
		return fmt.Errorf("layout: %d pull chunk offsets and %d lanes do not tile %d chunks of %d entries", len(off), len(l.PullPerm), chunks, len(l.PullIdx))
	}
	for c := 0; c < chunks; c++ {
		if w := off[c+1] - off[c]; w < 0 || w%PullLanes != 0 {
			return fmt.Errorf("layout: pull chunk %d spans %d entries, not whole steps of %d", c, w, PullLanes)
		}
	}
	sink := graph.VertexID(n)
	// cur[v] is the next entry of v's lane, end[v] its chunk's end.
	cur, end := make([]int64, n), make([]int64, n)
	for i := range cur {
		cur[i] = -1
	}
	for p, part := range h.Partitions {
		clo, chi := int(l.PullPart[p]), int(l.PullPart[p+1])
		for i, v := range l.PullPerm[clo*PullLanes : chi*PullLanes] {
			if i >= part.Vertices() {
				if v != sink {
					return fmt.Errorf("layout: padding lane %d of partition %d holds %d, not the sink %d", i, p, v, sink)
				}
				continue
			}
			if v < part.VertexStart || v >= part.VertexEnd || cur[v] >= 0 {
				return fmt.Errorf("layout: lane %d of partition %d holds %d: the lanes are not a permutation of [%d,%d)", i, p, v, part.VertexStart, part.VertexEnd)
			}
			c := clo + i/PullLanes
			cur[v], end[v] = off[c]+int64(i%PullLanes), off[c+1]
		}
	}
	for v := 0; v < n; v++ {
		for _, d := range l.IntraDst[l.IntraOff[v]:l.IntraOff[v+1]] {
			if cur[d] >= end[d] || l.PullIdx[cur[d]] != graph.VertexID(v) {
				return fmt.Errorf("layout: pull lane of %d does not hold intra edge (%d,%d) in source order", d, v, d)
			}
			cur[d] += PullLanes
		}
	}
	for c := 0; c < chunks; c++ {
		for i, v := range l.PullPerm[c*PullLanes : (c+1)*PullLanes] {
			e := off[c] + int64(i)
			if v != sink {
				e = cur[v]
			}
			for ; e < off[c+1]; e += PullLanes {
				if l.PullIdx[e] != sink {
					return fmt.Errorf("layout: pull entry %d past the row of lane %d of chunk %d holds %d, not the sink %d", e, i, c, l.PullIdx[e], sink)
				}
			}
		}
	}
	return nil
}

// PullPadding returns the number of padding entries in the intra pull:
// the entries that add the sink's +0 because a lane's row is shorter than
// its chunk's longest.
func (l *Layout) PullPadding() int64 { return int64(len(l.PullIdx)) - l.IntraEdges }

// BinBytes returns the total size of the message value bins (one 4-byte rank
// value per message), the memory the scatter phase writes and the gather
// phase reads each iteration. The compression win of §3.4 is the ratio of
// this number between compressed and uncompressed layouts.
func (l *Layout) BinBytes() int64 { return l.NumMessages() * 4 }

// Bytes returns the resident size of the layout's arrays: blocks, block
// indexes, message sources and destinations, the intra push CSR and the
// intra pull, padding included.
func (l *Layout) Bytes() int64 {
	n := int64(cap(l.Blocks))*int64(unsafe.Sizeof(Block{})) +
		4*int64(cap(l.SrcBlockStart)+cap(l.SrcBlockEnd)+cap(l.MsgSrc)+cap(l.MsgDst)+cap(l.IntraDst)) +
		4*int64(cap(l.PullPart)+cap(l.PullPerm)+cap(l.PullIdx)) +
		8*int64(cap(l.IntraOff)+cap(l.PullChunk)) +
		int64(cap(l.DstBlocks))*int64(unsafe.Sizeof([]int32(nil)))
	for _, list := range l.DstBlocks {
		n += 4 * int64(cap(list))
	}
	return n
}
