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
// IntraInOff/IntraSrc is its transpose: each destination's intra
// in-neighbours in ascending source order. The dense scatters (the scalar
// kernel's and B-PPR's BlockSG) pull over it, summing a destination's
// sources in exactly the order the push would have added them, so the two
// directions give bit-identical float32 sums, and a pull over a vertex
// range can be split across threads without races.
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
	// The transposed intra CSR: the sources of v's intra-partition in-edges
	// are IntraSrc[IntraInOff[v]:IntraInOff[v+1]], ascending.
	IntraInOff []int64
	IntraSrc   []graph.VertexID

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
// and cursor matrices, a vertex's intra range in either direction (an intra
// edge's destination lies in its source's partition), a message inside one
// of p's blocks — is owned by exactly one source partition p, so rows can be
// processed concurrently with disjoint writes, and within a row the serial
// vertex order is preserved. Rows are split by edge weight so one hub
// partition cannot serialize the build. The layout is bit-identical at any
// worker count.
func BuildWorkers(g *graph.Graph, h *partition.Hierarchy, compress bool, workers int) (*Layout, error) {
	if err := checkVertices(g, h); err != nil {
		return nil, err
	}
	P := h.NumPartitions()
	l := newLayout(P, g.NumVertices(), compress)
	s := rowScan{per: h.VerticesPerPartition, off: g.OutOffsets(), adj: g.OutEdges(), compress: compress}

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
	// in-edges per vertex. The pair matrix is dense; partition counts stay
	// small at realistic partition sizes (P = |V|·4B / partitionBytes).
	msgCount := make([]int64, P*P)
	dstCount := make([]int64, P*P)
	intraPerRow := make([]int64, P)
	par.WeightedBlocks(w, partEdges, func(_, plo, phi int) {
		for p := plo; p < phi; p++ {
			vlo, vhi := rowRange(p)
			intraPerRow[p] = s.count(l, p, vlo, vhi, msgCount[p*P:(p+1)*P], dstCount[p*P:(p+1)*P])
		}
	})
	var intraTotal int64
	for _, c := range intraPerRow {
		intraTotal += c
	}
	l.placeBlocks(msgCount, dstCount, intraTotal, g.NumEdges())

	// Pass 2: fill messages, their destinations and both intra CSRs in one
	// row-parallel scan, through the per-block cursors placeBlocks left in
	// msgCount and dstCount and the per-destination cursors it left in
	// IntraInOff.
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

func newLayout(P, n int, compress bool) *Layout {
	return &Layout{
		NumPartitions: P,
		Compressed:    compress,
		SrcBlockStart: make([]int32, P),
		SrcBlockEnd:   make([]int32, P),
		DstBlocks:     make([][]int32, P),
		IntraOff:      make([]int64, n+1),
		IntraInOff:    make([]int64, n+1),
	}
}

// rowScan walks the out-adjacency rows of one source partition's vertices,
// grouping each inter-edge into a message: with compression, consecutive
// destinations of one vertex in the same destination partition share a
// message; without, every inter-edge is its own. An edge of source partition
// p is intra when its destination lies in p's range [p·per, (p+1)·per), one
// unsigned compare; only inter-edges pay a division, in 32 bits (vertex IDs
// stay below 2^31), for their destination partition.
type rowScan struct {
	per      int
	off      []int64
	adj      []graph.VertexID
	compress bool
}

// count adds source partition p's messages and destinations per destination
// partition q to msgs[q] and dsts[q] (p's row of the pair matrices), and each
// vertex v's intra out- and in-edges to l.IntraOff[v+1] and l.IntraInOff[v+1].
// It returns p's intra-edge total.
func (s rowScan) count(l *Layout, p, vlo, vhi int, msgs, dsts []int64) int64 {
	var intra int64
	outOff, inOff := l.IntraOff, l.IntraInOff
	lo, per := uint32(p*s.per), uint32(s.per)
	for v := vlo; v < vhi; v++ {
		lastQ := -1
		var out int64
		for _, d := range s.adj[s.off[v]:s.off[v+1]] {
			if uint32(d)-lo < per {
				inOff[d+1]++
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

// fill places source partition p's messages, their destinations and its
// intra edges. msgCur[q] and dstCur[q] start at block (p,q)'s first message
// and first destination index: inside a block, messages follow the scan's
// source order and each message's destinations are a contiguous run of its
// row, so one message cursor and one destination cursor per block place
// everything. The destination that opens a message is stored flagged. An
// intra edge (v,d) is also appended to d's pull row through the cursor
// l.IntraInOff[d+1]; sources arrive in ascending order, so each pull row
// ends up sorted, and the cursor ends at d's row end.
func (s rowScan) fill(l *Layout, p, vlo, vhi int, msgCur, dstCur []int64) {
	intraDst, inOff, intraSrc := l.IntraDst, l.IntraInOff, l.IntraSrc
	lo, per := uint32(p*s.per), uint32(s.per)
	for v := vlo; v < vhi; v++ {
		lastQ := -1
		intra := l.IntraOff[v]
		for _, d := range s.adj[s.off[v]:s.off[v+1]] {
			if uint32(d)-lo < per {
				intraDst[intra] = d
				intra++
				in := inOff[d+1]
				intraSrc[in] = graph.VertexID(v)
				inOff[d+1] = in + 1
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

// placeBlocks turns the per-vertex intra counts into the push CSR offsets,
// lays out the blocks in (p,q) order with global message and destination
// prefix sums, and allocates the message arrays. msgCount and dstCount
// become each (p,q) pair's first message and first destination index: the
// cursors of the fill pass. The in-edge counts become shifted offsets,
// IntraInOff[v+1] = the start of v's pull row, which the fill advances to
// the row's end; IntraInOff[0] stays 0.
func (l *Layout) placeBlocks(msgCount, dstCount []int64, intraTotal, edges int64) {
	P := l.NumPartitions
	l.IntraEdges = intraTotal
	l.InterEdges = edges - intraTotal
	var in int64
	for v := 0; v+1 < len(l.IntraOff); v++ {
		l.IntraOff[v+1] += l.IntraOff[v]
		c := l.IntraInOff[v+1]
		l.IntraInOff[v+1] = in
		in += c
	}
	l.IntraDst = make([]graph.VertexID, intraTotal)
	l.IntraSrc = make([]graph.VertexID, intraTotal)

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
	if err := l.validatePull(n); err != nil {
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

// validatePull checks that the pull CSR is exactly the transpose of the push
// CSR: replaying the push rows in source order visits every pull entry once,
// in place. The push rows are intra, so every pull row then holds sources of
// its own partition, in ascending order.
func (l *Layout) validatePull(n int) error {
	off, src := l.IntraInOff, l.IntraSrc
	if len(off) != n+1 || off[0] != 0 || off[n] != int64(len(src)) || int64(len(src)) != l.IntraEdges {
		return fmt.Errorf("layout: pull CSR of %d offsets and %d sources does not match %d vertices and %d intra edges", len(off), len(src), n, l.IntraEdges)
	}
	for d := 0; d < n; d++ {
		if off[d+1] < off[d] {
			return fmt.Errorf("layout: pull row of %d spans [%d,%d)", d, off[d], off[d+1])
		}
	}
	cur := slices.Clone(off[:n])
	for v := 0; v < n; v++ {
		for _, d := range l.IntraDst[l.IntraOff[v]:l.IntraOff[v+1]] {
			if cur[d] == off[d+1] || src[cur[d]] != graph.VertexID(v) {
				return fmt.Errorf("layout: pull row of %d does not hold intra edge (%d,%d) in source order", d, v, d)
			}
			cur[d]++
		}
	}
	for d := 0; d < n; d++ {
		if cur[d] != off[d+1] {
			return fmt.Errorf("layout: pull row of %d holds %d sources, push rows %d", d, off[d+1]-off[d], cur[d]-off[d])
		}
	}
	return nil
}

// BinBytes returns the total size of the message value bins (one 4-byte rank
// value per message), the memory the scatter phase writes and the gather
// phase reads each iteration. The compression win of §3.4 is the ratio of
// this number between compressed and uncompressed layouts.
func (l *Layout) BinBytes() int64 { return l.NumMessages() * 4 }

// Bytes returns the resident size of the layout's arrays: blocks, block
// indexes, message sources and destinations, and both intra CSRs.
func (l *Layout) Bytes() int64 {
	n := int64(cap(l.Blocks))*int64(unsafe.Sizeof(Block{})) +
		4*int64(cap(l.SrcBlockStart)+cap(l.SrcBlockEnd)+cap(l.MsgSrc)+cap(l.MsgDst)+cap(l.IntraDst)+cap(l.IntraSrc)) +
		8*int64(cap(l.IntraOff)+cap(l.IntraInOff)) +
		int64(cap(l.DstBlocks))*int64(unsafe.Sizeof([]int32(nil)))
	for _, list := range l.DstBlocks {
		n += 4 * int64(cap(list))
	}
	return n
}
