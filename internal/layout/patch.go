package layout

import (
	"fmt"
	"slices"
	"sort"

	"hipa/internal/graph"
	"hipa/internal/partition"
)

// Patch rebuilds the layout for g under h by recomputing only the touched
// source partitions' rows and splicing everything else out of the old
// layout. The result is bit-identical to BuildWorkers(g, h, old.Compressed,
// ·): every message, destination, and intra edge (push row and pull chunk)
// of an untouched source partition is copied verbatim (the message flags
// travel with the destinations and the pull lanes hold vertex IDs, so
// nothing is rebased but the partition's pull chunk offsets, which move by
// one constant), and only the touched partitions' edges are re-scanned and
// re-grouped — the incremental-prep path behind common.Prepared.Advance.
//
// h must share the old hierarchy's partition geometry (same vertex ranges;
// mutation batches never change it), touched must list the source-partition
// IDs whose vertices' out-adjacency changed, sorted ascending. Partitions
// whose rows merely read differently because a *destination* moved do not
// exist — a mutation (u,v) only changes u's row — so touched is exactly the
// partitions containing mutated sources.
//
// The patch is serial: its cost is the touched partitions' edge scans plus
// a linear splice of the untouched data, and a serial pass is trivially
// deterministic. (Build's parallelism exists for the cold O(E) scan; the
// splice is memcpy-bound.)
func Patch(old *Layout, g *graph.Graph, h *partition.Hierarchy, touched []int) (*Layout, error) {
	if err := checkVertices(g, h); err != nil {
		return nil, err
	}
	P := h.NumPartitions()
	if old.NumPartitions != P {
		return nil, fmt.Errorf("layout: patch hierarchy has %d partitions, old layout %d", P, old.NumPartitions)
	}
	if !sort.IntsAreSorted(touched) {
		return nil, fmt.Errorf("layout: touched partitions must be sorted")
	}
	isTouched := make([]bool, P)
	for _, p := range touched {
		if p < 0 || p >= P {
			return nil, fmt.Errorf("layout: touched partition %d out of range [0,%d)", p, P)
		}
		isTouched[p] = true
	}
	compress := old.Compressed
	l := newLayout(h, compress)
	if !slices.Equal(l.PullPart, old.PullPart) {
		return nil, fmt.Errorf("layout: patch hierarchy's partition sizes differ from the old layout's")
	}
	s := newRowScan(g, h, compress)
	rowRange := func(p int) (int, int) {
		return int(h.Partitions[p].VertexStart), int(h.Partitions[p].VertexEnd)
	}

	// Pass 1: per-(p,q) message/destination counts, per-vertex intra
	// counts and the pull lanes and chunk sizes. Touched partitions re-scan
	// their adjacency rows exactly like Build; untouched partitions read
	// their counts off the old layout and keep their lanes.
	msgCount := make([]int64, P*P)
	dstCount := make([]int64, P*P)
	var intraTotal int64
	var hist []int64
	for p := 0; p < P; p++ {
		vlo, vhi := rowRange(p)
		if isTouched[p] {
			intraTotal += s.count(l, p, vlo, vhi, msgCount[p*P:(p+1)*P], dstCount[p*P:(p+1)*P])
			hist = s.sortPull(l, p, vlo, vhi, hist)
			continue
		}
		for bi := old.SrcBlockStart[p]; bi < old.SrcBlockEnd[p]; bi++ {
			b := old.Blocks[bi]
			idx := p*P + int(b.DstPart)
			msgCount[idx] = b.Messages()
			dstCount[idx] = b.Dsts()
		}
		for v := vlo; v < vhi; v++ {
			c := old.IntraOff[v+1] - old.IntraOff[v]
			l.IntraOff[v+1] = c
			intraTotal += c
		}
		clo, chi := int(l.PullPart[p]), int(l.PullPart[p+1])
		copy(l.PullPerm[clo*PullLanes:chi*PullLanes], old.PullPerm[clo*PullLanes:chi*PullLanes])
		for c := clo; c < chi; c++ {
			l.PullChunk[c+1] = old.PullChunk[c+1] - old.PullChunk[c]
		}
	}
	l.placeBlocks(msgCount, dstCount, intraTotal, g.NumEdges())

	// Pass 2: touched partitions fill exactly like Build; untouched ones
	// splice their blocks and intra edges out of the old layout, keeping the
	// per-block message and destination order.
	for p := 0; p < P; p++ {
		vlo, vhi := rowRange(p)
		msgCur, dstCur := msgCount[p*P:(p+1)*P], dstCount[p*P:(p+1)*P]
		if isTouched[p] {
			s.fill(l, p, vlo, vhi, msgCur, dstCur)
			continue
		}
		// An untouched partition's push rows and pull chunks are each one
		// contiguous run; its chunk offsets moved by one constant, which
		// placeBlocks' prefix sum over the copied chunk sizes applied.
		copy(l.IntraDst[l.IntraOff[vlo]:l.IntraOff[vhi]],
			old.IntraDst[old.IntraOff[vlo]:old.IntraOff[vhi]])
		clo, chi := l.PullPart[p], l.PullPart[p+1]
		copy(l.PullIdx[l.PullChunk[clo]:l.PullChunk[chi]], old.PullIdx[old.PullChunk[clo]:old.PullChunk[chi]])
		for bi := old.SrcBlockStart[p]; bi < old.SrcBlockEnd[p]; bi++ {
			ob := old.Blocks[bi]
			copy(l.MsgSrc[msgCur[ob.DstPart]:], old.MsgSrc[ob.MsgStart:ob.MsgEnd])
			copy(l.MsgDst[dstCur[ob.DstPart]:], old.MsgDst[ob.DstStart:ob.DstEnd])
		}
	}
	return l, nil
}
