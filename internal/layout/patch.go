package layout

import (
	"fmt"
	"slices"
	"sort"

	"hipa/internal/graph"
	"hipa/internal/partition"
)

// Patch rebuilds the layout for g under h by recounting only the touched
// source partitions' rows and splicing their intra edges out of the old
// layout. The result is bit-identical to BuildWorkers(g, h, old.Compressed,
// ·): every intra edge (intra pull chunk) of an untouched source partition
// is copied verbatim, encoded (the intra pull lanes hold vertex IDs, so
// nothing is rebased but the partition's chunk and encoding offsets, which
// each move by one constant), and the messages and the inter pull are rebuilt from
// the rows exactly as Build builds them — the incremental-prep path behind
// common.Prepared.Advance. The inter-edges are rebuilt whole: a touched
// source partition renumbers every later message, and the inter pull's
// lanes live in the destination partitions.
//
// h must share the old hierarchy's partition geometry (same vertex ranges;
// mutation batches never change it), touched must list the source-partition
// IDs whose vertices' out-adjacency changed, sorted ascending. Partitions
// whose rows merely read differently because a *destination* moved do not
// exist — a mutation (u,v) only changes u's row — so touched is exactly the
// partitions containing mutated sources.
//
// The patch is serial: its cost is the touched partitions' edge counts, one
// scan of every row for the messages, a linear splice of the untouched
// intra edges and the inter pull build, and a serial pass is trivially
// deterministic.
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
	if !slices.Equal(l.IntraPull.Part, old.IntraPull.Part) {
		return nil, fmt.Errorf("layout: patch hierarchy's partition sizes differ from the old layout's")
	}
	s := newRowScan(g, h, compress)
	pull, oldPull := &l.IntraPull, &old.IntraPull

	// Pass 1: per-(p,q) message/destination counts, intra-edge counts
	// and the intra pull lanes and chunk sizes. Touched partitions
	// re-scan their adjacency rows exactly like Build; untouched partitions
	// read their counts off the old layout and keep their lanes.
	msgCount := make([]int64, P*P)
	dstCount := make([]int64, P*P)
	var hist []int64
	for p := 0; p < P; p++ {
		vlo, vhi := s.rowRange(p)
		if isTouched[p] {
			s.count(p, vlo, vhi, msgCount[p*P:(p+1)*P], dstCount[p*P:(p+1)*P])
			hist = pull.sortLanes(p, vlo, s.deg[vlo:vhi], s.sink, hist)
			continue
		}
		for bi := old.SrcBlockStart[p]; bi < old.SrcBlockEnd[p]; bi++ {
			b := old.Blocks[bi]
			idx := p*P + int(b.DstPart)
			msgCount[idx] = b.Messages()
			dstCount[idx] = b.Edges
		}
		clo, chi := int(pull.Part[p]), int(pull.Part[p+1])
		copy(pull.Perm[clo*PullLanes:chi*PullLanes], oldPull.Perm[clo*PullLanes:chi*PullLanes])
		for c := clo; c < chi; c++ {
			pull.Chunk[c+1] = oldPull.Chunk[c+1] - oldPull.Chunk[c]
		}
	}
	push, err := l.placeBlocks(msgCount, dstCount, g.NumEdges())
	if err != nil {
		return nil, err
	}

	// Pass 2: touched partitions fill and encode exactly like Build;
	// untouched ones splice their encoded intra pull chunks out of the old
	// layout and re-scan their rows for the messages and their destination
	// runs alone, which the inter pull rebuild reads.
	for p := 0; p < P; p++ {
		vlo, vhi := s.rowRange(p)
		s.fill(l, p, vlo, vhi, msgCount[p*P:(p+1)*P], dstCount[p*P:(p+1)*P], push, isTouched[p])
		if isTouched[p] {
			continue
		}
		// A chunk's encoding depends on its entries alone, vertex IDs
		// that did not move, so an untouched partition's chunks are copied
		// as they are.
		clo, chi := pull.Part[p], pull.Part[p+1]
		copy(pull.Enc[pull.Off[clo]:pull.Off[chi]], oldPull.Enc[oldPull.Off[clo]:oldPull.Off[chi]])
	}
	s.pullInter(l, push, 1)
	return l, nil
}
