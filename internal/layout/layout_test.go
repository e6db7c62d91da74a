package layout

import (
	"maps"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"hipa/internal/gen"
	"hipa/internal/graph"
	"hipa/internal/partition"
)

func buildHierarchy(t testing.TB, g *graph.Graph, partBytes int) *partition.Hierarchy {
	t.Helper()
	h, err := partition.Build(g, partition.Config{
		PartitionBytes: partBytes, BytesPerVertex: 4, NumNodes: 2, GroupsPerNode: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestFig4Compression(t *testing.T) {
	// Paper Fig. 4: edges (v1,v2) intra; (v1,v6) and (v1,v7) inter to the
	// same partition compress into one message with two destinations.
	// Partitions of 4 vertices: p0 = {0..3}, p1 = {4..7}.
	b := graph.NewBuilder(8)
	b.AddEdges([]graph.Edge{
		{Src: 1, Dst: 2}, // intra
		{Src: 1, Dst: 6}, // inter -> p1
		{Src: 1, Dst: 7}, // inter -> p1 (same message)
	})
	g := b.Build()
	h := buildHierarchy(t, g, 16)
	l, err := Build(g, h, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(g, h); err != nil {
		t.Fatal(err)
	}
	if l.IntraEdges != 1 || l.InterEdges != 2 {
		t.Fatalf("intra=%d inter=%d", l.IntraEdges, l.InterEdges)
	}
	if l.NumMessages() != 1 {
		t.Fatalf("NumMessages = %d, want 1 (compressed)", l.NumMessages())
	}
	if l.MsgSrc[0] != 1 {
		t.Errorf("message source = %d, want 1", l.MsgSrc[0])
	}
	if got, want := decodeBlocks(l, g.NumVertices()), [][2]graph.VertexID{{1, 6}, {1, 7}}; !slices.Equal(got, want) {
		t.Errorf("decoded (source, destination) pairs = %v, want %v", got, want)
	}
	if got := pullRows(l.InterPull, g.NumVertices(), 1); !slices.Equal(got[6], []graph.VertexID{0}) || !slices.Equal(got[7], []graph.VertexID{0}) {
		t.Errorf("inter pull rows of 6 and 7 = %v, %v, want both to hold message 0", got[6], got[7])
	}

	// Uncompressed: two messages.
	lu, err := Build(g, h, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := lu.Validate(g, h); err != nil {
		t.Fatal(err)
	}
	if lu.NumMessages() != 2 {
		t.Fatalf("uncompressed NumMessages = %d, want 2", lu.NumMessages())
	}
	if got := pullRows(lu.InterPull, g.NumVertices(), 2); !slices.Equal(got[6], []graph.VertexID{0}) || !slices.Equal(got[7], []graph.VertexID{1}) {
		t.Errorf("uncompressed inter pull rows of 6 and 7 = %v, %v, want messages 0 and 1", got[6], got[7])
	}
	if lu.BinBytes() != 8 || l.BinBytes() != 4 {
		t.Errorf("BinBytes: compressed %d, uncompressed %d", l.BinBytes(), lu.BinBytes())
	}
}

func TestBlocksOrderingAndIndexes(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Vertices: 256, Edges: 3000, OutAlpha: 2.1, InAlpha: 0.8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := buildHierarchy(t, g, 64) // 16 vertices per partition, 16 partitions
	l, err := Build(g, h, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(g, h); err != nil {
		t.Fatal(err)
	}
	// Blocks sorted by (src, dst); SrcBlock ranges consistent.
	for i := 1; i < len(l.Blocks); i++ {
		a, b := l.Blocks[i-1], l.Blocks[i]
		if a.SrcPart > b.SrcPart || (a.SrcPart == b.SrcPart && a.DstPart >= b.DstPart) {
			t.Fatalf("blocks not sorted at %d: %+v then %+v", i, a, b)
		}
	}
	// Messages numbered destination-major: the blocks' message ranges tile
	// [0, NumMessages()) in DstBlocks order, each DstBlocks list ascending
	// by source partition, each block's sources ascending.
	var next int64
	for q, list := range l.DstBlocks {
		for k, bi := range list {
			b := l.Blocks[bi]
			if b.MsgStart != next || b.MsgEnd <= b.MsgStart {
				t.Fatalf("block %d->%d messages [%d,%d) do not follow %d", b.SrcPart, b.DstPart, b.MsgStart, b.MsgEnd, next)
			}
			if k > 0 && l.Blocks[list[k-1]].SrcPart >= b.SrcPart {
				t.Fatalf("DstBlocks of %d not ascending by source at %d", q, k)
			}
			if !slices.IsSorted(l.MsgSrc[b.MsgStart:b.MsgEnd]) {
				t.Fatalf("block %d->%d sources not ascending", b.SrcPart, b.DstPart)
			}
			next = b.MsgEnd
		}
	}
	if next != l.NumMessages() {
		t.Fatalf("blocks cover %d of %d messages", next, l.NumMessages())
	}
	for p := 0; p < l.NumPartitions; p++ {
		for bi := l.SrcBlockStart[p]; bi < l.SrcBlockEnd[p]; bi++ {
			if int(l.Blocks[bi].SrcPart) != p {
				t.Fatalf("SrcBlock range of %d contains block with src %d", p, l.Blocks[bi].SrcPart)
			}
		}
		for _, bi := range l.DstBlocks[p] {
			if int(l.Blocks[bi].DstPart) != p {
				t.Fatalf("DstBlocks of %d contains block with dst %d", p, l.Blocks[bi].DstPart)
			}
		}
	}
	// Every block is in exactly one DstBlocks list.
	var dstTotal int
	for _, list := range l.DstBlocks {
		dstTotal += len(list)
	}
	if dstTotal != len(l.Blocks) {
		t.Fatalf("DstBlocks cover %d blocks, want %d", dstTotal, len(l.Blocks))
	}
}

// The update multiset delivered by the layout must equal the edge multiset:
// replaying both pulls symbolically reproduces every inter-edge exactly
// once and every intra-edge exactly once.
func TestEdgeMultisetPreserved(t *testing.T) {
	for _, compress := range []bool{true, false} {
		g, err := gen.Uniform(300, 4000, 77)
		if err != nil {
			t.Fatal(err)
		}
		h := buildHierarchy(t, g, 128)
		l, err := Build(g, h, compress)
		if err != nil {
			t.Fatal(err)
		}
		got := map[[2]graph.VertexID]int{}
		n := g.NumVertices()
		for _, e := range decodeBlocks(l, n) {
			got[e]++
		}
		for v, row := range pullRows(l.IntraPull, n, graph.VertexID(n)) {
			for _, u := range row {
				got[[2]graph.VertexID{u, graph.VertexID(v)}]++
			}
		}
		want := map[[2]graph.VertexID]int{}
		for v := 0; v < g.NumVertices(); v++ {
			for _, d := range g.OutNeighbors(graph.VertexID(v)) {
				want[[2]graph.VertexID{graph.VertexID(v), d}]++
			}
		}
		if len(got) != len(want) {
			t.Fatalf("compress=%v: %d distinct edges, want %d", compress, len(got), len(want))
		}
		for k, c := range want {
			if got[k] != c {
				t.Fatalf("compress=%v: edge %v delivered %d times, want %d", compress, k, got[k], c)
			}
		}
	}
}

func TestCompressionReducesMessages(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Vertices: 1024, Edges: 20000, OutAlpha: 2.0, InAlpha: 1.2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	h := buildHierarchy(t, g, 256)
	lc, err := Build(g, h, true)
	if err != nil {
		t.Fatal(err)
	}
	lu, err := Build(g, h, false)
	if err != nil {
		t.Fatal(err)
	}
	if lc.NumMessages() >= lu.NumMessages() {
		t.Fatalf("compression did not reduce messages: %d vs %d", lc.NumMessages(), lu.NumMessages())
	}
	if lc.InterEdges != lu.InterEdges || lc.IntraEdges != lu.IntraEdges {
		t.Fatal("edge classification differs between compressed and uncompressed")
	}
}

func TestLargerPartitionsCompressBetter(t *testing.T) {
	// §4.5: "The larger a partition, the better the compression."
	g, err := gen.PowerLaw(gen.PowerLawConfig{Vertices: 4096, Edges: 60000, OutAlpha: 2.0, InAlpha: 1.0, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	prevRatio := 0.0
	for _, pb := range []int{64, 256, 1024, 4096} {
		h := buildHierarchy(t, g, pb)
		l, err := Build(g, h, true)
		if err != nil {
			t.Fatal(err)
		}
		if l.InterEdges == 0 {
			continue
		}
		ratio := float64(l.InterEdges) / float64(l.NumMessages()) // edges per message
		if ratio < prevRatio {
			t.Errorf("partition %dB: compression ratio %.2f decreased (prev %.2f)", pb, ratio, prevRatio)
		}
		prevRatio = ratio
	}
	if prevRatio <= 1.0 {
		t.Errorf("final compression ratio %.2f, expected > 1", prevRatio)
	}
}

func TestBuildVertexMismatch(t *testing.T) {
	g1, _ := gen.Uniform(100, 100, 1)
	g2, _ := gen.Uniform(50, 100, 1)
	h := buildHierarchy(t, g1, 64)
	if _, err := Build(g2, h, true); err == nil {
		t.Fatal("expected error for vertex count mismatch")
	}
}

func TestNoInterEdges(t *testing.T) {
	// All edges intra (one partition holds all vertices).
	g, _ := gen.Uniform(32, 500, 2)
	h, err := partition.Build(g, partition.Config{PartitionBytes: 1 << 20, BytesPerVertex: 4, NumNodes: 2, GroupsPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	l, err := Build(g, h, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(g, h); err != nil {
		t.Fatal(err)
	}
	if l.InterEdges != 0 || l.NumMessages() != 0 || len(l.Blocks) != 0 {
		t.Fatalf("expected pure-intra layout: %+v", l)
	}
	if l.IntraEdges != g.NumEdges() {
		t.Fatal("intra edges must cover everything")
	}
}

// Property: layout invariants hold for random graphs, both compression
// modes, and random partition sizes.
func TestPropertyLayoutInvariants(t *testing.T) {
	f := func(seed uint64, pbRaw uint8, compress bool) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		n := rng.IntN(400) + 10
		m := rng.IntN(3000)
		b := graph.NewBuilder(n)
		for i := 0; i < m; i++ {
			b.AddEdge(graph.VertexID(rng.IntN(n)), graph.VertexID(rng.IntN(n)))
		}
		g := b.Build()
		pb := (int(pbRaw)%32 + 1) * 16
		h, err := partition.Build(g, partition.Config{
			PartitionBytes: pb, BytesPerVertex: 4, NumNodes: 2, GroupsPerNode: 2,
		})
		if err != nil {
			return false
		}
		l, err := Build(g, h, compress)
		if err != nil {
			return false
		}
		return l.Validate(g, h) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// referenceLayout is a plain serial construction of the layout: one scan
// over the vertices in ID order appends each inter-edge to its (p,q) block's
// message list and each intra edge to its destination's intra pull row,
// then the blocks are listed in (p,q) order, their messages numbered in
// (q,p) order, and each inter-edge's message index appended to its
// destination's inter pull row, block by block, and both pulls are written
// by referenceSELL.
func referenceLayout(g *graph.Graph, h *partition.Hierarchy, compress bool) *Layout {
	type message struct {
		src  graph.VertexID
		dsts []graph.VertexID
	}
	n, P, per := g.NumVertices(), h.NumPartitions(), h.VerticesPerPartition
	l := &Layout{
		NumPartitions: P,
		Compressed:    compress,
		SrcBlockStart: make([]int32, P),
		SrcBlockEnd:   make([]int32, P),
		DstBlocks:     make([][]int32, P),
	}
	blocks := make([][]message, P*P)
	intraRows := make([][]graph.VertexID, n)
	for v := 0; v < n; v++ {
		p, lastQ := v/per, -1
		for _, d := range g.OutNeighbors(graph.VertexID(v)) {
			q := int(d) / per
			if q == p {
				l.IntraEdges++
				intraRows[d] = append(intraRows[d], graph.VertexID(v))
				continue
			}
			b := &blocks[p*P+q]
			if !compress || q != lastQ {
				*b = append(*b, message{src: graph.VertexID(v)})
				lastQ = q
			}
			last := &(*b)[len(*b)-1]
			last.dsts = append(last.dsts, d)
		}
	}
	l.InterEdges = g.NumEdges() - l.IntraEdges
	interRows := make([][]graph.VertexID, n)
	for p := 0; p < P; p++ {
		l.SrcBlockStart[p] = int32(len(l.Blocks))
		for q := 0; q < P; q++ {
			msgs := blocks[p*P+q]
			if len(msgs) == 0 {
				continue
			}
			l.DstBlocks[q] = append(l.DstBlocks[q], int32(len(l.Blocks)))
			var edges int64
			for _, m := range msgs {
				edges += int64(len(m.dsts))
			}
			l.Blocks = append(l.Blocks, Block{SrcPart: int32(p), DstPart: int32(q), Edges: edges})
		}
		l.SrcBlockEnd[p] = int32(len(l.Blocks))
	}
	for q := 0; q < P; q++ {
		for _, bi := range l.DstBlocks[q] {
			b := &l.Blocks[bi]
			b.MsgStart = int64(len(l.MsgSrc))
			for _, m := range blocks[int(b.SrcPart)*P+q] {
				for _, d := range m.dsts {
					interRows[d] = append(interRows[d], graph.VertexID(len(l.MsgSrc)))
				}
				l.MsgSrc = append(l.MsgSrc, m.src)
			}
			b.MsgEnd = int64(len(l.MsgSrc))
		}
	}
	l.IntraPull = referenceSELL(h, intraRows, graph.VertexID(n), false)
	l.InterPull = referenceSELL(h, interRows, graph.VertexID(len(l.MsgSrc)), true)
	return l
}

// referenceSELL writes one pull from plain rows: each partition's rows are
// sorted by length (longest first, ties by ID), cut into chunks of
// PullLanes rows and written column-major, padding lanes set to n and
// padding entries to sink, and encoded by Encode, narrow where narrow is
// set and the rule allows.
func referenceSELL(h *partition.Hierarchy, rows [][]graph.VertexID, sink graph.VertexID, narrow bool) SELL {
	laneSink := graph.VertexID(len(rows))
	s := SELL{Part: []int32{0}, Chunk: []int64{0}}
	var idx []graph.VertexID
	for _, part := range h.Partitions {
		order := make([]graph.VertexID, 0, part.Vertices())
		for v := part.VertexStart; v < part.VertexEnd; v++ {
			order = append(order, v)
		}
		slices.SortStableFunc(order, func(a, b graph.VertexID) int { return len(rows[b]) - len(rows[a]) })
		for len(order)%PullLanes != 0 {
			order = append(order, laneSink)
		}
		for c := 0; c < len(order); c += PullLanes {
			lanes := order[c : c+PullLanes]
			s.Perm = append(s.Perm, lanes...)
			for k := 0; k < len(rows[lanes[0]]); k++ {
				for _, v := range lanes {
					if v != laneSink && k < len(rows[v]) {
						idx = append(idx, rows[v][k])
					} else {
						idx = append(idx, sink)
					}
				}
			}
			s.Chunk = append(s.Chunk, int64(len(idx)))
		}
		s.Part = append(s.Part, int32(len(s.Chunk)-1))
	}
	s.Encode(idx, sink, narrow)
	return s
}

// pullRows returns every vertex's row of a pull over n vertices whose
// sink is sink, decoded from its lane up to the first sink.
func pullRows(s SELL, n int, sink graph.VertexID) [][]graph.VertexID {
	idx := s.Decode(sink)
	rows := make([][]graph.VertexID, n)
	for c := 0; c+1 < len(s.Chunk); c++ {
		for i, v := range s.Lanes(c) {
			if int(v) >= n {
				continue
			}
			for e := s.Chunk[c] + int64(i); e < s.Chunk[c+1] && idx[e] != sink; e += PullLanes {
				rows[v] = append(rows[v], idx[e])
			}
		}
	}
	return rows
}

// TestBuildWorkersMatchesReference: on a power-law graph big enough to
// split over several workers, BuildWorkers at 1, 3 and 8 workers produces
// every array of the serial reference construction, compressed and
// uncompressed.
func TestBuildWorkersMatchesReference(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Vertices: 20000, Edges: 300000, OutAlpha: 2.1, InAlpha: 0.9, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	h := buildHierarchy(t, g, 4096)
	for _, compress := range []bool{true, false} {
		want := referenceLayout(g, h, compress)
		for _, workers := range []int{1, 3, 8} {
			got, err := BuildWorkers(g, h, compress, workers)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				name string
				ok   bool
			}{
				{"NumPartitions", got.NumPartitions == want.NumPartitions},
				{"Compressed", got.Compressed == want.Compressed},
				{"Blocks.SrcPart/DstPart", slices.EqualFunc(got.Blocks, want.Blocks, func(a, b Block) bool { return a.SrcPart == b.SrcPart && a.DstPart == b.DstPart })},
				{"Blocks.MsgStart/MsgEnd", slices.EqualFunc(got.Blocks, want.Blocks, func(a, b Block) bool { return a.MsgStart == b.MsgStart && a.MsgEnd == b.MsgEnd })},
				{"Blocks.Edges", slices.EqualFunc(got.Blocks, want.Blocks, func(a, b Block) bool { return a.Edges == b.Edges })},
				{"SrcBlockStart", slices.Equal(got.SrcBlockStart, want.SrcBlockStart)},
				{"SrcBlockEnd", slices.Equal(got.SrcBlockEnd, want.SrcBlockEnd)},
				{"DstBlocks", slices.EqualFunc(got.DstBlocks, want.DstBlocks, slices.Equal[[]int32])},
				{"MsgSrc", slices.Equal(got.MsgSrc, want.MsgSrc)},
				{"IntraPull.Part", slices.Equal(got.IntraPull.Part, want.IntraPull.Part)},
				{"IntraPull.Chunk", slices.Equal(got.IntraPull.Chunk, want.IntraPull.Chunk)},
				{"IntraPull.Perm", slices.Equal(got.IntraPull.Perm, want.IntraPull.Perm)},
				{"IntraPull.Off", slices.Equal(got.IntraPull.Off, want.IntraPull.Off)},
				{"IntraPull.Enc", slices.Equal(got.IntraPull.Enc, want.IntraPull.Enc)},
				{"InterPull.Part", slices.Equal(got.InterPull.Part, want.InterPull.Part)},
				{"InterPull.Chunk", slices.Equal(got.InterPull.Chunk, want.InterPull.Chunk)},
				{"InterPull.Perm", slices.Equal(got.InterPull.Perm, want.InterPull.Perm)},
				{"InterPull.Off", slices.Equal(got.InterPull.Off, want.InterPull.Off)},
				{"InterPull.Enc", slices.Equal(got.InterPull.Enc, want.InterPull.Enc)},
				{"IntraEdges", got.IntraEdges == want.IntraEdges},
				{"InterEdges", got.InterEdges == want.InterEdges},
			} {
				if !c.ok {
					t.Errorf("compress=%v workers=%d: %s differs from the reference", compress, workers, c.name)
				}
			}
		}
	}
}

// decodeBlocks returns the (source, destination) pair of every inter pull
// entry: each entry of a vertex's row is a message carrying one edge from
// the message's source to the vertex.
func decodeBlocks(l *Layout, n int) [][2]graph.VertexID {
	rows := pullRows(l.InterPull, n, graph.VertexID(l.NumMessages()))
	var out [][2]graph.VertexID
	for v, row := range rows {
		for _, m := range row {
			out = append(out, [2]graph.VertexID{l.MsgSrc[m], graph.VertexID(v)})
		}
	}
	return out
}

// interEdges returns the (source, destination) pair of every edge of g that
// crosses partitions under h.
func interEdges(g *graph.Graph, h *partition.Hierarchy) [][2]graph.VertexID {
	var out [][2]graph.VertexID
	for v := 0; v < g.NumVertices(); v++ {
		for _, d := range g.OutNeighbors(graph.VertexID(v)) {
			if h.PartitionOfVertex(d) != h.PartitionOfVertex(graph.VertexID(v)) {
				out = append(out, [2]graph.VertexID{graph.VertexID(v), d})
			}
		}
	}
	return out
}

// sameMultiset reports whether a and b hold the same pairs with the same
// multiplicities.
func sameMultiset(a, b [][2]graph.VertexID) bool {
	count := func(pairs [][2]graph.VertexID) map[[2]graph.VertexID]int {
		c := map[[2]graph.VertexID]int{}
		for _, e := range pairs {
			c[e]++
		}
		return c
	}
	return maps.Equal(count(a), count(b))
}

// TestValidateRejectsBadInterRows: an inter pull that does not replay
// the graph's inter-edges message by message in push order fails
// Validate, so the gather can never add a vertex's messages out of order,
// add a message that does not target it, or drop one. The corruptions: two
// messages of one lane swapped, a row entry replaced by a message of
// another destination partition, a row entry replaced by the sink, a
// padding entry holding a message, and a block that claims one edge too
// many.
func TestValidateRejectsBadInterRows(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Vertices: 250, Edges: 3000, OutAlpha: 2.1, InAlpha: 0.8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := buildHierarchy(t, g, 64)
	// idx holds the inter pull's entries, decoded; a corruption edits
	// them, and the test encodes them back.
	var idx []graph.VertexID
	// lane returns the idx positions of lane slot's row and padding.
	lane := func(l *Layout, slot int) (row, pad []int64) {
		sink := graph.VertexID(l.NumMessages())
		ip := &l.InterPull
		c := slot / PullLanes
		for e := ip.Chunk[c] + int64(slot%PullLanes); e < ip.Chunk[c+1]; e += PullLanes {
			if idx[e] == sink {
				pad = append(pad, e)
			} else {
				row = append(row, e)
			}
		}
		return row, pad
	}
	pick := func(l *Layout, ok func(row, pad []int64) bool) int {
		for slot, v := range l.InterPull.Perm {
			if row, pad := lane(l, slot); int(v) < g.NumVertices() && ok(row, pad) {
				return slot
			}
		}
		t.Fatal("no lane to corrupt")
		return 0
	}
	twoMessages := func(l *Layout) []int64 {
		row, _ := lane(l, pick(l, func(row, _ []int64) bool {
			return len(row) >= 2 && idx[row[0]] != idx[row[1]]
		}))
		return row
	}
	for _, c := range []struct {
		name    string
		corrupt func(l *Layout)
	}{
		{"two messages swapped", func(l *Layout) {
			row := twoMessages(l)
			idx[row[0]], idx[row[1]] = idx[row[1]], idx[row[0]]
		}},
		{"foreign message", func(l *Layout) {
			row := twoMessages(l)
			m := idx[row[0]]
			for _, b := range l.Blocks {
				if m >= graph.VertexID(b.MsgStart) && m < graph.VertexID(b.MsgEnd) {
					// The first message of a block with another destination.
					for _, o := range l.Blocks {
						if o.DstPart != b.DstPart {
							idx[row[0]] = graph.VertexID(o.MsgStart)
							return
						}
					}
				}
			}
			t.Fatal("no foreign message")
		}},
		{"sink inside a row", func(l *Layout) {
			idx[twoMessages(l)[0]] = graph.VertexID(l.NumMessages())
		}},
		{"padding entry holds a message", func(l *Layout) {
			slot := pick(l, func(row, pad []int64) bool { return len(pad) > 0 })
			_, pad := lane(l, slot)
			idx[pad[0]] = 0
		}},
		{"block claims an extra edge", func(l *Layout) {
			l.Blocks[len(l.Blocks)/2].Edges++
		}},
	} {
		for _, compress := range []bool{true, false} {
			l, err := Build(g, h, compress)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Validate(g, h); err != nil {
				t.Fatalf("%s: intact layout rejected: %v", c.name, err)
			}
			sink := graph.VertexID(l.NumMessages())
			idx = l.InterPull.Decode(sink)
			c.corrupt(l)
			l.InterPull.Encode(idx, sink, true)
			if err := l.Validate(g, h); err == nil {
				t.Errorf("%s (compress=%v): Validate accepted the corrupted layout", c.name, compress)
			}
		}
	}
}

// TestEncodingRule: a chunk is stored narrow exactly when it has two steps
// or more and every step within every row is below EndOfRow — at the
// boundary, a step of 2^16 − 2 is narrow and 2^16 − 1, 2^16 and 2^16 + 1
// are not — whatever its padding and repeated entries; and it decodes back
// to its rows either way.
func TestEncodingRule(t *testing.T) {
	const sink = 1 << 24
	for _, c := range []struct {
		name   string
		rows   [PullLanes][]graph.VertexID
		narrow bool
	}{
		{"one step", [PullLanes][]graph.VertexID{{5}, {9}}, false},
		{"no steps", [PullLanes][]graph.VertexID{}, false},
		{"repeated entries and padding", [PullLanes][]graph.VertexID{{5, 5, 5}, {7, 8}, {}, {1}}, true},
		{"step 2^16-2", [PullLanes][]graph.VertexID{{3, 3 + EndOfRow - 1, 3 + 2*(EndOfRow-1)}}, true},
		{"step 2^16-1", [PullLanes][]graph.VertexID{{3, 3 + EndOfRow}, {0, 1, 2}}, false},
		{"step 2^16", [PullLanes][]graph.VertexID{{3, 3 + 1<<16}}, false},
		{"step 2^16+1", [PullLanes][]graph.VertexID{{0, 1, 2}, {3, 4 + 1<<16}}, false},
	} {
		w := 0
		for _, r := range c.rows {
			w = max(w, len(r))
		}
		idx := make([]graph.VertexID, w*PullLanes)
		for i, r := range c.rows {
			for k := range w {
				idx[k*PullLanes+i] = sink
				if k < len(r) {
					idx[k*PullLanes+i] = r[k]
				}
			}
		}
		s := SELL{Chunk: []int64{0, int64(len(idx))}}
		s.Encode(idx, sink, true)
		if s.Narrow(0) != c.narrow {
			t.Errorf("%s: narrow %v, want %v", c.name, s.Narrow(0), c.narrow)
		}
		if got := s.Decode(sink); !slices.Equal(got, idx) {
			t.Errorf("%s: decodes to %v, want %v", c.name, got, idx)
		}
	}
}

// TestValidateRejectsBadEncoding: a pull whose rows are right but whose
// encoding is not the one the encoder writes fails Validate: an inter pull
// chunk the rule stores narrow stored wide, an intra pull stored narrow
// where it can be (the intra pull is all wide), a narrow step past a row's
// end that is not 0, a row's EndOfRow replaced by a step of 0 (the row
// then repeats its last entry), and encoding offsets that end past the
// stream.
func TestValidateRejectsBadEncoding(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Vertices: 250, Edges: 3000, OutAlpha: 2.1, InAlpha: 0.8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := buildHierarchy(t, g, 64)
	n := graph.VertexID(g.NumVertices())
	// narrowEnd returns a narrow inter pull chunk and the position in Enc
	// of the EndOfRow of a lane whose row ends at least two steps before
	// the chunk does.
	narrowEnd := func(l *Layout) (int, int64) {
		ip := &l.InterPull
		for c := 0; c+1 < len(ip.Chunk); c++ {
			if !ip.Narrow(c) {
				continue
			}
			w := ip.Steps(c)
			for e := ip.Off[c] + 2*PullLanes; e < ip.Off[c+1]-PullLanes; e++ {
				if ip.Enc[e] == EndOfRow && (e-ip.Off[c])/PullLanes+1 < w {
					return c, e
				}
			}
		}
		t.Fatal("no narrow chunk with a row two steps short")
		return 0, 0
	}
	for _, c := range []struct {
		name    string
		corrupt func(l *Layout)
	}{
		{"narrow chunk stored wide", func(l *Layout) {
			ip := &l.InterPull
			c, _ := narrowEnd(l)
			idx := ip.Decode(graph.VertexID(l.NumMessages()))
			wide := make([]uint16, wideSize(ip.Steps(c)))
			putChunk(wide, idx[ip.Chunk[c]:ip.Chunk[c+1]], graph.VertexID(l.NumMessages()))
			grow := int64(len(wide)) - (ip.Off[c+1] - ip.Off[c])
			ip.Enc = slices.Concat(ip.Enc[:ip.Off[c]], wide, ip.Enc[ip.Off[c+1]:])
			for k := c + 1; k < len(ip.Off); k++ {
				ip.Off[k] += grow
			}
		}},
		{"intra pull stored narrow", func(l *Layout) {
			l.IntraPull.Encode(l.IntraPull.Decode(n), n, true)
		}},
		{"step past a row's end not 0", func(l *Layout) {
			_, e := narrowEnd(l)
			l.InterPull.Enc[e+PullLanes] = 1
		}},
		{"end of row replaced by 0", func(l *Layout) {
			_, e := narrowEnd(l)
			l.InterPull.Enc[e] = 0
		}},
		{"encoding offsets past the stream", func(l *Layout) {
			l.InterPull.Off[len(l.InterPull.Off)-1] += PullLanes
		}},
	} {
		l, err := Build(g, h, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Validate(g, h); err != nil {
			t.Fatalf("%s: intact layout rejected: %v", c.name, err)
		}
		c.corrupt(l)
		if err := l.Validate(g, h); err == nil {
			t.Errorf("%s: Validate accepted the corrupted layout", c.name)
		}
	}
}

// TestBuildRejectsOversizedGraphs: a graph of 2^31 or more vertices would
// put a pull index past the AVX2 gather's int32, so Build and Patch refuse
// it. The hierarchy claims the count; no such graph is allocated.
func TestBuildRejectsOversizedGraphs(t *testing.T) {
	g, _ := gen.Uniform(100, 100, 1)
	h := &partition.Hierarchy{NumVertices: maxIndex}
	if _, err := Build(g, h, true); err == nil || !strings.Contains(err.Error(), "2^31") {
		t.Fatalf("Build: err = %v, want the 2^31-vertex limit", err)
	}
	if _, err := Patch(&Layout{}, g, h, nil); err == nil || !strings.Contains(err.Error(), "2^31") {
		t.Fatalf("Patch: err = %v, want the 2^31-vertex limit", err)
	}
}

// TestValidateRejectsBadIntraSrc: a pull that does not replay g's
// intra-edges exactly fails Validate, so the dense scatter can never sum a
// destination's sources out of push order, lose or gain an edge, or store a
// sum for a vertex twice or not at all. The corruptions: two sources of one
// lane swapped, a source moved out of its partition, a row entry or a
// padding entry that is not what it should be, a vertex in two lanes, and a
// padding lane ahead of a real one.
func TestValidateRejectsBadIntraSrc(t *testing.T) {
	// 250 vertices in partitions of 16: the last partition's 10 vertices
	// leave six padding lanes.
	g, err := gen.PowerLaw(gen.PowerLawConfig{Vertices: 250, Edges: 3000, OutAlpha: 2.1, InAlpha: 0.8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := buildHierarchy(t, g, 64)
	sink := graph.VertexID(g.NumVertices())
	// idx holds the intra pull's entries, decoded; a corruption edits
	// them, and the test encodes them back.
	var idx []graph.VertexID
	// lane returns the idx positions of lane slot's row and padding.
	lane := func(l *Layout, slot int) (row, pad []int64) {
		ip := &l.IntraPull
		c := slot / PullLanes
		for e := ip.Chunk[c] + int64(slot%PullLanes); e < ip.Chunk[c+1]; e += PullLanes {
			if idx[e] == sink {
				pad = append(pad, e)
			} else {
				row = append(row, e)
			}
		}
		return row, pad
	}
	// pick returns the first slot whose lane passes ok.
	pick := func(l *Layout, ok func(row, pad []int64) bool) int {
		for slot := range l.IntraPull.Perm {
			if row, pad := lane(l, slot); l.IntraPull.Perm[slot] != sink && ok(row, pad) {
				return slot
			}
		}
		t.Fatal("no lane to corrupt")
		return 0
	}
	twoSources := func(l *Layout) []int64 {
		row, _ := lane(l, pick(l, func(row, _ []int64) bool { return len(row) >= 2 && idx[row[0]] != idx[row[1]] }))
		return row
	}
	for _, c := range []struct {
		name    string
		corrupt func(l *Layout)
	}{
		{"two sources swapped", func(l *Layout) {
			row := twoSources(l)
			idx[row[0]], idx[row[1]] = idx[row[1]], idx[row[0]]
		}},
		{"source outside the partition", func(l *Layout) {
			row := twoSources(l)
			p := int(idx[row[0]]) / h.VerticesPerPartition
			idx[row[0]] = graph.VertexID((p + 1) % l.NumPartitions * h.VerticesPerPartition)
		}},
		{"row entry replaced by the sink", func(l *Layout) {
			idx[twoSources(l)[0]] = sink
		}},
		{"padding entry holds a vertex", func(l *Layout) {
			slot := pick(l, func(_, pad []int64) bool { return len(pad) > 0 })
			_, pad := lane(l, slot)
			idx[pad[0]] = l.IntraPull.Perm[slot]
		}},
		{"vertex in two lanes", func(l *Layout) {
			l.IntraPull.Perm[1] = l.IntraPull.Perm[0]
		}},
		{"padding lane ahead of a real lane", func(l *Layout) {
			j := slices.Index(l.IntraPull.Perm, sink)
			l.IntraPull.Perm[j-1], l.IntraPull.Perm[j] = l.IntraPull.Perm[j], l.IntraPull.Perm[j-1]
		}},
	} {
		l, err := Build(g, h, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Validate(g, h); err != nil {
			t.Fatalf("%s: intact layout rejected: %v", c.name, err)
		}
		idx = l.IntraPull.Decode(sink)
		c.corrupt(l)
		l.IntraPull.Encode(idx, sink, false)
		if err := l.Validate(g, h); err == nil {
			t.Errorf("%s: Validate accepted the corrupted layout", c.name)
		}
	}
}

// TestDividerMatchesDivision: the multiply-and-shift partition lookup
// equals integer division for every divisor shape — 1, powers of two and
// their neighbours, random divisors and the largest — at the dividends
// where a rounding error would show: 0, multiples of the divisor and their
// neighbours, random values and the largest vertex ID.
func TestDividerMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 0))
	divisors := []uint32{1, 2, 3, 7, maxIndex - 1}
	for k := 2; k < 31; k++ {
		divisors = append(divisors, 1<<k-1, 1<<k, 1<<k+1)
	}
	for range 200 {
		divisors = append(divisors, 1+rng.Uint32N(maxIndex-1))
	}
	for _, d := range divisors {
		dv := newDivider(d)
		check := func(v uint32) {
			if v >= maxIndex {
				return
			}
			if got, want := dv.div(graph.VertexID(v)), int(v/d); got != want {
				t.Fatalf("%d / %d = %d, want %d", v, d, got, want)
			}
		}
		check(0)
		check(maxIndex - 1)
		for range 200 {
			check(rng.Uint32N(maxIndex))
			k := rng.Uint32N(maxIndex/d + 1)
			check(k*d - 1)
			check(k * d)
			check(k*d + 1)
		}
	}
}

// TestChunksHoldEveryEntry: each partition's Chunks range holds every
// chunk with entries and no chunk without, in both pulls, on a graph whose
// partitions mix vertices with and without in-edges and one partition no
// inter-edge reaches.
func TestChunksHoldEveryEntry(t *testing.T) {
	b := graph.NewBuilder(96)
	rng := rand.New(rand.NewPCG(21, 0))
	for range 600 {
		// Vertices 64..95 receive no inter-edge; every third vertex
		// receives nothing at all.
		u, v := rng.IntN(96), rng.IntN(64)
		if v%3 != 0 {
			b.AddEdge(graph.VertexID(u), graph.VertexID(v))
		}
	}
	g := b.Build()
	h := buildHierarchy(t, g, 128) // 32 vertices per partition
	l, err := Build(g, h, true)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*SELL{"intra": &l.IntraPull, "inter": &l.InterPull} {
		for p := 0; p < l.NumPartitions; p++ {
			clo, chi := s.Chunks(p)
			for c := int(s.Part[p]); c < int(s.Part[p+1]); c++ {
				if busy := s.Chunk[c] < s.Chunk[c+1]; busy != (c >= clo && c < chi) {
					t.Errorf("%s pull partition %d: chunk %d holds %d entries, Chunks = [%d,%d)", name, p, c, s.Chunk[c+1]-s.Chunk[c], clo, chi)
				}
			}
		}
	}
	if clo, chi := l.InterPull.Chunks(2); clo != chi {
		t.Errorf("partition 2 receives no inter-edge, yet its inter pull Chunks = [%d,%d)", clo, chi)
	}
}
