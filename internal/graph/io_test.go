package graph

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"runtime"
	"slices"
	"testing"
)

// smallBlock is a read and write block of 8 offsets or 16 endpoints, so
// arrays a few entries long already cross block boundaries.
const smallBlock = 64

// referenceHGR1 encodes g one array at a time with encoding/binary: the
// HGR1 bytes WriteBinary must produce.
func referenceHGR1(t testing.TB, g *Graph) []byte {
	t.Helper()
	var b bytes.Buffer
	b.WriteString("HGR1")
	var flags uint64
	if g.HasInEdges() {
		flags = 1
	}
	arrays := []any{[]uint64{1, uint64(g.NumVertices()), uint64(g.NumEdges()), flags}, g.OutOffsets(), g.OutEdges()}
	if g.HasInEdges() {
		arrays = append(arrays, g.InOffsets(), g.InEdges())
	}
	for _, a := range arrays {
		if err := binary.Write(&b, binary.LittleEndian, a); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// blockGraph is a graph whose offset arrays have n+1 entries and whose
// endpoint arrays have e; with e >= n every vertex has an out-edge.
func blockGraph(n, e int, in bool) *Graph {
	b := NewBuilder(n)
	for i := range e {
		b.AddEdge(VertexID(i*n/e), VertexID((7*i+3)%n))
	}
	g := b.Build()
	if in {
		g.BuildIn()
	}
	return g
}

// blockShapes are graphs whose arrays hold block-1, block and block+1
// entries of a block of the given bytes, with and without the in-form.
func blockShapes(block int) []*Graph {
	var gs []*Graph
	for _, n := range []int{block/8 - 2, block/8 - 1, block / 8} {
		for _, e := range []int{block/4 - 1, block / 4, block/4 + 1} {
			gs = append(gs, blockGraph(n, e, false), blockGraph(n, e, true))
		}
	}
	return gs
}

func sameGraph(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() ||
		!slices.Equal(got.OutOffsets(), want.OutOffsets()) || !slices.Equal(got.OutEdges(), want.OutEdges()) ||
		!slices.Equal(got.InOffsets(), want.InOffsets()) || !slices.Equal(got.InEdges(), want.InEdges()) ||
		got.HasInEdges() != want.HasInEdges() {
		t.Fatalf("graph changed in the round trip (n=%d e=%d in=%v)", want.NumVertices(), want.NumEdges(), want.HasInEdges())
	}
}

// TestBinaryBlockBoundaries: with arrays of block-1, block and block+1
// entries, at the program's block and a tiny one, every writer produces
// the reference bytes and every reader, sized or not, returns the graph.
func TestBinaryBlockBoundaries(t *testing.T) {
	for _, block := range []int{binBlock, smallBlock} {
		for _, g := range blockShapes(block) {
			want := referenceHGR1(t, g)
			for _, wb := range []int{binBlock, smallBlock} {
				var out bytes.Buffer
				if err := writeBinary(&out, g, make([]byte, 0, wb)); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out.Bytes(), want) {
					t.Fatalf("block %d, write block %d, n=%d e=%d in=%v: bytes differ from the reference encoding",
						block, wb, g.NumVertices(), g.NumEdges(), g.HasInEdges())
				}
			}
			for _, rb := range []int{binBlock, smallBlock} {
				for _, size := range []int64{-1, int64(len(want))} {
					got, err := readBinary(bytes.NewReader(want), size, make([]byte, rb))
					if err != nil {
						t.Fatalf("block %d, read block %d, size %d: %v", block, rb, size, err)
					}
					sameGraph(t, got, g)
				}
			}
		}
	}
}

// truncationCheck reads every prefix raw[:cut] three ways, through buf: as a
// plain stream of unknown length, with its true length (the size check),
// and with the whole file's length (a file cut short while being read).
// Every one must fail.
func truncationCheck(t *testing.T, raw []byte, cuts []int, block int) {
	t.Helper()
	buf := make([]byte, block)
	for _, cut := range cuts {
		for _, size := range []int64{-1, int64(cut), int64(len(raw))} {
			if g, err := readBinary(bytes.NewReader(raw[:cut]), size, buf); err == nil || g != nil {
				t.Fatalf("%d of %d bytes, size %d, block %d: accepted (err %v)", cut, len(raw), size, block, err)
			}
		}
	}
}

// boundaryCuts are the cut points within two bytes of a file's header end,
// of each array's ends and of each block boundary inside an array.
func boundaryCuts(g *Graph, block, size int) []int {
	var cuts []int
	at := func(p int) {
		for c := max(0, p-2); c <= p+2 && c < size; c++ {
			cuts = append(cuts, c)
		}
	}
	pos := binHeader
	at(pos)
	forms := 1
	if g.HasInEdges() {
		forms = 2
	}
	for range forms {
		for _, a := range []struct{ entries, width int }{{g.NumVertices() + 1, 8}, {int(g.NumEdges()), 4}} {
			for k := 0; k < a.entries; k += block / a.width {
				at(pos + k*a.width)
			}
			pos += a.entries * a.width
			at(pos)
		}
	}
	return cuts
}

// TestBinaryTruncated: every cut of an HGR1 file returns an error, never a
// graph or a panic — every length from 0 to len-1 on the small test graph
// and, read through the tiny block, on files whose arrays hold block-1,
// block and block+1 entries; and every length around the header, the
// arrays' ends and each block boundary at the program's block.
func TestBinaryTruncated(t *testing.T) {
	every := func(raw []byte) []int {
		cuts := make([]int, len(raw))
		for i := range cuts {
			cuts[i] = i
		}
		return cuts
	}
	small := buildTestGraph(t)
	withIn := buildTestGraph(t)
	withIn.BuildIn()
	for _, g := range []*Graph{small, withIn} {
		raw := referenceHGR1(t, g)
		truncationCheck(t, raw, every(raw), binBlock)
		truncationCheck(t, raw, every(raw), smallBlock)
	}
	for _, g := range blockShapes(smallBlock) {
		raw := referenceHGR1(t, g)
		truncationCheck(t, raw, every(raw), smallBlock)
	}
	for _, g := range blockShapes(binBlock) {
		raw := referenceHGR1(t, g)
		truncationCheck(t, raw, boundaryCuts(g, binBlock, len(raw)), binBlock)
	}
}

// TestBinaryRejectsBadContent: the checks Validate makes run inside the
// read, with and without the in-form and on either side of a block
// boundary.
func TestBinaryRejectsBadContent(t *testing.T) {
	for _, in := range []bool{false, true} {
		g := blockGraph(smallBlock/8+2, smallBlock/4+1, in)
		raw := referenceHGR1(t, g)
		n, e := g.NumVertices(), int(g.NumEdges())
		offAt := func(form, v int) int { return binHeader + form*(8*(n+1)+4*e) + 8*v }
		edgeAt := func(form, i int) int { return offAt(form, n+1) + 4*i }
		type corruption struct {
			name string
			at   int
			val  uint64
			wide bool
		}
		cases := []corruption{
			{"first offset", offAt(0, 0), 1, true},
			{"negative first offset", offAt(0, 0), 1 << 63, true},
			{"offset before block boundary", offAt(0, smallBlock/8-1), uint64(e + 1), true},
			{"offset after block boundary", offAt(0, smallBlock/8), 0, true},
			{"last offset", offAt(0, n), uint64(e - 1), true},
			{"endpoint before block boundary", edgeAt(0, smallBlock/4-1), uint64(n), false},
			{"endpoint after block boundary", edgeAt(0, smallBlock/4), 1<<32 - 1, false},
			{"unknown flag", 28, 2, true},
			{"version", 4, 2, true},
		}
		if in {
			cases = append(cases,
				corruption{"in-edge first offset", offAt(1, 0), 1, true},
				corruption{"in-edge offset", offAt(1, smallBlock/8), 0, true},
				corruption{"in-edge last offset", offAt(1, n), uint64(e + 1), true},
				corruption{"in-edge endpoint", edgeAt(1, smallBlock/4), uint64(n), false})
		}
		for _, c := range cases {
			bad := slices.Clone(raw)
			if c.wide {
				binary.LittleEndian.PutUint64(bad[c.at:], c.val)
			} else {
				binary.LittleEndian.PutUint32(bad[c.at:], uint32(c.val))
			}
			for _, block := range []int{binBlock, smallBlock} {
				for _, size := range []int64{-1, int64(len(bad))} {
					if _, err := readBinary(bytes.NewReader(bad), size, make([]byte, block)); err == nil {
						t.Errorf("in=%v %s, block %d, size %d: accepted", in, c.name, block, size)
					}
				}
			}
		}
	}
}

// TestBinaryHostileHeaderAllocatesNothing: a 36-byte header announcing the
// largest graph the limits allow fails without allocating for it, from a
// file (checked against the file's length) and from a plain stream (arrays
// grow only with what was read), and so does the same header followed by
// 2 MB of plausible offsets.
func TestBinaryHostileHeaderAllocatesNothing(t *testing.T) {
	header := func(nv, ne, flags uint64) []byte {
		b := []byte("HGR1")
		for _, v := range []uint64{1, nv, ne, flags} {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}
	dir := t.TempDir()
	for i, raw := range [][]byte{
		header(MaxVertices, 0, 0),
		header(MaxVertices, MaxEdges, 1),
		append(header(MaxVertices, MaxEdges, 1), make([]byte, 2<<20)...),
	} {
		path := dir + "/hostile.hgr"
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, load := range []struct {
			name string
			fn   func() (*Graph, error)
		}{
			{"LoadBinary", func() (*Graph, error) { return LoadBinary(path) }},
			{"ReadBinary", func() (*Graph, error) { return ReadBinary(bytes.NewReader(raw)) }},
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			g, err := load.fn()
			runtime.ReadMemStats(&after)
			if err == nil || g != nil {
				t.Fatalf("case %d, %s: accepted a %d-byte file", i, load.name, len(raw))
			}
			if d := after.TotalAlloc - before.TotalAlloc; d >= 16<<20 {
				t.Errorf("case %d, %s: allocated %d bytes before failing (%v)", i, load.name, d, err)
			}
		}
	}
}

// failingWriter accepts n bytes, then fails every write.
type failingWriter struct{ n int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, io.ErrShortWrite
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriteBinaryReportsWriteErrors: a writer failing anywhere in the
// file, in the header, an array or the last block, fails the write.
func TestWriteBinaryReportsWriteErrors(t *testing.T) {
	g := blockGraph(smallBlock/8+2, smallBlock/4+1, true)
	size := len(referenceHGR1(t, g))
	for _, block := range []int{binBlock, smallBlock} {
		for cut := 0; cut < size; cut += 7 {
			if err := writeBinary(&failingWriter{n: cut}, g, make([]byte, 0, block)); err == nil {
				t.Fatalf("block %d: a writer failing after %d of %d bytes reported no error", block, cut, size)
			}
		}
	}
}
