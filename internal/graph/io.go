package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Binary graph format ("HGR1"):
//
//	magic    [4]byte  "HGR1"
//	version  uint64   1
//	vertices uint64
//	edges    uint64
//	flags    uint64   bit 0: in-edge form present; no other bit is defined
//	outOffsets [vertices+1]int64
//	outEdges   [edges]uint32
//	(if flag) inOffsets  [vertices+1]int64
//	(if flag) inEdges    [edges]uint32
//
// All integers little-endian. The header is 36 bytes.

var binMagic = [4]byte{'H', 'G', 'R', '1'}

const (
	binVersion = 1
	binHeader  = 4 + 4*8
	// binBlock is the byte size of one read or write call: arrays move a
	// block at a time through a reused buffer (8,192 offsets or 16,384
	// endpoints), decoded or encoded while the block is in cache.
	binBlock = 64 << 10
)

// MaxVertices and MaxEdges bound what the loaders will allocate for: a
// malformed or hostile input (a 15-byte edge list naming vertex 2^32-1, a
// corrupted binary header) must fail cleanly instead of exhausting memory.
// Both limits are far above anything this library is used for.
const (
	MaxVertices = 1 << 28 // 268M vertices (2GB of offsets)
	MaxEdges    = 1 << 31 // 2G edges (8GB of endpoints)
	// MaxInferredVertices bounds the graph size a *text* edge list may
	// imply from its largest vertex ID: a few bytes of text must not force
	// hundreds of megabytes of offsets. Pass numVertices explicitly to
	// ReadEdgeList for larger graphs.
	MaxInferredVertices = 1 << 24 // 16M
	// MaxLineBytes is the longest edge-list line ReadEdgeList accepts.
	// bufio.Scanner's 64KB default silently fails on real-world dumps that
	// pack many records per line; lines beyond this cap are a clean error
	// carrying the line number, not an allocation hazard.
	MaxLineBytes = 1 << 26 // 64MB
)

// WriteBinary serialises g in the HGR1 binary format.
func WriteBinary(w io.Writer, g *Graph) error {
	return writeBinary(w, g, make([]byte, 0, binBlock))
}

// writeBinary writes g through buf, one write call each time buf fills.
func writeBinary(w io.Writer, g *Graph, buf []byte) error {
	in := g.in.Load()
	var flags int64
	if in != nil {
		flags = 1
	}
	bw := blockWriter{w: w, buf: append(buf[:0], binMagic[:]...)}
	bw.int64s([]int64{binVersion, int64(g.numVertices), g.numEdges, flags})
	bw.int64s(g.outOffsets)
	bw.uint32s(g.outEdges)
	if in != nil {
		bw.int64s(in.offsets)
		bw.uint32s(in.edges)
	}
	return bw.flush()
}

// blockWriter encodes values little-endian into buf and writes buf out
// whenever it fills. The first write error sticks and ends all encoding.
type blockWriter struct {
	w   io.Writer
	buf []byte // pending bytes; cap(buf) is the block size
	err error
}

func (bw *blockWriter) flush() error {
	if bw.err == nil && len(bw.buf) > 0 {
		_, bw.err = bw.w.Write(bw.buf)
		bw.buf = bw.buf[:0]
	}
	return bw.err
}

// room makes space for at least one value of size bytes and returns how
// many values fit, or 0 after a write error.
func (bw *blockWriter) room(size int) int {
	if cap(bw.buf)-len(bw.buf) < size {
		bw.flush()
	}
	if bw.err != nil {
		return 0
	}
	return (cap(bw.buf) - len(bw.buf)) / size
}

func (bw *blockWriter) int64s(xs []int64) {
	for len(xs) > 0 {
		k := min(bw.room(8), len(xs))
		if k == 0 {
			return
		}
		n := len(bw.buf)
		encodeInt64s(bw.buf[n:n+8*k], xs[:k])
		bw.buf, xs = bw.buf[:n+8*k], xs[k:]
	}
}

func (bw *blockWriter) uint32s(xs []uint32) {
	for len(xs) > 0 {
		k := min(bw.room(4), len(xs))
		if k == 0 {
			return
		}
		n := len(bw.buf)
		encodeUint32s(bw.buf[n:n+4*k], xs[:k])
		bw.buf, xs = bw.buf[:n+4*k], xs[k:]
	}
}

// encodeInt64s and encodeUint32s write xs little-endian into b.
func encodeInt64s(b []byte, xs []int64) {
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b, uint64(x))
		b = b[8:]
	}
}

func encodeUint32s(b []byte, xs []uint32) {
	for _, x := range xs {
		binary.LittleEndian.PutUint32(b, x)
		b = b[4:]
	}
}

// ReadBinary deserialises a graph written by WriteBinary. It reads exactly
// the header and the arrays it announces, and checks everything Validate
// checks while each block is decoded. The reader's length is unknown, so
// arrays grow with the bytes actually read: a header announcing a huge graph
// over a short stream costs about one block before it fails.
func ReadBinary(r io.Reader) (*Graph, error) {
	return readBinary(r, -1, make([]byte, binBlock))
}

// LoadBinary reads a graph from the named file. The header's array sizes
// are checked against the file's length before anything is allocated, so
// each array is allocated once at its full size.
func LoadBinary(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return readBinary(f, st.Size(), make([]byte, binBlock))
}

// SaveBinary writes g to the named file.
func SaveBinary(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBinary(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readBinary reads an HGR1 graph from r through buf, one read call per
// block. size is the number of bytes r holds, or -1 when unknown: a known
// size shorter than the header announces fails before any array is
// allocated, and lets each array be allocated once at its full length.
func readBinary(r io.Reader, size int64, buf []byte) (*Graph, error) {
	var hdr [binHeader]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if [4]byte(hdr[:4]) != binMagic {
		return nil, fmt.Errorf("graph: bad magic %q", hdr[:4])
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	le := binary.LittleEndian
	version, nv, ne, flags := le.Uint64(hdr[4:]), le.Uint64(hdr[12:]), le.Uint64(hdr[20:]), le.Uint64(hdr[28:])
	if version != binVersion {
		return nil, fmt.Errorf("graph: unsupported version %d", version)
	}
	if flags&^1 != 0 {
		return nil, fmt.Errorf("graph: unknown flags %#x", flags)
	}
	// Cap header sizes so a corrupt or hostile file cannot trigger a huge
	// allocation before any content validation runs.
	if nv > MaxVertices || ne > MaxEdges {
		return nil, fmt.Errorf("graph: implausible header (v=%d e=%d)", nv, ne)
	}
	forms := int64(1 + flags&1)
	need := binHeader + forms*(8*int64(nv+1)+4*int64(ne))
	if size >= 0 && size < need {
		return nil, fmt.Errorf("graph: header announces %d bytes, file holds %d", need, size)
	}
	br := blockReader{r: r, buf: buf, sized: size >= 0}
	n := int(nv)
	g := &Graph{numVertices: n, numEdges: int64(ne)}
	var err error
	if g.outOffsets, err = br.offsets(n, int64(ne), "offsets"); err != nil {
		return nil, err
	}
	if g.outEdges, err = br.endpoints(int(ne), n, "edge %d destination %d out of range [0,%d)"); err != nil {
		return nil, err
	}
	if flags&1 != 0 {
		inOff, err := br.offsets(n, int64(ne), "in-edge offsets")
		if err != nil {
			return nil, err
		}
		inE, err := br.endpoints(int(ne), n, "in-edge %d source %d out of range [0,%d)")
		if err != nil {
			return nil, err
		}
		g.setIn(inOff, inE)
	}
	return g, nil
}

// blockReader fills arrays from r a block at a time, checking each block
// as it is decoded.
type blockReader struct {
	r     io.Reader
	buf   []byte // one block
	sized bool   // the source's length was checked against the header
}

// next reads the next k values of the given byte size into the block and
// returns them.
func (br *blockReader) next(k, size int) ([]byte, error) {
	b := br.buf[:k*size]
	if _, err := io.ReadFull(br.r, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return b, nil
}

// offsets reads one offset array of n+1 entries: the first must be 0, the
// sequence monotone and the last ne, as Validate requires.
func (br *blockReader) offsets(n int, ne int64, what string) ([]int64, error) {
	per := len(br.buf) / 8
	xs := start[int64](br.sized, n+1, per)
	prev := int64(0)
	for i := 0; i <= n; i += per {
		k := min(per, n+1-i)
		b, err := br.next(k, 8)
		if err != nil {
			return nil, fmt.Errorf("graph: reading %s: %w", what, err)
		}
		xs = grow(xs, i+k, n+1)
		dst := xs[i : i+k]
		j := decodeOffsets(dst, b, prev)
		if i == 0 && dst[0] != 0 {
			return nil, fmt.Errorf("graph: %s[0] = %d, want 0", what, dst[0])
		}
		if j < k {
			return nil, fmt.Errorf("graph: %s not monotone at vertex %d", what, i+j-1)
		}
		prev = dst[k-1]
	}
	if xs[n] != ne {
		return nil, fmt.Errorf("graph: %s[n] = %d, want %d", what, xs[n], ne)
	}
	return xs, nil
}

// endpoints reads one endpoint array of ne entries, each below n; bad
// formats the error of the first that is not.
func (br *blockReader) endpoints(ne, n int, bad string) ([]uint32, error) {
	per := len(br.buf) / 4
	xs := start[uint32](br.sized, ne, per)
	for i := 0; i < ne; i += per {
		k := min(per, ne-i)
		b, err := br.next(k, 4)
		if err != nil {
			return nil, fmt.Errorf("graph: reading endpoints: %w", err)
		}
		xs = grow(xs, i+k, ne)
		dst := xs[i : i+k]
		if uint64(decodeUint32s(dst, b)) >= uint64(n) {
			j := slices.IndexFunc(dst, func(x uint32) bool { return uint64(x) >= uint64(n) })
			return nil, fmt.Errorf("graph: "+bad, i+j, dst[j], n)
		}
	}
	return xs, nil
}

// decodeOffsets decodes len(dst) little-endian int64s from b into dst and
// returns the index of the first below its predecessor (the first's
// predecessor is prev), or len(dst) when the block is monotone.
func decodeOffsets(dst []int64, b []byte, prev int64) int {
	for j := range dst {
		x := int64(binary.LittleEndian.Uint64(b))
		b = b[8:]
		dst[j] = x
		if x < prev {
			return j
		}
		prev = x
	}
	return len(dst)
}

// decodeUint32s decodes len(dst) little-endian uint32s from b into dst and
// returns the largest.
func decodeUint32s(dst []uint32, b []byte) uint32 {
	var hi uint32
	for j := range dst {
		x := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if x > hi {
			hi = x
		}
		dst[j] = x
	}
	return hi
}

// start returns an empty array with room for all n values when the
// source's length was checked against the header, else for one block of per.
func start[T any](sized bool, n, per int) []T {
	if !sized {
		n = min(n, per)
	}
	return make([]T, 0, n)
}

// grow returns xs resliced to length need, reallocating (doubling, capped
// at n) only when the array started at one block.
func grow[T any](xs []T, need, n int) []T {
	if need > cap(xs) {
		ys := make([]T, len(xs), min(n, max(need, 2*cap(xs))))
		copy(ys, xs)
		xs = ys
	}
	return xs[:need]
}

// ReadEdgeList parses a whitespace-separated "src dst" edge list, one edge
// per line. Lines beginning with '#' or '%' are comments. Vertex IDs may be
// arbitrary non-negative integers; the graph size is max(id)+1. If
// numVertices > 0 it overrides the inferred size (and out-of-range edges are
// an error).
func ReadEdgeList(r io.Reader, numVertices int) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), MaxLineBytes)
	var edges []Edge
	maxID := int64(-1)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want 'src dst', got %q", lineNo, line)
		}
		src, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad src: %w", lineNo, err)
		}
		dst, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad dst: %w", lineNo, err)
		}
		if src < 0 || dst < 0 || src >= MaxVertices || dst >= MaxVertices {
			return nil, fmt.Errorf("graph: line %d: vertex id out of range [0,%d)", lineNo, MaxVertices)
		}
		if src > maxID {
			maxID = src
		}
		if dst > maxID {
			maxID = dst
		}
		edges = append(edges, Edge{VertexID(src), VertexID(dst)})
	}
	if err := sc.Err(); err != nil {
		// Scanner errors (a too-long line, a failing reader) surface on the
		// line after the last one successfully scanned.
		return nil, fmt.Errorf("graph: line %d: %w", lineNo+1, err)
	}
	n := int(maxID + 1)
	if numVertices > 0 {
		if int64(numVertices) <= maxID {
			return nil, fmt.Errorf("graph: numVertices %d too small for max id %d", numVertices, maxID)
		}
		if numVertices > MaxVertices {
			return nil, fmt.Errorf("graph: numVertices %d exceeds limit %d", numVertices, MaxVertices)
		}
		n = numVertices
	} else if maxID >= MaxInferredVertices {
		return nil, fmt.Errorf("graph: inferred vertex count %d exceeds limit %d; pass numVertices explicitly", maxID+1, MaxInferredVertices)
	}
	// Every ID is below n, so the builder adopts the parsed slice instead of
	// copying it.
	b := NewBuilder(n)
	b.edges = edges
	return b.Build(), nil
}

// WriteEdgeList writes g as a "src dst" text edge list.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	for v := 0; v < g.NumVertices(); v++ {
		for _, dst := range g.OutNeighbors(VertexID(v)) {
			if _, err := fmt.Fprintf(bw, "%d %d\n", v, dst); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
