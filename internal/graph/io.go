package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Binary graph format ("HGR1"):
//
//	magic    [4]byte  "HGR1"
//	version  uint32   1
//	vertices uint64
//	edges    uint64
//	flags    uint32   bit 0: in-edge form present
//	outOffsets [vertices+1]int64
//	outEdges   [edges]uint32
//	(if flag) inOffsets  [vertices+1]int64
//	(if flag) inEdges    [edges]uint32
//
// All integers little-endian.

var binMagic = [4]byte{'H', 'G', 'R', '1'}

const binVersion = 1

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
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(binMagic[:]); err != nil {
		return err
	}
	in := g.in.Load()
	var flags uint32
	if in != nil {
		flags |= 1
	}
	for _, v := range []uint64{binVersion, uint64(g.numVertices), uint64(g.numEdges), uint64(flags)} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := writeInt64s(bw, g.outOffsets); err != nil {
		return err
	}
	if err := writeUint32s(bw, g.outEdges); err != nil {
		return err
	}
	if in != nil {
		if err := writeInt64s(bw, in.offsets); err != nil {
			return err
		}
		if err := writeUint32s(bw, in.edges); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary deserialises a graph written by WriteBinary.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if magic != binMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic)
	}
	var hdr [4]uint64
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("graph: reading header: %w", err)
		}
	}
	version, nv, ne, flags := hdr[0], hdr[1], hdr[2], hdr[3]
	if version != binVersion {
		return nil, fmt.Errorf("graph: unsupported version %d", version)
	}
	// Cap header sizes so a corrupt or hostile file cannot trigger a huge
	// allocation before any content validation runs.
	if nv > MaxVertices || ne > MaxEdges {
		return nil, fmt.Errorf("graph: implausible header (v=%d e=%d)", nv, ne)
	}
	g := &Graph{numVertices: int(nv), numEdges: int64(ne)}
	var err error
	if g.outOffsets, err = readInt64s(br, int(nv)+1); err != nil {
		return nil, err
	}
	if g.outEdges, err = readUint32s(br, int(ne)); err != nil {
		return nil, err
	}
	if flags&1 != 0 {
		inOff, err := readInt64s(br, int(nv)+1)
		if err != nil {
			return nil, err
		}
		inE, err := readUint32s(br, int(ne))
		if err != nil {
			return nil, err
		}
		g.setIn(inOff, inE)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
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

// LoadBinary reads a graph from the named file.
func LoadBinary(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(f)
}

func writeInt64s(w io.Writer, xs []int64) error {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
	}
	return nil
}

func writeUint32s(w io.Writer, xs []uint32) error {
	var buf [4]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint32(buf[:], x)
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
	}
	return nil
}

func readInt64s(r io.Reader, n int) ([]int64, error) {
	xs := make([]int64, n)
	var buf [8]byte
	for i := range xs {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return nil, fmt.Errorf("graph: reading int64 array: %w", err)
		}
		xs[i] = int64(binary.LittleEndian.Uint64(buf[:]))
	}
	return xs, nil
}

func readUint32s(r io.Reader, n int) ([]uint32, error) {
	xs := make([]uint32, n)
	var buf [4]byte
	for i := range xs {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return nil, fmt.Errorf("graph: reading uint32 array: %w", err)
		}
		xs[i] = binary.LittleEndian.Uint32(buf[:])
	}
	return xs, nil
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
