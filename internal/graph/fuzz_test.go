package graph

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
)

// FuzzReadEdgeList exercises the text parser with arbitrary input: it must
// never panic, and any graph it accepts must validate and round-trip.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\n% other\n\n5 5\n")
	f.Add("a b\n")
	f.Add("0\n")
	f.Add("-1 4\n")
	f.Add("4294967295 0\n")
	f.Add("99999999999999999999 1\n")
	f.Add("0 1 extra tokens are fine\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeList(bytes.NewBufferString(input), 0)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		g2, err := ReadEdgeList(&buf, g.NumVertices())
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed edge count: %d -> %d", g.NumEdges(), g2.NumEdges())
		}
	})
}

// FuzzReadMutationBatches exercises the mutation-stream parser with
// arbitrary text: it must never panic, and any stream it accepts must
// round-trip through WriteMutationBatches without changing a single batch
// or mutation — the property the reload endpoint and the dynamic-replay
// harness rely on.
func FuzzReadMutationBatches(f *testing.F) {
	f.Add("+ 0 1\n- 1 2\ncommit\n+ 3 4\ncommit\n")
	f.Add("# comment\n% other\n\n+ 5 5\n")
	f.Add("commit\ncommit\n")
	f.Add("+ 1 2\n")
	f.Add("* 1 2\n")
	f.Add("+ -1 4\n")
	f.Add("+ 4294967295 0\n")
	f.Add("+ 99999999999999999999 1\n")
	f.Add("+ 1 2 extra tokens are fine\ncommit\n")
	f.Fuzz(func(t *testing.T, input string) {
		batches, err := ReadMutationBatches(bytes.NewBufferString(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteMutationBatches(&buf, batches); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		again, err := ReadMutationBatches(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(again) != len(batches) {
			t.Fatalf("round trip changed batch count: %d -> %d", len(batches), len(again))
		}
		for i := range batches {
			if len(again[i]) != len(batches[i]) {
				t.Fatalf("batch %d changed size: %d -> %d", i, len(batches[i]), len(again[i]))
			}
			for j, m := range batches[i] {
				if again[i][j] != m {
					t.Fatalf("batch %d mutation %d changed: %+v -> %+v", i, j, m, again[i][j])
				}
			}
		}
	})
}

// FuzzReadBinary exercises the binary loader with arbitrary bytes: it must
// reject malformed input with an error, never panic or accept an invalid
// graph. Read as a stream, read with its length known (LoadBinary's path)
// and read through a tiny block, every input gets the same verdict and the
// same graph, and every accepted input rewrites through WriteBinary to
// exactly the bytes it was read from.
func FuzzReadBinary(f *testing.F) {
	// Seed with a valid file and some mutations.
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(2, 0)
	g := b.Build()
	var valid bytes.Buffer
	if err := WriteBinary(&valid, g); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add([]byte("HGR1"))
	corrupted := append([]byte(nil), valid.Bytes()...)
	if len(corrupted) > 20 {
		corrupted[20] ^= 0xFF
	}
	f.Add(corrupted)
	// An in-form file (flag bit 0) whose arrays cross the tiny block.
	var withIn bytes.Buffer
	if err := WriteBinary(&withIn, blockGraph(smallBlock/8+2, smallBlock/4+1, true)); err != nil {
		f.Fatal(err)
	}
	f.Add(withIn.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		sized, serr := readBinary(bytes.NewReader(data), int64(len(data)), make([]byte, binBlock))
		tiny, terr := readBinary(bytes.NewReader(data), -1, make([]byte, smallBlock))
		if (err == nil) != (serr == nil) || (err == nil) != (terr == nil) {
			t.Fatalf("readers disagree: stream %v, sized %v, tiny block %v", err, serr, terr)
		}
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
		sameGraph(t, sized, g)
		sameGraph(t, tiny, g)
		var out bytes.Buffer
		if err := WriteBinary(&out, g); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		if out.Len() > len(data) || !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatalf("accepted %d bytes rewrite to %d different ones", len(data), out.Len())
		}
	})
}

// FuzzBuildMatchesReference checks Builder.Build against referenceBuild on
// arbitrary edge lists. The input is read as a little-endian uint16 vertex
// count minus one, a flags byte (bit 0 Dedup, bit 1 RemoveSelfLoops), then
// 4-byte (src, dst) pairs of uint16s taken modulo the vertex count. A small
// vertex count piles every edge into a few long rows, so inputs of a few
// hundred bytes already reach the radix-sorted rows.
func FuzzBuildMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0, 3, 0, 0, 1, 0, 1, 0, 1, 0, 2, 0, 2, 0, 2, 0})
	long := []byte{0, 0, 1}
	for i := 0; i < 2*shortRow; i++ {
		long = binary.LittleEndian.AppendUint16(long, 0)
		long = binary.LittleEndian.AppendUint16(long, uint16(7919*i))
	}
	f.Add(long)
	// f.Add keeps its slice, so the second seed needs its own copy.
	wide := slices.Clone(long)
	wide[0], wide[2] = 255, 2
	f.Add(wide)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := int(binary.LittleEndian.Uint16(data)) + 1
		dedup, noLoops := data[2]&1 != 0, data[2]&2 != 0
		var edges []Edge
		for rest := data[3:]; len(rest) >= 4; rest = rest[4:] {
			src := int(binary.LittleEndian.Uint16(rest)) % n
			dst := int(binary.LittleEndian.Uint16(rest[2:])) % n
			edges = append(edges, Edge{VertexID(src), VertexID(dst)})
		}
		wantOff, wantOut := referenceBuild(n, edges, dedup, noLoops)
		for _, par := range []int{1, 3} {
			if err := buildMismatch(n, edges, dedup, noLoops, par, wantOff, wantOut); err != nil {
				t.Fatalf("n=%d dedup=%v noLoops=%v parallelism %d: %v", n, dedup, noLoops, par, err)
			}
		}
	})
}
