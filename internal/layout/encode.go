package layout

import (
	"math"

	"hipa/internal/graph"
	"hipa/internal/par"
)

// A pull stores its index entries chunk by chunk in one stream of uint16s,
// Enc; chunk c's encoding is Enc[Off[c]:Off[c+1]]. A chunk of w steps (w =
// (Chunk[c+1]−Chunk[c])/PullLanes) is encoded one of two ways, and its
// size tells which:
//
//   - wide, 2·PullLanes·w uint16s: the entries column-major as 32-bit
//     indices, low half first, a padding entry being the pull's sink;
//   - narrow, PullLanes·(w+1) uint16s: step 0 as a wide chunk's, PullLanes
//     32-bit first indices (the sink for a lane with an empty row), then
//     for each later step k one uint16 per lane: the difference from the
//     lane's entry k−1 to its entry k, EndOfRow at the step into the
//     lane's padding, and 0 past it.
//
// In a pull stored narrow where it can be, the encoder writes a chunk
// narrow exactly when it has at least two steps (at one step the two
// encodings are the same) and every difference within every lane's row is
// below EndOfRow: a data rule, not a setting. A kernel
// decodes a narrow step with one widening load and one add, and sets a
// lane at EndOfRow to the sink, which the pull's +0 slot answers, so both
// encodings add the same values in the same order.
const EndOfRow = math.MaxUint16

// narrowSize and wideSize are the encoded sizes, in uint16s, of a chunk of
// w steps; they differ for every w ≥ 2.
func narrowSize(w int64) int64 { return PullLanes * (w + 1) }
func wideSize(w int64) int64   { return 2 * PullLanes * w }

// Steps returns the number of steps of chunk c: its width, the row length
// of its first lane.
func (s *SELL) Steps(c int) int64 { return (s.Chunk[c+1] - s.Chunk[c]) / PullLanes }

// Narrow reports whether chunk c is stored narrow.
func (s *SELL) Narrow(c int) bool {
	w := s.Steps(c)
	return w >= 2 && s.Off[c+1]-s.Off[c] == narrowSize(w)
}

// Entries returns the pull's entry count, padding included: what a dense
// pass over it adds, whatever its encoding.
func (s *SELL) Entries() int64 { return s.Chunk[len(s.Chunk)-1] }

// chunkSize returns the encoded size of a chunk, narrow if narrow is set
// and the rule allows: idx holds its entries column-major as 32-bit
// indices, PullLanes per step, each lane's row followed by sink entries.
func chunkSize(idx []graph.VertexID, sink graph.VertexID, narrow bool) int64 {
	const lanes = PullLanes
	w := len(idx) / lanes
	if !narrow || w < 2 {
		return wideSize(int64(w))
	}
	// A step from a row's end (prev == sink) to an entry below the sink
	// wraps past 2^31 > EndOfRow, so one test covers it.
	next := idx[lanes:]
	for j, x := range next {
		if x != sink && x-idx[j] >= EndOfRow {
			return wideSize(int64(w))
		}
	}
	return narrowSize(int64(w))
}

// putChunk writes the encoding of the chunk whose entries idx holds into
// enc, which is as long as chunkSize says: wide or narrow by its length.
func putChunk(enc []uint16, idx []graph.VertexID, sink graph.VertexID) {
	const lanes = PullLanes
	if len(enc) == 2*len(idx) {
		for e, x := range idx {
			enc[2*e], enc[2*e+1] = uint16(x), uint16(x>>16)
		}
		return
	}
	for i, x := range idx[:lanes] {
		enc[2*i], enc[2*i+1] = uint16(x), uint16(x>>16)
	}
	next := idx[lanes:]
	steps := enc[2*lanes:][:len(next)]
	for j, x := range next {
		prev := idx[j]
		d := uint16(x - prev)
		if x == sink {
			d = EndOfRow
		}
		if prev == sink {
			d = 0
		}
		steps[j] = d
	}
}

// encode returns partition p's chunks encoded from idx, p's entries from
// its first chunk's, narrow where the rule allows, in a buffer of their
// size, and sets each chunk's encoded size in Off[c+1] for join.
func (s *SELL) encode(p int, idx []graph.VertexID, sink graph.VertexID) []uint16 {
	clo, chi, base := int(s.Part[p]), int(s.Part[p+1]), s.Chunk[s.Part[p]]
	var size int64
	for c := clo; c < chi; c++ {
		s.Off[c+1] = chunkSize(idx[s.Chunk[c]-base:s.Chunk[c+1]-base], sink, true)
		size += s.Off[c+1]
	}
	enc := make([]uint16, size)
	var o int64
	for c := clo; c < chi; c++ {
		putChunk(enc[o:o+s.Off[c+1]], idx[s.Chunk[c]-base:s.Chunk[c+1]-base], sink)
		o += s.Off[c+1]
	}
	return enc
}

// join turns the chunks' encoded sizes into offsets and copies each
// partition p's encoding, parts[p], into Enc, on workers workers.
func (s *SELL) join(parts [][]uint16, workers int) {
	for c := 0; c+1 < len(s.Off); c++ {
		s.Off[c+1] += s.Off[c]
	}
	s.Enc = make([]uint16, s.Off[len(s.Off)-1])
	par.Blocks(workers, len(parts), func(_, lo, hi int) {
		for p := lo; p < hi; p++ {
			copy(s.Enc[s.Off[s.Part[p]]:], parts[p])
		}
	})
}

// Encode sets Off and Enc from idx, the pull's entries column-major as
// 32-bit indices over Chunk's offsets, padded with sink, storing a chunk
// narrow where narrow is set and the rule allows. Build writes the same
// bytes in place as it fills a pull (Validate checks that they are
// these); Encode is for pulls built elsewhere.
func (s *SELL) Encode(idx []graph.VertexID, sink graph.VertexID, narrow bool) {
	s.Off = make([]int64, len(s.Chunk))
	for c := 0; c+1 < len(s.Chunk); c++ {
		s.Off[c+1] = s.Off[c] + chunkSize(idx[s.Chunk[c]:s.Chunk[c+1]], sink, narrow)
	}
	s.Enc = make([]uint16, s.Off[len(s.Off)-1])
	for c := 0; c+1 < len(s.Chunk); c++ {
		putChunk(s.Enc[s.Off[c]:s.Off[c+1]], idx[s.Chunk[c]:s.Chunk[c+1]], sink)
	}
}

// Decoder decodes one chunk of a pull step by step into its entries as
// 32-bit indices, PullLanes a step, each lane's row followed by the sink,
// whatever the chunk's encoding; it is a value and allocates nothing.
type Decoder struct {
	enc    []uint16
	k, w   int64 // the next step, the chunk's steps
	x      [PullLanes]uint32
	sink   uint32
	narrow bool
}

// Decoder returns a decoder of chunk c, whose pull's sink is sink.
func (s *SELL) Decoder(c int, sink graph.VertexID) Decoder {
	return Decoder{enc: s.Enc[s.Off[c]:s.Off[c+1]], w: s.Steps(c), sink: sink, narrow: s.Narrow(c)}
}

// Next decodes the chunk's next steps, as many as fill dst, a whole
// number of steps, into dst and returns them; it returns an empty slice
// past the chunk's last step.
func (d *Decoder) Next(dst []graph.VertexID) []graph.VertexID {
	const lanes = PullLanes
	out := dst[:min(d.w-d.k, int64(len(dst)/lanes))*lanes]
	if !d.narrow {
		src := d.enc[2*lanes*d.k : 2*(lanes*d.k+int64(len(out)))]
		for j := range out {
			out[j] = uint32(src[2*j]) | uint32(src[2*j+1])<<16
		}
		d.k += int64(len(out) / lanes)
		return out
	}
	for j := 0; j < len(out); j += lanes {
		x := &d.x
		if d.k == 0 {
			for i := range x {
				x[i] = uint32(d.enc[2*i]) | uint32(d.enc[2*i+1])<<16
			}
		} else {
			step := d.enc[lanes*(d.k+1) : lanes*(d.k+2)]
			for i, dx := range step {
				if dx == EndOfRow {
					x[i] = d.sink
				} else {
					x[i] += uint32(dx)
				}
			}
		}
		copy(out[j:j+lanes], x[:])
		d.k++
	}
	return out
}

// Decode returns the pull's entries as 32-bit indices, column-major over
// Chunk's offsets, each lane's row followed by sink: what Encode encodes.
func (s *SELL) Decode(sink graph.VertexID) []graph.VertexID {
	idx := make([]graph.VertexID, s.Entries())
	for c := 0; c+1 < len(s.Chunk); c++ {
		d := s.Decoder(c, sink)
		d.Next(idx[s.Chunk[c]:s.Chunk[c+1]])
	}
	return idx
}
