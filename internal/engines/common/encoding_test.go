package common

import (
	"math"
	"math/rand/v2"
	"testing"

	"hipa/internal/graph"
	"hipa/internal/layout"
)

// encodingN is the vertex count of FuzzSELLEncodingBitExact's pulls: room
// for rows whose steps are 2^16 and more.
const encodingN = 1 << 22

// encodingSteps are the steps between consecutive entries of a row that
// FuzzSELLEncodingBitExact draws from: a repeated entry, small steps, the
// largest narrow step, the end-of-row value and the steps past it, and a
// large one.
var encodingSteps = []uint32{0, 1, 2, 300, layout.EndOfRow - 1, layout.EndOfRow, 1 << 16, 1<<16 + 1, 1 << 20}

// encodingRows draws the rows of a pull, chunk by chunk: each chunk of
// PullLanes rows gets a longest row of 0 to 2 entries or up to 40, and each
// row a length up to it and steps from encodingSteps (mostly small), so
// chunks of width 0 and 1, empty rows and padding all occur; a last
// chunk of fewer than PullLanes rows leaves padding lanes.
func encodingRows(rng *rand.Rand, chunks int) [][]graph.VertexID {
	var rows [][]graph.VertexID
	for c := 0; c < chunks; c++ {
		width := []int{0, 1, 2, rng.IntN(41)}[rng.IntN(4)]
		lanes := layout.PullLanes
		if c == chunks-1 {
			lanes = 1 + rng.IntN(layout.PullLanes)
		}
		for range lanes {
			var row []graph.VertexID
			x := rng.Uint32N(encodingN / 4)
			for range rng.IntN(width + 1) {
				if len(row) > 0 {
					step := encodingSteps[rng.IntN(4)]
					if rng.IntN(3) == 0 {
						step = encodingSteps[rng.IntN(len(encodingSteps))]
					}
					if x+step >= encodingN {
						break
					}
					x += step
				}
				row = append(row, x)
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// FuzzSELLEncodingBitExact: a pull of random rows (see encodingRows) is
// stored narrow exactly where the encoder's rule allows — at least two
// steps, every step within a row below layout.EndOfRow — its rows decode
// back through layout.Decoder, and both kernel sets, from +0 (PullSELL) and
// from the accumulators (AddSELL), over the whole pull and a random chunk
// range, store for every row the float32 sum of its values added one at a
// time in row order.
func FuzzSELLEncodingBitExact(f *testing.F) {
	f.Add(uint64(1), uint8(6))
	f.Add(uint64(2), uint8(1))
	f.Add(uint64(3), uint8(20))
	vals := randomContrib(rand.New(rand.NewPCG(41, 0)), encodingN)
	acc0, acc := make([]float32, encodingN), make([]float32, encodingN)
	f.Fuzz(func(t *testing.T, seed uint64, chunks uint8) {
		rng := rand.New(rand.NewPCG(seed, 5))
		rows := encodingRows(rng, 1+int(chunks)%24)
		lay := chunkSELL(encodingN, rows)
		for c := 0; c+1 < len(lay.Chunk); c++ {
			w := lay.Steps(c)
			narrow := w >= 2
			for _, v := range lay.Lanes(c) {
				if int(v) >= len(rows) {
					continue
				}
				for k := 1; k < len(rows[v]); k++ {
					if rows[v][k]-rows[v][k-1] >= layout.EndOfRow {
						narrow = false
					}
				}
			}
			if lay.Narrow(c) != narrow {
				t.Fatalf("chunk %d of %d steps stored narrow %v, the rule says %v", c, w, lay.Narrow(c), narrow)
			}
			dec := lay.Decoder(c, encodingN)
			got := dec.Next(make([]graph.VertexID, lay.Chunk[c+1]-lay.Chunk[c]))
			for i, v := range lay.Lanes(c) {
				for k := 0; k < int(w); k++ {
					want := graph.VertexID(encodingN)
					if int(v) < len(rows) && k < len(rows[v]) {
						want = rows[v][k]
					}
					if x := got[k*layout.PullLanes+i]; x != want {
						t.Fatalf("chunk %d lane %d decodes %d at step %d, want %d", c, i, x, k, want)
					}
				}
			}
		}
		for v := range rows {
			acc0[v] = rng.Float32()
		}
		chunksAll := len(lay.Chunk) - 1
		clo := rng.IntN(chunksAll + 1)
		chi := clo + rng.IntN(chunksAll-clo+1)
		for _, rng := range [][2]int{{0, chunksAll}, {clo, chi}} {
			for _, add := range []bool{false, true} {
				want := make([]float32, len(rows))
				for c := rng[0]; c < rng[1]; c++ {
					for _, v := range lay.Lanes(c) {
						if int(v) >= len(rows) || (add && lay.Steps(c) == 0) {
							continue
						}
						var sum float32
						if add {
							sum = acc0[v]
						}
						for _, x := range rows[v] {
							sum += vals[x]
						}
						want[v] = sum
					}
				}
				for _, avx2 := range []bool{false, true} {
					if avx2 && !hasAVX2 {
						continue
					}
					copy(acc, acc0[:len(rows)])
					withKernels(avx2, func() { pullSELL(lay, vals, acc, rng[0], rng[1], add) })
					for c := rng[0]; c < rng[1]; c++ {
						for _, v := range lay.Lanes(c) {
							if int(v) >= len(rows) || (add && lay.Steps(c) == 0) {
								continue
							}
							if math.Float32bits(acc[v]) != math.Float32bits(want[v]) {
								t.Fatalf("avx2 %v, add %v, chunks [%d,%d): row %d sums to %v, want %v", avx2, add, rng[0], rng[1], v, acc[v], want[v])
							}
						}
					}
				}
			}
		}
	})
}
