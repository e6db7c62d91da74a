package common

import (
	"fmt"
	"math"

	"hipa/internal/graph"
	"hipa/internal/layout"
)

// The hot loops of the dense superstep, the two pulls and the rank
// update, have an AVX2 kernel on amd64 (kernels_amd64.s) and the scalar Go
// loops below everywhere else. The kernel set is chosen once, at init, from
// the CPU's features: AVX2 plus OS support for the YMM state. Builds for
// other architectures, and builds with -tags purego, compile only the
// scalar loops. Both sets produce bit-identical results (DESIGN §4b,
// "Vector kernels").

// useAVX2 selects the AVX2 kernels. It starts as hasAVX2; tests and
// benchmarks switch it to compare the two sets in one process.
var useAVX2 = hasAVX2

// KernelSet names the active kernel set: "avx2" or "scalar".
func KernelSet() string {
	if useAVX2 {
		return "avx2"
	}
	return "scalar"
}

// PullSELL stores in acc[v], for each vertex v of pull's chunks [clo,chi),
// the sum of vals[x] over the entries x of v's row in order, starting from
// +0. The pull's sink, which pads its rows, is len(vals)-1, and that slot
// must hold +0; len(acc) is the vertex count, the lane sink. A chunk's
// eight lanes are eight independent add chains. Padding lanes, which only
// end a partition's last chunk, are not stored.
func PullSELL(pull *layout.SELL, vals, acc []float32, clo, chi int) {
	pullSELL(pull, vals, acc, clo, chi, false)
}

// AddSELL is PullSELL with each lane's sum starting from acc[v] instead of
// +0: it adds v's row to acc[v], one add at a time in row order. A chunk
// with no entries is left as it is.
func AddSELL(pull *layout.SELL, vals, acc []float32, clo, chi int) {
	pullSELL(pull, vals, acc, clo, chi, true)
}

func pullSELL(pull *layout.SELL, vals, acc []float32, clo, chi int, add bool) {
	if useAVX2 {
		pullSELLAVX2(pull, vals, acc, clo, chi, add)
		return
	}
	pullSELLScalar(pull, vals, acc, clo, chi, add)
}

func pullSELLScalar(pull *layout.SELL, vals, acc []float32, clo, chi int, add bool) {
	const lanes = layout.PullLanes
	sink := graph.VertexID(len(acc))
	end := uint32(len(vals) - 1)
	for c := clo; c < chi; c++ {
		w := pull.Steps(c)
		if add && w == 0 {
			continue
		}
		v := pull.Lanes(c)
		var s [lanes]float32
		if add {
			for i, u := range v {
				if u != sink {
					s[i] = acc[u]
				}
			}
		}
		s0, s1, s2, s3, s4, s5, s6, s7 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
		enc := pull.Enc[pull.Off[c]:pull.Off[c+1]]
		if pull.Narrow(c) {
			r := enc[:2*lanes]
			x0, x1, x2, x3 := u32(r[0], r[1]), u32(r[2], r[3]), u32(r[4], r[5]), u32(r[6], r[7])
			x4, x5, x6, x7 := u32(r[8], r[9]), u32(r[10], r[11]), u32(r[12], r[13]), u32(r[14], r[15])
			for enc = enc[2*lanes:]; ; enc = enc[lanes:] {
				s0 += vals[x0]
				s1 += vals[x1]
				s2 += vals[x2]
				s3 += vals[x3]
				s4 += vals[x4]
				s5 += vals[x5]
				s6 += vals[x6]
				s7 += vals[x7]
				if len(enc) == 0 {
					break
				}
				d := enc[:lanes:lanes]
				x0, x1, x2, x3 = step(x0, d[0], end), step(x1, d[1], end), step(x2, d[2], end), step(x3, d[3], end)
				x4, x5, x6, x7 = step(x4, d[4], end), step(x5, d[5], end), step(x6, d[6], end), step(x7, d[7], end)
			}
		} else {
			if int64(len(enc)) != 2*lanes*w {
				panic(fmt.Sprintf("common: corrupt pull layout: chunk %d of %d steps is encoded in %d uint16s", c, w, len(enc)))
			}
			for ; len(enc) != 0; enc = enc[2*lanes:] {
				r := enc[: 2*lanes : 2*lanes]
				s0 += vals[u32(r[0], r[1])]
				s1 += vals[u32(r[2], r[3])]
				s2 += vals[u32(r[4], r[5])]
				s3 += vals[u32(r[6], r[7])]
				s4 += vals[u32(r[8], r[9])]
				s5 += vals[u32(r[10], r[11])]
				s6 += vals[u32(r[12], r[13])]
				s7 += vals[u32(r[14], r[15])]
			}
		}
		if v[lanes-1] == sink {
			sums := [lanes]float32{s0, s1, s2, s3, s4, s5, s6, s7}
			for i, u := range v {
				if u != sink {
					acc[u] = sums[i]
				}
			}
			continue
		}
		acc[v[0]], acc[v[1]], acc[v[2]], acc[v[3]] = s0, s1, s2, s3
		acc[v[4]], acc[v[5]], acc[v[6]], acc[v[7]] = s4, s5, s6, s7
	}
}

// u32 joins a wide entry's halves.
func u32(lo, hi uint16) uint32 { return uint32(lo) | uint32(hi)<<16 }

// step decodes one narrow step of a lane at index x: EndOfRow moves it to
// the pull's sink, any other difference adds.
func step(x uint32, d uint16, sink uint32) uint32 {
	if d == layout.EndOfRow {
		return sink
	}
	return x + uint32(d)
}

// PushCSR adds vals[u] to acc[d] for each out-edge (u,d) of each source u
// of src, in src's order, over the out-CSR off/adj: the edges whose
// destination lies in [lo,hi) when inside is set, the others otherwise.
// With src ascending, each destination receives its addends in ascending
// source order, the order in which a pull row sums them, so a push over
// the sources of non-zero value into a zeroed acc is bit-identical to
// the pull (DESIGN §4i, "Sparse start"). A repeated edge adds twice, as
// its repeated pull entry does. Scalar and serial: it is the sparse
// direction, for frontiers far below the pull's entries (PushPays).
func PushCSR(off []int64, adj []graph.VertexID, vals, acc []float32, src []graph.VertexID, lo, hi graph.VertexID, inside bool) {
	span := uint32(hi - lo)
	for _, u := range src {
		c := vals[u]
		for _, d := range adj[off[u]:off[u+1]] {
			if (uint32(d-lo) < span) == inside {
				acc[d] += c
			}
		}
	}
}

// pushShare is the direction switch of B-PPR's sparse start and Delta-PR's
// scatter: a push pays while its sources' out-edges are fewer than
// 1/pushShare of the pull entries it replaces. A journal-shaped PPR
// frontier of 18% of the edges pushed slower than it pulled (EXPERIMENTS
// "Sparse start").
const pushShare = 20

// PushPays reports whether pushing sources of edges out-edges beats
// pulling entries pull entries: GBBS's direction switch (Dhulipala et al.).
func PushPays(edges, entries int64) bool { return edges*pushShare < entries }

// UpdateRanks sets, for each vertex i of the equal-length slices, next[i]
// = ((base + d·acc[i]) + redis) + add[i] and contrib[i] = next[i]·inv[i],
// reading the old rank from ranks[i] before it writes next[i], so next may
// be ranks itself. An empty add is no addend: the rank is (base + d·acc[i])
// + redis. It returns the running L∞ rank change folded from res (NaN
// skipped) and the dangling mass (inv == 0) under the new ranks, summed in
// vertex order from +0.
func UpdateRanks(ranks, next, contrib, acc, inv, add []float32, d, base, redis float32, res float64) (float64, float64) {
	var dangling float64
	if useAVX2 {
		m := len(ranks) &^ 7
		res, dangling = updateRanksAVX2(ranks[:m], next, contrib, acc, inv, add, d, base, redis, res)
		ranks, next, contrib, acc, inv = ranks[m:], next[m:], contrib[m:], acc[m:], inv[m:]
		if len(add) != 0 {
			add = add[m:]
		}
	}
	return updateRanksScalar(ranks, next, contrib, acc, inv, add, d, base, redis, res, dangling)
}

// updateRanksScalar is UpdateRanks continuing a dangling sum. The explicit
// float32 conversion of d·acc keeps the compiler from fusing it with the
// add: arm64 would otherwise emit one multiply-add, which rounds once, so
// its ranks would differ from amd64's.
func updateRanksScalar(ranks, next, contrib, acc, inv, add []float32, d, base, redis float32, res, dangling float64) (float64, float64) {
	n := len(ranks)
	next, contrib, acc, inv = next[:n], contrib[:n], acc[:n], inv[:n]
	if len(add) != 0 {
		add = add[:n]
	}
	v := 0
	// 4-way unrolled rank update without an addend. Each vertex is
	// independent, the residual max is order-insensitive, and the dangling
	// adds stay in vertex order, so the unroll is bit-identical to the
	// one-vertex loop below, which runs the rest and every addend. The old
	// ranks are read before the new ones are written, for next == ranks.
	if len(add) == 0 {
		for ; v+4 <= n; v += 4 {
			old0, old1, old2, old3 := ranks[v], ranks[v+1], ranks[v+2], ranks[v+3]
			nv0 := base + float32(d*acc[v]) + redis
			nv1 := base + float32(d*acc[v+1]) + redis
			nv2 := base + float32(d*acc[v+2]) + redis
			nv3 := base + float32(d*acc[v+3]) + redis
			next[v], next[v+1], next[v+2], next[v+3] = nv0, nv1, nv2, nv3
			iv0, iv1, iv2, iv3 := inv[v], inv[v+1], inv[v+2], inv[v+3]
			contrib[v], contrib[v+1], contrib[v+2], contrib[v+3] = nv0*iv0, nv1*iv1, nv2*iv2, nv3*iv3
			if iv0 == 0 {
				dangling += float64(nv0)
			}
			if iv1 == 0 {
				dangling += float64(nv1)
			}
			if iv2 == 0 {
				dangling += float64(nv2)
			}
			if iv3 == 0 {
				dangling += float64(nv3)
			}
			res = maxAbsDiff(res, nv0, old0)
			res = maxAbsDiff(res, nv1, old1)
			res = maxAbsDiff(res, nv2, old2)
			res = maxAbsDiff(res, nv3, old3)
		}
	}
	for ; v < n; v++ {
		old := ranks[v]
		nv := base + float32(d*acc[v]) + redis
		if len(add) != 0 {
			nv += add[v]
		}
		next[v] = nv
		contrib[v] = nv * inv[v]
		if inv[v] == 0 {
			dangling += float64(nv)
		}
		res = maxAbsDiff(res, nv, old)
	}
	return res, dangling
}

// maxAbsDiff folds one |new-old| rank change into a running maximum; it
// inlines, so the unrolled loop keeps its operands in registers.
// math.Abs clears the sign bit instead of branching on it: the sign of a
// rank change is data-random, so a branch would mispredict. A NaN change
// fails the compare and is skipped.
func maxAbsDiff(res float64, nv, old float32) float64 {
	if d := math.Abs(float64(nv - old)); d > res {
		return d
	}
	return res
}
