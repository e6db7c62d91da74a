package common

import (
	"math"

	"hipa/internal/graph"
	"hipa/internal/layout"
)

// The two hot loops of the dense superstep, the intra pull and the rank
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

// PullSELL stores in acc[v], for each vertex v of lay's pull chunks
// [clo,chi), the sum of contrib[u] over v's intra in-neighbours u in
// ascending order, starting from +0. contrib needs len(acc)+1 slots: slot
// n = len(acc) is the sink that padding entries read, and it must hold +0.
// A chunk's eight lanes are eight independent add chains. Padding lanes,
// which only end a partition's last chunk, are not stored.
func PullSELL(lay *layout.Layout, contrib, acc []float32, clo, chi int) {
	if useAVX2 {
		pullSELLAVX2(lay, contrib, acc, clo, chi)
		return
	}
	pullSELLScalar(lay, contrib, acc, clo, chi)
}

func pullSELLScalar(lay *layout.Layout, contrib, acc []float32, clo, chi int) {
	const lanes = layout.PullLanes
	off, idx, perm := lay.PullChunk, lay.PullIdx, lay.PullPerm
	sink := graph.VertexID(len(acc))
	for c := clo; c < chi; c++ {
		var s0, s1, s2, s3, s4, s5, s6, s7 float32
		for e, end := off[c], off[c+1]; e < end; e += lanes {
			r := idx[e : e+lanes : e+lanes]
			s0 += contrib[r[0]]
			s1 += contrib[r[1]]
			s2 += contrib[r[2]]
			s3 += contrib[r[3]]
			s4 += contrib[r[4]]
			s5 += contrib[r[5]]
			s6 += contrib[r[6]]
			s7 += contrib[r[7]]
		}
		v := perm[c*lanes : c*lanes+lanes : c*lanes+lanes]
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

// updateRanks sets, for each vertex i of the equal-length slices, ranks[i]
// = (base + d·acc[i]) + redis and contrib[i] = ranks[i]·inv[i]. It returns
// the running L∞ rank change folded from res and the dangling mass (inv ==
// 0) under the new ranks, summed in vertex order from +0.
func updateRanks(ranks, contrib, acc, inv []float32, d, base, redis float32, res float64) (float64, float64) {
	var dangling float64
	if useAVX2 {
		m := len(ranks) &^ 7
		res, dangling = updateRanksAVX2(ranks[:m], contrib, acc, inv, d, base, redis, res)
		ranks, contrib, acc, inv = ranks[m:], contrib[m:], acc[m:], inv[m:]
	}
	return updateRanksScalar(ranks, contrib, acc, inv, d, base, redis, res, dangling)
}

// updateRanksScalar is updateRanks continuing a dangling sum. The explicit
// float32 conversion of d·acc keeps the compiler from fusing it with the
// add: arm64 would otherwise emit one multiply-add, which rounds once, so
// its ranks would differ from amd64's.
func updateRanksScalar(ranks, contrib, acc, inv []float32, d, base, redis float32, res, dangling float64) (float64, float64) {
	n := len(ranks)
	contrib, acc, inv = contrib[:n], acc[:n], inv[:n]
	v := 0
	// 4-way unrolled rank update. Each vertex is independent, the residual
	// max is order-insensitive, and the dangling adds stay in vertex order,
	// so the unroll is bit-identical to the scalar loop.
	for ; v+4 <= n; v += 4 {
		old0, old1, old2, old3 := ranks[v], ranks[v+1], ranks[v+2], ranks[v+3]
		nv0 := base + float32(d*acc[v]) + redis
		nv1 := base + float32(d*acc[v+1]) + redis
		nv2 := base + float32(d*acc[v+2]) + redis
		nv3 := base + float32(d*acc[v+3]) + redis
		ranks[v], ranks[v+1], ranks[v+2], ranks[v+3] = nv0, nv1, nv2, nv3
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
		res = maxAbsDiff4(res, nv0, old0, nv1, old1, nv2, old2, nv3, old3)
	}
	for ; v < n; v++ {
		old := ranks[v]
		nv := base + float32(d*acc[v]) + redis
		ranks[v] = nv
		contrib[v] = nv * inv[v]
		if inv[v] == 0 {
			dangling += float64(nv)
		}
		if diff := math.Abs(float64(nv - old)); diff > res {
			res = diff
		}
	}
	return res, dangling
}

// maxAbsDiff4 folds four |new-old| rank deltas into a running maximum.
// math.Abs clears the sign bit instead of branching on it: the sign of a
// rank change is data-random, so a branch would mispredict. A NaN delta
// fails every compare and is skipped, as in the scalar fold.
func maxAbsDiff4(res float64, n0, o0, n1, o1, n2, o2, n3, o3 float32) float64 {
	d0 := math.Abs(float64(n0 - o0))
	d1 := math.Abs(float64(n1 - o1))
	d2 := math.Abs(float64(n2 - o2))
	d3 := math.Abs(float64(n3 - o3))
	if d0 > res {
		res = d0
	}
	if d1 > res {
		res = d1
	}
	if d2 > res {
		res = d2
	}
	if d3 > res {
		res = d3
	}
	return res
}
