//go:build amd64 && !purego

package common

import (
	"fmt"
	"math"

	"hipa/internal/graph"
	"hipa/internal/layout"
)

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM state
// (CPUID.1:ECX.OSXSAVE and .AVX, XCR0 bits 1 and 2, CPUID.7.0:EBX.AVX2).
var hasAVX2 = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}()

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// pullAVX2 runs the intra pull over the chunks whose offsets are off, with
// perm their lanes (8 per chunk) and n = len(acc) the sink. Each 8-entry
// step is one gather of contrib plus one add, lane by lane as the scalar
// chains. Every index is clamped to n before the gather and every lane
// ≥ n is left unstored, so a corrupt layout reads and writes nothing out
// of bounds. It returns the largest index and lane seen, or maxIdx =
// MaxUint32 if a chunk's offsets are out of order, past len(idx) or not a
// whole number of steps.
//
//go:noescape
func pullAVX2(off []int64, idx, perm []graph.VertexID, contrib, acc []float32) (maxIdx, maxPerm uint32)

// rankAVX2 is the rank update over len(ranks), a multiple of 8, vertices;
// contrib, acc and inv are at least as long. It returns the lanes'
// largest |new−old| (NaN skipped, from +0) and the dangling sum from +0.
//
//go:noescape
func rankAVX2(ranks, contrib, acc, inv []float32, d, base, redis float32) (maxDiff float32, dangling float64)

func pullSELLAVX2(lay *layout.Layout, contrib, acc []float32, clo, chi int) {
	const lanes = layout.PullLanes
	off, perm := lay.PullChunk[clo:chi+1], lay.PullPerm[clo*lanes:chi*lanes]
	n := len(acc)
	_ = contrib[n] // the sink slot padding entries read
	// Gather indices are signed 32-bit.
	if n >= math.MaxInt32 {
		pullSELLScalar(lay, contrib, acc, clo, chi)
		return
	}
	maxIdx, maxPerm := pullAVX2(off, lay.PullIdx, perm, contrib, acc)
	if int64(maxIdx) > int64(n) || int64(maxPerm) > int64(n) {
		panic(fmt.Sprintf("common: corrupt pull layout in chunks [%d,%d): largest index %d, largest lane %d, sink %d", clo, chi, maxIdx, maxPerm, n))
	}
}

func updateRanksAVX2(ranks, contrib, acc, inv []float32, d, base, redis float32, res float64) (float64, float64) {
	m := len(ranks)
	if m == 0 {
		return res, 0
	}
	_, _, _ = contrib[m-1], acc[m-1], inv[m-1]
	maxDiff, dangling := rankAVX2(ranks, contrib, acc, inv, d, base, redis)
	if diff := float64(maxDiff); diff > res {
		res = diff
	}
	return res, dangling
}
