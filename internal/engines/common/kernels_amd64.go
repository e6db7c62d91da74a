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

// pullAVX2 runs a pull over the chunks whose entry offsets are chunk and
// encoding offsets off into enc, with perm their lanes (8 per chunk), vals
// the values the entries index and n = len(acc) the lane sink. Each 8-entry
// step is one gather of vals plus one add, lane by lane as the scalar
// chains; a narrow chunk's step first widens and adds its 16-bit
// differences (layout.EndOfRow moving a lane to the sink, len(vals)-1).
// With add set, a chunk's sums start from acc instead of +0 and a chunk
// with no entries is skipped. Every index is clamped to len(vals)-1 before
// the gather, every lane ≥ n is neither read nor stored, so a corrupt
// layout reads and writes nothing out of bounds. It returns the largest
// index (decoded, before the clamp) and lane seen, or maxIdx = MaxUint32
// if a chunk's offsets are out of order, past len(enc) or not a whole
// number of steps, or its encoding is the size of neither kind.
//
//go:noescape
func pullAVX2(chunk, off []int64, enc []uint16, perm []graph.VertexID, vals, acc []float32, add bool) (maxIdx, maxPerm uint32)

// rankAVX2 is the rank update over len(ranks), a multiple of 8, vertices;
// next, contrib, acc and inv, and add unless it is empty, are at least as
// long. It returns the lanes' largest |new−old| (NaN skipped, from +0) and
// the dangling sum from +0.
//
//go:noescape
func rankAVX2(ranks, next, contrib, acc, inv, add []float32, d, base, redis float32) (maxDiff float32, dangling float64)

func pullSELLAVX2(pull *layout.SELL, vals, acc []float32, clo, chi int, add bool) {
	const lanes = layout.PullLanes
	perm := pull.Perm[clo*lanes : chi*lanes]
	n, clamp := len(acc), len(vals)-1
	_ = vals[clamp] // the sink slot padding entries read
	// Gather indices are signed 32-bit.
	if clamp >= math.MaxInt32 || n >= math.MaxInt32 {
		pullSELLScalar(pull, vals, acc, clo, chi, add)
		return
	}
	maxIdx, maxPerm := pullAVX2(pull.Chunk[clo:chi+1], pull.Off[clo:chi+1], pull.Enc, perm, vals, acc, add)
	if int64(maxIdx) > int64(clamp) || int64(maxPerm) > int64(n) {
		panic(fmt.Sprintf("common: corrupt pull layout in chunks [%d,%d): largest index %d (sink %d), largest lane %d (sink %d)", clo, chi, maxIdx, clamp, maxPerm, n))
	}
}

func updateRanksAVX2(ranks, next, contrib, acc, inv, add []float32, d, base, redis float32, res float64) (float64, float64) {
	m := len(ranks)
	if m == 0 {
		return res, 0
	}
	_, _, _, _ = next[m-1], contrib[m-1], acc[m-1], inv[m-1]
	if len(add) != 0 {
		_ = add[m-1]
	}
	maxDiff, dangling := rankAVX2(ranks, next, contrib, acc, inv, add, d, base, redis)
	if diff := float64(maxDiff); diff > res {
		res = diff
	}
	return res, dangling
}
