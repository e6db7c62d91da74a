//go:build !amd64 || purego

package common

import "hipa/internal/layout"

// hasAVX2 is false where the AVX2 kernels are not compiled in.
const hasAVX2 = false

func pullSELLAVX2(*layout.SELL, []float32, []float32, int, int, bool) {
	panic("common: AVX2 kernels not compiled in")
}

func updateRanksAVX2(_, _, _, _, _, _ []float32, _, _, _ float32, _ float64) (float64, float64) {
	panic("common: AVX2 kernels not compiled in")
}
