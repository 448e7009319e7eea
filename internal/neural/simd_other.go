//go:build !amd64

package neural

// cpuHasAVX2 is false off amd64, so Adam.Step and BackwardVec run
// their scalar loops from index 0.
func cpuHasAVX2() bool { return false }

func adamAVX2(w, m, v, g []float64, k *adamConsts) bool {
	panic("neural: adamAVX2 called without AVX2")
}

func backward4AVX2(d *[4]float64, w, g, x, dx []float64) {
	panic("neural: backward4AVX2 called without AVX2")
}

func mulBatch4AVX2(w, x, s []float64) {
	panic("neural: mulBatch4AVX2 called without AVX2")
}
