//go:build !amd64

package neural

// cpuHasAVX2 is false off amd64, so Adam.Step and BackwardVec run
// their scalar loops from index 0.
func cpuHasAVX2() bool { return false }

// cpuHasFMA is false off amd64; only the amd64 kernels read it.
func cpuHasFMA() bool { return false }

func adamAVX2(w, m, v, g []float64, k *adamConsts) bool {
	panic("neural: adamAVX2 called without AVX2")
}

func backward4AVX2(d *[4]float64, w, g, x, dx []float64) {
	panic("neural: backward4AVX2 called without AVX2")
}

func mulBatch4AVX2(w, x, s []float64) {
	panic("neural: mulBatch4AVX2 called without AVX2")
}

func panelMulAddAVX2(p, x, y []float64) {
	panic("neural: panelMulAddAVX2 called without AVX2")
}

func sigmoidAVX2(src, dst []float64, fused bool) int {
	panic("neural: sigmoidAVX2 called without AVX2")
}

func tanhAVX2(src, dst []float64, fused bool) int {
	panic("neural: tanhAVX2 called without AVX2")
}
