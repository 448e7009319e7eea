package neural

// hasAVX2 selects the AVX2 kernels of Adam.Step, BackwardVec,
// mulVec, Panels, Sigmoid and Tanh. It is set once at init (false
// off amd64); only SetAVX2ForTesting changes it afterwards.
var hasAVX2 = cpuHasAVX2()

// expFused tells the Sigmoid and Tanh kernels which of math.Exp's two
// amd64 paths to replay: the fused one, which math.Exp takes when the
// CPU has AVX and FMA, or the plain one. It mirrors math's own probe,
// so it does not see GODEBUG=cpu.fma=off (or cpu.avx=off), which moves
// math.Exp to its plain path: TestExpPathMatchesDetection fails then.
var expFused = cpuHasFMA()

// SetAVX2ForTesting selects the path of every kernel hasAVX2 gates,
// so tests can check that both give the same bits: on=false forces the
// scalar loops, on=true the AVX2 kernels. When on is true and the CPU
// lacks AVX2 it changes nothing and reports false. The returned
// function restores the previous setting. It must not be called while
// a training step runs.
//
//lint:allow deadcode test hook: the kernel tests run both dispatches through it
func SetAVX2ForTesting(on bool) (restore func(), ok bool) {
	if on && !cpuHasAVX2() {
		return func() {}, false
	}
	prev := hasAVX2
	hasAVX2 = on
	return func() { hasAVX2 = prev }, true
}
