package neural

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches (XCR0 bits 1 and 2).
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xgetbv()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// cpuHasFMA reports what makes math.Exp take its fused path on amd64:
// the CPU has AVX and FMA and the OS saves the YMM registers (package
// math's useFMA, from internal/cpu).
func cpuHasFMA() bool {
	const osxsave, avx, fma = 1 << 27, 1 << 28, 1 << 12
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx|fma) != osxsave|avx|fma {
		return false
	}
	return xgetbv()&6 == 6
}

// cpuid executes CPUID for a leaf and subleaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of XCR0, the OS-enabled state components.
func xgetbv() (eax uint32)

// adamAVX2 runs Adam.Step's element update on the first len(g)&^3
// elements, four at a time, with the scalar loop's operations in the
// scalar loop's order and no fused multiply-add, so every lane rounds
// exactly as the scalar code does. Lanes the scalar loop skips (zero
// gradient and zero moments) keep their old W, m, v and G bits. It
// reports whether any lane was updated. w, m and v must be at least
// as long as g.
//
//go:noescape
func adamAVX2(w, m, v, g []float64, k *adamConsts) (live bool)

// backward4AVX2 is BackwardVec's four-row block over the first
// len(x)&^3 columns, four columns at a time: w and g hold the block's
// four rows (row stride len(x)), d their four dy values. Each G
// element gets its single d·x added and each dx element its sum over
// the rows in ascending order, as in the scalar loop.
//
//go:noescape
func backward4AVX2(d *[4]float64, w, g, x, dx []float64)

// mulBatch4AVX2 is mulVec's four-row block over the first
// len(x)&^3 columns: for each row r < len(s) of w (row stride len(x);
// len(s) a multiple of four) it sets s[r] to the sum of w[r][j]*x[j]
// from +0 in ascending j, as the scalar block sums it. A 4×4 register
// transpose makes each lane one row's running sum.
//
//go:noescape
func mulBatch4AVX2(w, x, s []float64)

// panelMulAddAVX2 adds to each y[r] the product of row r and x, for
// the len(y)/4 whole panels of p (see Panels): each row's sum runs
// from +0 over ascending columns, as mulVec sums it, and is then
// added to y[r]. len(y) must be a multiple of four.
//
//go:noescape
func panelMulAddAVX2(p, x, y []float64)

// sigmoidAVX2 is Sigmoid over the leading whole four-element groups of
// src, with math.Exp's fused path when fused is set and its plain path
// otherwise. It stops before the first group it cannot reproduce (a
// NaN or a value beyond ±700) and returns how many elements it wrote.
//
//go:noescape
func sigmoidAVX2(src, dst []float64, fused bool) (n int)

// tanhAVX2 is Tanh as sigmoidAVX2 is Sigmoid; it stops before the
// first group holding a NaN or a value beyond math.Tanh's ±1 cutoff.
//
//go:noescape
func tanhAVX2(src, dst []float64, fused bool) (n int)
