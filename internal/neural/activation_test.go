package neural

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// expRef replays math.Exp's amd64 assembly (archExp in package math)
// in Go: its fused path, which math.Exp takes on a CPU with AVX and
// FMA, when fused is set, and its plain path otherwise. Every product
// that feeds a sum is either a math.FMA or converted explicitly, so no
// compiler may fuse the plain path's roundings.
func expRef(x float64, fused bool) float64 {
	const (
		log2e    = 1.4426950408889634073599246810018920
		ln2u     = 0.69314718055966295651160180568695068359375
		ln2l     = 0.28235290563031577122588448175013436025525412068e-12
		overflow = 7.09782712893384e+02
	)
	coef := [...]float64{
		2.4801587301587301587e-5, 1.9841269841269841270e-4,
		1.3888888888888888889e-3, 8.3333333333333333333e-3,
		4.1666666666666666667e-2, 1.6666666666666666667e-1,
		0.5, 1.0,
	}
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case math.IsInf(x, -1):
		return 0
	case x > overflow:
		return math.Inf(1)
	}
	k := cvtsd2sl(x * log2e)
	kf := float64(k)
	if fused {
		x = math.FMA(-kf, ln2u, x)
		x = math.FMA(-kf, ln2l, x)
		x *= 0.0625
		p := coef[0]
		for _, c := range coef[1:] {
			p = math.FMA(p, x, c)
		}
		x *= p
		for i := 0; i < 3; i++ {
			x *= x + 2
		}
		x = math.FMA(x+2, x, 1)
	} else {
		x -= float64(kf * ln2u)
		x -= float64(kf * ln2l)
		x *= 0.0625
		p := coef[0]
		for _, c := range coef[1:] {
			p = float64(p*x) + c
		}
		x *= p
		for i := 0; i < 4; i++ {
			x *= x + 2
		}
		x++
	}
	// x * 2**k, with archExp's denormal and overflow branches.
	b := k + 0x3FF
	switch {
	case b <= 0:
		if b < -52 {
			return 0
		}
		x *= math.Float64frombits(uint64(uint32(b+0x3FE)) << 52)
		b = 1
	case b >= 0x7FF:
		return math.Inf(1)
	}
	return x * math.Float64frombits(uint64(uint32(b))<<52)
}

// cvtsd2sl is CVTSD2SL under the default rounding mode: round to
// nearest, ties to even, and the integer indefinite (MinInt32) for NaN
// or a result outside int32.
func cvtsd2sl(t float64) int32 {
	r := math.RoundToEven(t)
	if math.IsNaN(r) || r < math.MinInt32 || r > math.MaxInt32 {
		return math.MinInt32
	}
	return int32(r)
}

// sigmoidRef and tanhRef are Sigmoid's expression and math.Tanh's Go
// source (math/tanh.go) over expRef's path.
func sigmoidRef(v float64, fused bool) float64 { return 1.0 / (1.0 + expRef(-v, fused)) }

func tanhRef(x float64, fused bool) float64 {
	const maxlog = 8.8029691931113054295988e+01
	z := math.Abs(x)
	switch {
	case z > 0.5*maxlog:
		if x < 0 {
			return -1
		}
		return 1
	case z >= 0.625:
		s := expRef(2*z, fused)
		z = 1 - 2/(s+1)
		if x < 0 {
			z = -z
		}
	default:
		if x == 0 {
			return x
		}
		s := x * x
		p := float64(float64(float64(-9.64399179425052238628e-1*s)-9.92877231001918586564e1)*s) - 1.61468768441708447952e3
		q := float64(float64(float64(s+1.12811678491632931402e2)*s)+2.23548839060100448583e3)*s + 4.84406305325125486048e3
		z = x + x*s*p/q
	}
	return z
}

// TestExpPathMatchesDetection: math.Exp has two amd64 paths, and the
// activation kernels replay the one expFused names. math.Exp must
// agree bit for bit with the replica of that path on every probe
// input, and the two replicas must disagree somewhere on the probe
// set (else the test could not tell the paths apart).
func TestExpPathMatchesDetection(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("math.Exp's two paths are amd64 assembly")
	}
	rng := rand.New(rand.NewSource(5))
	probe := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 700, -700, 709.78, 709.79, -745, -745.2,
		-708.5, -720, 1e-300, -1e300, 1e300, math.Inf(1), math.Inf(-1), math.NaN()}
	for i := 0; i < 200000; i++ {
		probe = append(probe, rng.Float64()*40-20)
	}
	differ := 0
	for _, x := range probe {
		got, want := math.Exp(x), expRef(x, expFused)
		if !sameFloats([]float64{got}, []float64{want}) {
			t.Fatalf("math.Exp(%v) = %v (%#x), but the replica of the path detected (fused=%v) gives %v (%#x)",
				x, got, math.Float64bits(got), expFused, want, math.Float64bits(want))
		}
		if !sameFloats([]float64{expRef(x, true)}, []float64{expRef(x, false)}) {
			differ++
		}
	}
	t.Logf("fused=%v; the two paths round %d of %d probe inputs differently", expFused, differ, len(probe))
	if differ == 0 {
		t.Fatal("the fused and plain replicas agree on the whole probe set")
	}
}

// activationSpecials are the inputs where an activation kernel must
// hand over to the scalar loop or switch branches: the cutoffs and
// their neighbours, exp's overflow and denormal ranges, and the
// non-finite values and signed zeros.
var activationSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	700, -700, math.Nextafter(700, 800), -math.Nextafter(700, 800),
	709.78, -709.78, 720, -745.2, -760,
	44.014845965556527147994, math.Nextafter(44.014845965556527147994, 50), -44.02, 44.5,
	0.625, math.Nextafter(0.625, 0), -0.625, -math.Nextafter(0.625, 0),
	math.SmallestNonzeroFloat64, -0x1p-1022, 1e-8, -1e-300,
}

// activationInput decodes fuzz input into one activation argument: a
// special value (one in eight), a raw bit pattern (one in sixteen), one
// of fuzzBytes' values (one in four), or else a full-mantissa value in
// [-20, 20), where the gates' inputs live, so that most four-element
// groups stay on the kernel.
func activationInput(r *fuzzBytes) float64 {
	var u uint64
	for i := 0; i < 8; i++ {
		u = u<<8 | uint64(r.byte())
	}
	switch b := r.byte(); {
	case b%8 == 0:
		return activationSpecials[int(b/8)%len(activationSpecials)]
	case b%16 == 1:
		return math.Float64frombits(u)
	case b%4 == 2:
		return r.float()
	default:
		return float64(u>>11)/(1<<53)*40 - 20
	}
}

// fuzzActivation checks one activation on n = 0–13 inputs: the AVX2
// dispatch of act against the scalar dispatch, and kernel on math.Exp's
// other path (which this CPU does not take) against ref on that path,
// with ref finishing every group the kernel stops at, as act does.
func fuzzActivation(f *testing.F, seed int64, act func(src, dst []float64), kernel func(src, dst []float64, fused bool) int, ref func(float64, bool) float64) {
	fuzzSeeds(f, seed)
	f.Fuzz(func(t *testing.T, data []byte, lo, hi uint8) {
		if !cpuHasAVX2() {
			t.Skip("CPU lacks AVX2")
		}
		n := (int(lo) + 9*int(hi)) % 14
		r := &fuzzBytes{data: data}
		src := NewVec(n)
		for i := range src {
			src[i] = activationInput(r)
		}
		run := func(avx2 bool) []float64 {
			restore, _ := SetAVX2ForTesting(avx2)
			defer restore()
			dst := NewVec(n)
			act(src, dst)
			return dst
		}
		if got, want := run(true), run(false); !sameFloats(got, want) {
			t.Fatalf("src %v: kernel %v, scalar %v", src, got, want)
		}
		other := !expFused
		got, want := NewVec(n), NewVec(n)
		for i := 0; i < n; {
			if i < n&^3 {
				i += kernel(src[i:n&^3], got[i:n&^3], other)
			}
			if i < n {
				for j := i; j < min(i+4, n); j++ {
					got[j] = ref(src[j], other)
				}
				i += 4
			}
		}
		for i, v := range src {
			want[i] = ref(v, other)
		}
		if !sameFloats(got, want) {
			t.Fatalf("src %v, fused=%v: kernel %v, replica %v", src, other, got, want)
		}
	})
}

// FuzzSigmoidKernel: Sigmoid gives the same bits on both dispatches,
// and sigmoidAVX2 on math.Exp's other path matches the replica.
func FuzzSigmoidKernel(f *testing.F) {
	fuzzActivation(f, 14, Sigmoid, sigmoidAVX2, sigmoidRef)
}

// FuzzTanhKernel: Tanh gives the same bits on both dispatches, and
// tanhAVX2 on math.Exp's other path matches the replica.
func FuzzTanhKernel(f *testing.F) {
	fuzzActivation(f, 15, Tanh, tanhAVX2, tanhRef)
}

// TestActivationReplicas: the replicas of Sigmoid and math.Tanh on the
// detected path are the scalar code, bit for bit, so the fuzz targets'
// other-path checks test the kernels against the right thing.
func TestActivationReplicas(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the replicas follow amd64's math.Exp")
	}
	rng := rand.New(rand.NewSource(6))
	xs := append([]float64(nil), activationSpecials...)
	for i := 0; i < 20000; i++ {
		xs = append(xs, rng.Float64()*60-30)
	}
	for _, x := range xs {
		if got, want := sigmoidRef(x, expFused), 1.0/(1.0+math.Exp(-x)); !sameFloats([]float64{got}, []float64{want}) {
			t.Fatalf("sigmoidRef(%v) = %v, want %v", x, got, want)
		}
		if got, want := tanhRef(x, expFused), math.Tanh(x); !sameFloats([]float64{got}, []float64{want}) {
			t.Fatalf("tanhRef(%v) = %v, want %v", x, got, want)
		}
	}
}

// BenchmarkActivation times Sigmoid and Tanh over one GRU gate's 80
// pre-activations, drawn from [-4, 4), on both dispatches:
//
//	go test -run '^$' -bench BenchmarkActivation ./internal/neural/
func BenchmarkActivation(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src, dst := NewVec(80), NewVec(80)
	for i := range src {
		src[i] = rng.Float64()*8 - 4
	}
	for _, a := range []struct {
		name string
		f    func(src, dst []float64)
	}{{"sigmoid", Sigmoid}, {"tanh", Tanh}} {
		b.Run(a.name, func(b *testing.B) {
			forEachDispatch(b, func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					a.f(src, dst)
				}
			})
		})
	}
}
