package neural

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// forEachDispatch runs f as subtest "avx2" on the AVX2 kernels
// (skipped on a CPU without them) and as "generic" on the scalar loops.
func forEachDispatch[T interface {
	Skip(args ...any)
	Run(name string, f func(T)) bool
}](t T, f func(T)) {
	for _, d := range []struct {
		name string
		avx2 bool
	}{{"avx2", true}, {"generic", false}} {
		t.Run(d.name, func(t T) {
			restore, ok := SetAVX2ForTesting(d.avx2)
			if !ok {
				t.Skip("CPU lacks AVX2")
			}
			defer restore()
			f(t)
		})
	}
}

// fuzzSpecials are the values ordinary random inputs almost never
// reach: signed zeros, subnormals, the normal extremes, infinities and
// two NaNs with different payloads.
var fuzzSpecials = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), 0x1p-1022,
	math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0xfff0000000000001),
	1, -1, 1e-8,
}

// fuzzBytes decodes fuzz input into float64s, cycling through it.
type fuzzBytes struct {
	data []byte
	pos  int
}

func (r *fuzzBytes) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[r.pos%len(r.data)]
	r.pos++
	return b
}

// float picks by one selector byte between a special value (1 in 8),
// a raw 64-bit pattern (1 in 8), and a moderate value: a full random
// mantissa at a magnitude in [2⁻⁸, 2⁸), where a rounding difference
// (a fused multiply-add, a reordered sum) shows in the last bits.
func (r *fuzzBytes) float() float64 {
	b := r.byte()
	if b%8 == 0 {
		return fuzzSpecials[int(b/8)%len(fuzzSpecials)]
	}
	var u uint64
	for i := 0; i < 8; i++ {
		u = u<<8 | uint64(r.byte())
	}
	if b%8 == 1 {
		return math.Float64frombits(u)
	}
	const mant = 1<<52 - 1
	exp := 1023 - 8 + (u>>52)&15
	return math.Float64frombits(u&(1<<63) | exp<<52 | u&mant)
}

// zero returns +0 or -0.
func (r *fuzzBytes) zero() float64 {
	if r.byte()&1 == 0 {
		return 0
	}
	return math.Copysign(0, -1)
}

// sameFloats compares bit for bit, except that any NaN equals any NaN:
// the scalar and packed forms of an instruction may propagate
// different NaN payloads.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// fuzzSeeds adds 81 seeded random inputs, so the seed corpus alone
// drives every length and shape the fuzz targets reach, with a mix of
// skipped, live and special elements. The two small arguments are
// n%9 and n/9 for seed n.
func fuzzSeeds(f *testing.F, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for n := 0; n < 81; n++ {
		data := make([]byte, 16+rng.Intn(400))
		rng.Read(data)
		f.Add(data, uint8(n%9), uint8(n/9))
	}
}

// FuzzAdamKernel runs Adam.Step over one matrix of 0–13 elements on
// both dispatches from the same state and requires W, m, v, G and
// liveness identical to a reference: a pass that multiplies every
// gradient by the clip scale, as a separate clip did, then the
// textbook step, first bias-correction divide included. The step
// count falls on both sides of t = 356, where that correction rounds
// to 1 and Step drops its divide. The scale is 1 in half the inputs;
// otherwise it is a fuzzed value or one so small that it rounds
// moderate gradients to zero, and an element whose scaled gradient
// and moments are all zero must stay skipped. About a quarter of the
// elements are untouched (zero gradient and moments, with random
// signs), a quarter have a zero gradient but live moments, and a
// quarter a fresh gradient with zero moments.
func FuzzAdamKernel(f *testing.F) {
	fuzzSeeds(f, 11)
	f.Fuzz(func(t *testing.T, data []byte, lo, hi uint8) {
		n := (int(lo) + 9*int(hi)) % 14
		r := &fuzzBytes{data: data}
		var step int // the step count Step reaches
		switch b := r.byte(); b % 3 {
		case 0:
			step = 1 + int(b/3)
		case 1:
			step = 314 + int(b/3) // 314..399, across t = 356
		default:
			step = 356 + 16*int(b/3)
		}
		scale := 1.0
		switch r.byte() % 4 {
		case 0:
			scale = 0x1p-1090 // rounds |g| < 2⁸ to zero
		case 1:
			scale = math.Abs(r.float())
		}
		w, m, v, g := NewVec(n), NewVec(n), NewVec(n), NewVec(n)
		for i := range g {
			switch r.byte() % 4 {
			case 0: // untouched: the step must skip it
				g[i], m[i], v[i] = r.zero(), r.zero(), r.zero()
			case 1: // no gradient this step, but live moments
				g[i], m[i], v[i] = r.zero(), r.float(), r.float()
			case 2: // a first gradient: skipped if the scale zeroes it
				g[i], m[i], v[i] = r.float(), r.zero(), r.zero()
			default:
				g[i], m[i], v[i] = r.float(), r.float(), r.float()
			}
			w[i] = r.float()
		}

		// The reference: scale, then the textbook step.
		rw, rm, rv, rg := append([]float64(nil), w...), append([]float64(nil), m...), append([]float64(nil), v...), append([]float64(nil), g...)
		for i := range rg {
			rg[i] *= scale
		}
		b1, b2, lr, eps := 0.9, 0.999, 0.01, 1e-8
		c1, c2 := 1-b1, 1-b2
		b1c, b2c := 1-math.Pow(b1, float64(step)), 1-math.Pow(b2, float64(step))
		rlive := false
		for i, gi := range rg {
			if gi == 0 && rm[i] == 0 && rv[i] == 0 {
				continue
			}
			rlive = true
			rm[i] = b1*rm[i] + c1*gi
			rv[i] = b2*rv[i] + c2*gi*gi
			rw[i] -= lr * (rm[i] / b1c) / (math.Sqrt(rv[i]/b2c) + eps)
			rg[i] = 0
		}

		forEachDispatch(t, func(t *testing.T) {
			ps := &ParamSet{}
			mat := ps.Register("w", NewMat(1, n))
			copy(mat.W, w)
			copy(mat.G, g)
			a := NewAdam(ps, lr)
			copy(a.m[0], m)
			copy(a.v[0], v)
			a.t = step - 1
			a.Step(scale)
			if !sameFloats(mat.W, rw) || !sameFloats(a.m[0], rm) || !sameFloats(a.v[0], rv) {
				t.Fatalf("n=%d t=%d scale=%v: W/m/v %v %v %v, reference %v %v %v", n, step, scale, mat.W, a.m[0], a.v[0], rw, rm, rv)
			}
			if !sameFloats(mat.G, rg) {
				t.Fatalf("n=%d t=%d scale=%v: G %v, reference %v", n, step, scale, mat.G, rg)
			}
			if a.live[0] != rlive {
				t.Fatalf("n=%d t=%d scale=%v: live %v, reference %v (g %v m %v v %v)", n, step, scale, a.live[0], rlive, g, m, v)
			}
		})
	})
}

// FuzzBackwardVecKernel runs BackwardVec on 1–9 rows and 1–9 columns
// on both dispatches from the same W, G, dy, x and dx and requires
// identical G and dx.
func FuzzBackwardVecKernel(f *testing.F) {
	fuzzSeeds(f, 12)
	f.Fuzz(func(t *testing.T, data []byte, rows, cols uint8) {
		if !cpuHasAVX2() {
			t.Skip("CPU lacks AVX2")
		}
		nr, nc := 1+int(rows)%9, 1+int(cols)%9
		r := &fuzzBytes{data: data}
		fill := func(v []float64) []float64 {
			for i := range v {
				v[i] = r.float()
			}
			return v
		}
		w, g := fill(NewVec(nr*nc)), fill(NewVec(nr*nc))
		dy, x, dx := fill(NewVec(nr)), fill(NewVec(nc)), fill(NewVec(nc))
		run := func(avx2 bool) (*Mat, []float64) {
			restore, _ := SetAVX2ForTesting(avx2)
			defer restore()
			mat := NewMat(nr, nc)
			copy(mat.W, w)
			copy(mat.G, g)
			out := append([]float64(nil), dx...)
			mat.BackwardVec(dy, x, out)
			return mat, out
		}
		km, kdx := run(true)
		sm, sdx := run(false)
		if !sameFloats(km.G, sm.G) || !sameFloats(kdx, sdx) {
			t.Fatalf("%dx%d: kernel G %v dx %v, scalar G %v dx %v", nr, nc, km.G, kdx, sm.G, sdx)
		}
	})
}

// FuzzMulBatchKernel runs MulVec and MulVecAdd on both dispatches
// from the same weights, input and output and requires identical
// outputs: the AVX2 side sums through mulBatch4AVX2. Rows run 1–72 and
// columns 1–14, so the seed corpus covers every R%4 and C%4, the
// kernel's four-block and one-block loops, and a row count past one
// mulChunk.
func FuzzMulBatchKernel(f *testing.F) {
	rng := rand.New(rand.NewSource(13))
	for rm := 0; rm < 4; rm++ {
		for cm := 0; cm < 4; cm++ {
			for mode := 0; mode < 6; mode++ {
				data := make([]byte, 16+rng.Intn(400))
				rng.Read(data)
				rows := uint8(rm + []int{0, 16, 64}[(rm+cm+mode)%3])
				cols := uint8(cm + 4*((rm+mode)%4))
				f.Add(data, rows, cols, uint8(mode))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, rows, cols, mode uint8) {
		if !cpuHasAVX2() {
			t.Skip("CPU lacks AVX2")
		}
		nr, nc := 1+int(rows)%72, 1+int(cols)%14
		add := mode/3%2 == 1
		r := &fuzzBytes{data: data}
		m := NewMat(nr, nc)
		x, y := NewVec(nc), NewVec(nr)
		for _, v := range [][]float64{m.W, x, y} {
			for i := range v {
				v[i] = r.float()
			}
		}
		run := func(avx2 bool) []float64 {
			restore, _ := SetAVX2ForTesting(avx2)
			defer restore()
			out := append([]float64(nil), y...)
			if add {
				m.MulVecAdd(x, out)
			} else {
				m.MulVec(x, out)
			}
			return out
		}
		if got, want := run(true), run(false); !sameFloats(got, want) {
			t.Fatalf("%dx%d add=%v: kernel %v, scalar %v", nr, nc, add, got, want)
		}
	})
}

// FuzzPanelKernel runs Panels.MulAdd on the AVX2 kernel against
// MulVecAdd on the scalar loops from the same weights, input and
// output, and requires identical outputs. Rows run 1–40 and columns
// 1–14, so the seed corpus covers every R%4, the kernel's four-panel
// and one-panel loops and every column count.
func FuzzPanelKernel(f *testing.F) {
	rng := rand.New(rand.NewSource(16))
	for rm := 0; rm < 4; rm++ {
		for c := 0; c < 14; c++ {
			data := make([]byte, 16+rng.Intn(400))
			rng.Read(data)
			f.Add(data, uint8(rm+[]int{0, 4, 16, 36}[(rm+c)%4]), uint8(c))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, rows, cols uint8) {
		if !cpuHasAVX2() {
			t.Skip("CPU lacks AVX2")
		}
		nr, nc := 1+int(rows)%40, 1+int(cols)%14
		r := &fuzzBytes{data: data}
		m := NewMat(nr, nc)
		x, y := NewVec(nc), NewVec(nr)
		for _, v := range [][]float64{m.W, x, y} {
			for i := range v {
				v[i] = r.float()
			}
		}
		p := NewPanels(m)
		got, want := append([]float64(nil), y...), append([]float64(nil), y...)
		p.MulAdd(x, got)
		restore, _ := SetAVX2ForTesting(false)
		m.MulVecAdd(x, want)
		restore()
		if !sameFloats(got, want) {
			t.Fatalf("%dx%d: panels %v, scalar %v", nr, nc, got, want)
		}
	})
}

// BenchmarkMulVec times one matrix-vector product at the decoders'
// and the GRU's shapes (rows x columns) on both dispatches:
//
//	go test -run '^$' -bench BenchmarkMulVec ./internal/neural/
func BenchmarkMulVec(b *testing.B) {
	forEachDispatch(b, func(b *testing.B) {
		for _, sh := range []struct{ r, c int }{{80, 40}, {80, 80}, {102, 80}} {
			b.Run(fmt.Sprintf("%dx%d", sh.r, sh.c), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				m := NewMatRand(sh.r, sh.c, rng)
				x, y := randVec(sh.c, rng), NewVec(sh.r)
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					m.MulVec(x, y)
				}
			})
		}
	})
}
