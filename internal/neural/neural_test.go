package neural

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatBasics(t *testing.T) {
	m := NewMat(2, 3)
	m.Set(1, 2, 5)
	if m.W[1*m.C+2] != 5 {
		t.Fatal("Set broken")
	}
	if len(m.Row(1)) != 3 || m.Row(1)[2] != 5 {
		t.Fatal("Row broken")
	}
	m.G[0] = 1
	m.ZeroGrad()
	if m.G[0] != 0 {
		t.Fatal("ZeroGrad broken")
	}
}

func TestMulVecAndTranspose(t *testing.T) {
	m := NewMat(2, 3)
	copy(m.W, []float64{1, 2, 3, 4, 5, 6})
	v := []float64{1, 1, 1}
	y := NewVec(2)
	m.MulVec(v, y)
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MulVec = %v", y)
	}
	y2 := NewVec(2)
	copy(y2, []float64{1, 1})
	m.MulVecAdd(v, y2)
	if y2[0] != 7 || y2[1] != 16 {
		t.Fatalf("MulVecAdd = %v", y2)
	}
	u := []float64{1, 2}
	x := NewVec(3)
	m.BackwardVec(u, v, x)
	if x[0] != 9 || x[1] != 12 || x[2] != 15 {
		t.Fatalf("BackwardVec dx = %v", x)
	}
	if m.G[0] != 1 || m.G[3] != 2 {
		t.Fatalf("BackwardVec G = %v", m.G)
	}
}

func TestSoftmax(t *testing.T) {
	out := Softmax([]float64{1, 2, 3}, NewVec(3))
	sum := out[0] + out[1] + out[2]
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("softmax sum = %v", sum)
	}
	if !(out[2] > out[1] && out[1] > out[0]) {
		t.Fatalf("softmax ordering = %v", out)
	}
	// Large logits must not overflow.
	big := Softmax([]float64{1000, 1001}, NewVec(2))
	if math.IsNaN(big[0]) || math.IsInf(big[1], 0) {
		t.Fatal("softmax overflow")
	}
}

func TestSoftmaxQuick(t *testing.T) {
	f := func(a, b, c float64) bool {
		for _, v := range []float64{a, b, c} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 500 {
				return true // skip pathological inputs
			}
		}
		out := Softmax([]float64{a, b, c}, NewVec(3))
		sum := 0.0
		for _, v := range out {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDot(t *testing.T) {
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Fatal("Dot broken")
	}
}

// TestGRUGradient checks the GRU cell backward pass against finite
// differences, including gradients w.r.t. inputs.
func TestGRUGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ps := &ParamSet{}
	g := NewGRU(ps, "g", 3, 4, rng)
	x := []float64{0.3, -0.2, 0.5}
	h := []float64{0.1, 0.4, -0.3, 0.2}

	// Loss = sum(hNew).
	w := g.NewWork()
	loss := func() float64 {
		hn := g.Forward(w, 0, x, h)
		s := 0.0
		for _, v := range hn {
			s += v
		}
		return s
	}
	g.Forward(w, 0, x, h)
	dH := []float64{1, 1, 1, 1}
	ps.ZeroGrad()
	dx, dh := g.Backward(w, 0, dH)

	const eps = 1e-6
	for mi, mat := range ps.Mats() {
		for i := 0; i < len(mat.W); i += 3 {
			orig := mat.W[i]
			mat.W[i] = orig + eps
			lp := loss()
			mat.W[i] = orig - eps
			lm := loss()
			mat.W[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-mat.G[i]) > 1e-5 {
				t.Fatalf("param %s[%d]: analytic %v numeric %v", ps.Names()[mi], i, mat.G[i], num)
			}
		}
	}
	for i := range x {
		orig := x[i]
		x[i] = orig + eps
		lp := loss()
		x[i] = orig - eps
		lm := loss()
		x[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-dx[i]) > 1e-5 {
			t.Fatalf("dx[%d]: analytic %v numeric %v", i, dx[i], num)
		}
	}
	for i := range h {
		orig := h[i]
		h[i] = orig + eps
		lp := loss()
		h[i] = orig - eps
		lm := loss()
		h[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-dh[i]) > 1e-5 {
			t.Fatalf("dh[%d]: analytic %v numeric %v", i, dh[i], num)
		}
	}
}

// TestAdamConvergence fits a tiny linear regression.
func TestAdamConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ps := &ParamSet{}
	lin := NewLinear(ps, "lin", 2, 1, rng)
	opt := NewAdam(ps, 0.05)
	// Target: y = 3*x0 - 2*x1 + 1.
	for step := 0; step < 600; step++ {
		x := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		want := 3*x[0] - 2*x[1] + 1
		y := lin.Forward(x, NewVec(1))
		d := y[0] - want
		lin.Backward(x, []float64{2 * d}, NewVec(2))
		opt.Step(1)
	}
	if math.Abs(lin.W.W[0]-3) > 0.05 || math.Abs(lin.W.W[1]+2) > 0.05 || math.Abs(lin.B.W[0]-1) > 0.05 {
		t.Fatalf("regression did not converge: W=%v B=%v", lin.W.W, lin.B.W)
	}
}

// TestClipGrad: the clip scale brings the gradient norm to the bound,
// and is 1 when the norm is within it or zero.
func TestClipGrad(t *testing.T) {
	ps := &ParamSet{}
	m := ps.Register("m", NewMat(1, 2))
	m.G[0] = 3
	m.G[1] = 4 // norm 5
	if s := ps.ClipScale(1); math.Abs(s*ps.GradNorm()-1) > 1e-9 {
		t.Fatalf("clip scale %v on norm %v", s, ps.GradNorm())
	}
	m.G[0], m.G[1] = 0.3, 0.4
	if s := ps.ClipScale(1); s != 1 {
		t.Fatalf("clip scale %v within bounds, want 1", s)
	}
	ps.ZeroGrad()
	if s := ps.ClipScale(1); s != 1 {
		t.Fatalf("clip scale %v on zero gradients, want 1", s)
	}
}

func TestEmbeddingAccum(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ps := &ParamSet{}
	e := NewEmbedding(ps, "e", 5, 4, rng)
	g := []float64{1, 2, 3, 4}
	e.AccumGrad(2, g)
	e.AccumGrad(2, g)
	row := e.E.GradRow(2)
	if row[0] != 2 || row[3] != 8 {
		t.Fatalf("AccumGrad = %v", row)
	}
	// Out-of-range lookups clamp instead of panicking.
	_ = e.Lookup(-1)
	_ = e.Lookup(100)
	e.AccumGrad(-5, g)
}

func TestNumParams(t *testing.T) {
	ps := &ParamSet{}
	ps.Register("a", NewMat(2, 3))
	ps.Register("b", NewMat(4, 1))
	if ps.NumParams() != 10 {
		t.Fatalf("NumParams = %d", ps.NumParams())
	}
}
