package neural

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// cleanSet returns a GRU, a Linear and an Embedding registered on one
// ParamSet, with every gradient zeroed and every matrix clean.
func cleanSet(rng *rand.Rand) (*ParamSet, *GRU, *Linear, *Embedding) {
	ps := &ParamSet{}
	g := NewGRU(ps, "g", 3, 4, rng)
	l := NewLinear(ps, "l", 4, 5, rng)
	e := NewEmbedding(ps, "e", 6, 3, rng)
	ps.ZeroGrad()
	return ps, g, l, e
}

func requireDirty(t *testing.T, what string, ms ...*Mat) {
	t.Helper()
	for _, m := range ms {
		if !m.dirty {
			t.Errorf("%s left %v clean", what, m)
		}
	}
}

// TestGradWritersMarkDirty: every method that writes a gradient leaves
// its matrix dirty, starting from a clean one.
func TestGradWritersMarkDirty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ps, g, l, e := cleanSet(rng)
	for _, m := range ps.Mats() {
		if m.dirty {
			t.Fatalf("%v dirty after ZeroGrad", m)
		}
	}

	w := g.NewWork()
	g.Forward(w, 0, randVec(3, rng), randVec(4, rng))
	g.Backward(w, 0, randVec(4, rng))
	requireDirty(t, "GRU.Backward", g.Wz, g.Uz, g.Bz, g.Wr, g.Ur, g.Br, g.Wh, g.Uh, g.Bh)

	x := randVec(4, rng)
	l.Forward(x, NewVec(5))
	l.Backward(x, randVec(5, rng), NewVec(4))
	requireDirty(t, "Linear.Backward", l.W, l.B)

	e.AccumGrad(2, randVec(3, rng))
	requireDirty(t, "Embedding.AccumGrad", e.E)

	ps.ZeroGrad()
	l.W.BackwardVec(randVec(5, rng), randVec(4, rng), NewVec(4))
	requireDirty(t, "BackwardVec", l.W)
	e.E.GradRow(0)[1] = 1
	requireDirty(t, "GradRow", e.E)
}

// TestAdamStepLeavesEverythingClean: after a step every gradient is
// zero and every matrix clean, whatever was written before it.
func TestAdamStepLeavesEverythingClean(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ps, g, l, e := cleanSet(rng)
	opt := NewAdam(ps, 0.01)
	w := g.NewWork()
	for step := 0; step < 5; step++ {
		g.Forward(w, 0, randVec(3, rng), randVec(4, rng))
		g.Backward(w, 0, randVec(4, rng))
		x := randVec(4, rng)
		l.Backward(x, randVec(5, rng), NewVec(4))
		e.AccumGrad(step, randVec(3, rng))
		opt.Step(ps.ClipScale(1))
		for _, m := range ps.Mats() {
			if m.dirty {
				t.Fatalf("step %d: %v dirty after Step", step, m)
			}
			for i, v := range m.G {
				if v != 0 {
					t.Fatalf("step %d: %v G[%d] = %v after Step", step, m, i, v)
				}
			}
		}
	}
}

// refAdam is the full-scan optimizer the dirty-tracked one must match:
// every element of every matrix visited on every step, no skipping
// beyond the per-element untouched check.
type refAdam struct {
	lr, b1, b2, eps float64
	t               int
	m, v            [][]float64
}

func newRefAdam(ps *ParamSet, lr float64) *refAdam {
	r := &refAdam{lr: lr, b1: 0.9, b2: 0.999, eps: 1e-8}
	for _, m := range ps.Mats() {
		r.m = append(r.m, make([]float64, len(m.W)))
		r.v = append(r.v, make([]float64, len(m.W)))
	}
	return r
}

func (r *refAdam) clip(ps *ParamSet, maxNorm float64) {
	s := 0.0
	for _, m := range ps.Mats() {
		for _, g := range m.G {
			s += g * g
		}
	}
	n := math.Sqrt(s)
	if n <= maxNorm || n == 0 {
		return
	}
	scale := maxNorm / n
	for _, m := range ps.Mats() {
		for i := range m.G {
			m.G[i] *= scale
		}
	}
}

func (r *refAdam) step(ps *ParamSet) {
	r.t++
	b1c := 1 - math.Pow(r.b1, float64(r.t))
	b2c := 1 - math.Pow(r.b2, float64(r.t))
	for k, mat := range ps.Mats() {
		mbuf, vbuf := r.m[k], r.v[k]
		for i, g := range mat.G {
			if g == 0 && mbuf[i] == 0 && vbuf[i] == 0 {
				continue
			}
			mbuf[i] = r.b1*mbuf[i] + (1-r.b1)*g
			vbuf[i] = r.b2*vbuf[i] + (1-r.b2)*g*g
			mhat := mbuf[i] / b1c
			vhat := vbuf[i] / b2c
			mat.W[i] -= r.lr * mhat / (math.Sqrt(vhat) + r.eps)
			mat.G[i] = 0
		}
	}
}

func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestSparseStepsMatchFullScan drives the dirty-tracked clip scale and
// Adam.Step and the full-scan clip-then-step reference through 1000 steps of seeded
// random sparse gradient writes and requires W, m and v to agree bit
// for bit after every step. The writes touch a random subset of
// matrices per step (most stay clean), include explicit zeros, and
// leave one matrix untouched until step 600; the optimizer is also
// rebuilt from State/Restore halfway, which must not lose liveness.
// It runs on both dispatches: the AVX2 kernel and the scalar loop.
func TestSparseStepsMatchFullScan(t *testing.T) {
	forEachDispatch(t, func(t *testing.T) {
		build := func() *ParamSet {
			rng := rand.New(rand.NewSource(7))
			ps := &ParamSet{}
			for k := 0; k < 12; k++ {
				ps.Register(fmt.Sprintf("m%02d", k), NewMatRand(3+k%4, 5+k%3, rng))
			}
			ps.ZeroGrad()
			return ps
		}
		got, want := build(), build()
		opt := NewAdam(got, 0.01)
		ref := newRefAdam(want, 0.01)
		rng := rand.New(rand.NewSource(8))
		late := 11 // first written at step 600
		for step := 0; step < 1000; step++ {
			if step == 500 {
				st := opt.State()
				opt = NewAdam(got, 0.01)
				if err := opt.Restore(st); err != nil {
					t.Fatal(err)
				}
			}
			for n := rng.Intn(4); n >= 0; n-- {
				k := rng.Intn(len(got.Mats()))
				if k == late && step < 600 {
					continue
				}
				gm, wm := got.Mats()[k], want.Mats()[k]
				switch rng.Intn(2) {
				case 0: // one row through GradRow, sometimes all zeros
					i := rng.Intn(gm.R)
					scale := float64(rng.Intn(2)) * rng.NormFloat64()
					gr, wr := gm.GradRow(i), wm.GradRow(i)
					for j := range gr {
						v := scale * rng.NormFloat64()
						gr[j] += v
						wr[j] += v
					}
				default: // a full backward with some zero rows in dy
					dy, x := randVec(gm.R, rng), randVec(gm.C, rng)
					dy[rng.Intn(gm.R)] = 0
					gm.BackwardVec(dy, x, NewVec(gm.C))
					wm.BackwardVec(dy, x, NewVec(wm.C))
				}
			}
			opt.Step(got.ClipScale(1))
			ref.clip(want, 1)
			ref.step(want)
			for k, gm := range got.Mats() {
				wm := want.Mats()[k]
				if !sameBits(gm.W, wm.W) || !sameBits(opt.m[k], ref.m[k]) || !sameBits(opt.v[k], ref.v[k]) {
					t.Fatalf("step %d: matrix %d diverged from the full-scan reference", step, k)
				}
				if !sameBits(gm.G, wm.G) {
					t.Fatalf("step %d: matrix %d gradient not cleared", step, k)
				}
			}
		}
	})
}

// TestClipFusedMatchesClipThenStep: Adam.Step given the clip scale
// leaves W, m, v, G and liveness exactly as a separate pass that
// scales every dirty gradient, followed by an unscaled step, does.
// 800 steps of sparse row writes, clipped on most steps, cross t = 356,
// where the first bias correction rounds to 1 and Step drops its
// divide; some written values are so small that the scale rounds them
// to zero, which must leave a fresh element skipped. Both dispatches.
func TestClipFusedMatchesClipThenStep(t *testing.T) {
	if 1-math.Pow(0.9, 355) == 1 || 1-math.Pow(0.9, 356) != 1 {
		t.Fatal("1-0.9^t no longer first rounds to 1 at t = 356")
	}
	forEachDispatch(t, func(t *testing.T) {
		build := func() (*ParamSet, *Adam) {
			rng := rand.New(rand.NewSource(9))
			ps := &ParamSet{}
			for k := 0; k < 6; k++ {
				ps.Register(fmt.Sprintf("m%d", k), NewMatRand(2+k, 5+k%3, rng))
			}
			ps.ZeroGrad()
			return ps, NewAdam(ps, 0.01)
		}
		fused, fopt := build()
		split, sopt := build()
		rng := rand.New(rand.NewSource(10))
		clipped := 0
		for step := 1; step <= 800; step++ {
			for n := rng.Intn(3); n >= 0; n-- {
				k := rng.Intn(len(fused.Mats()))
				fm, sm := fused.Mats()[k], split.Mats()[k]
				i := rng.Intn(fm.R)
				fr, sr := fm.GradRow(i), sm.GradRow(i)
				for j := range fr {
					v := 3 * rng.NormFloat64()
					if rng.Intn(3) == 0 {
						v = math.Copysign(math.SmallestNonzeroFloat64, v)
					}
					fr[j] += v
					sr[j] += v
				}
			}
			fopt.Step(fused.ClipScale(1))
			if s := split.ClipScale(1); s != 1 {
				clipped++
				for _, m := range split.Mats() {
					if m.dirty {
						for i := range m.G {
							m.G[i] *= s
						}
					}
				}
			}
			sopt.Step(1)
			for k, fm := range fused.Mats() {
				sm := split.Mats()[k]
				if !sameBits(fm.W, sm.W) || !sameBits(fopt.m[k], sopt.m[k]) || !sameBits(fopt.v[k], sopt.v[k]) {
					t.Fatalf("step %d: matrix %d: fused W/m/v differ from clip then step", step, k)
				}
				if !sameBits(fm.G, sm.G) || fopt.live[k] != sopt.live[k] {
					t.Fatalf("step %d: matrix %d: fused G or liveness differ from clip then step", step, k)
				}
			}
		}
		if clipped < 400 {
			t.Fatalf("only %d of 800 steps clipped", clipped)
		}
	})
}

// TestBackwardVecMatchesSeparateLoops pins the fused kernel to the two
// loops it replaced, bit for bit: the outer-product weight gradient and
// the transposed product into dx, at shapes that exercise the four-row
// sweep, its tail, and rows skipped for a zero dy, on both dispatches.
func TestBackwardVecMatchesSeparateLoops(t *testing.T) {
	forEachDispatch(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		for _, shape := range [][2]int{{1, 3}, {4, 4}, {7, 5}, {80, 40}, {102, 80}} {
			r, c := shape[0], shape[1]
			m := NewMatRand(r, c, rng)
			for i := range m.G {
				m.G[i] = rng.NormFloat64()
			}
			dy, x, dx := randVec(r, rng), randVec(c, rng), randVec(c, rng)
			for i := 2; i < r; i += 7 {
				dy[i] = 0
			}
			wantG := append([]float64(nil), m.G...)
			wantDx := append([]float64(nil), dx...)
			for i := 0; i < r; i++ { // G += dy xᵀ
				if dy[i] == 0 {
					continue
				}
				for j := 0; j < c; j++ {
					wantG[i*c+j] += dy[i] * x[j]
				}
			}
			for i := 0; i < r; i++ { // dx += Wᵀ dy
				if dy[i] == 0 {
					continue
				}
				for j := 0; j < c; j++ {
					wantDx[j] += dy[i] * m.W[i*c+j]
				}
			}
			m.BackwardVec(dy, x, dx)
			if !sameBits(m.G, wantG) || !sameBits(dx, wantDx) {
				t.Fatalf("%dx%d: BackwardVec differs from the separate loops", r, c)
			}
		}
	})
}

// TestMulVecMatchesRowLoop pins MulVec and MulVecAdd, which now run on
// the four-row sweep, to the plain one-accumulator-per-row loop.
func TestMulVecMatchesRowLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, shape := range [][2]int{{1, 3}, {5, 7}, {80, 40}, {102, 80}} {
		r, c := shape[0], shape[1]
		m := NewMatRand(r, c, rng)
		v, y0 := randVec(c, rng), randVec(r, rng)
		want, wantAdd := NewVec(r), append([]float64(nil), y0...)
		for i := 0; i < r; i++ {
			s := 0.0
			for j := 0; j < c; j++ {
				s += m.W[i*c+j] * v[j]
			}
			want[i] = s
			wantAdd[i] += s
		}
		got, gotAdd := NewVec(r), append([]float64(nil), y0...)
		m.MulVec(v, got)
		m.MulVecAdd(v, gotAdd)
		if !sameBits(got, want) || !sameBits(gotAdd, wantAdd) {
			t.Fatalf("%dx%d: MulVec/MulVecAdd differ from the row loop", r, c)
		}
	}
}

// BenchmarkBackwardVec times the fused backward kernel on the GRU
// shapes of the sketch encoder (hidden 80, input 40), on the AVX2
// kernel (/avx2) and the scalar loop (/generic).
func BenchmarkBackwardVec(b *testing.B) {
	forEachDispatch(b, func(b *testing.B) {
		for _, shape := range [][2]int{{80, 40}, {80, 80}} {
			b.Run(fmt.Sprintf("%dx%d", shape[0], shape[1]), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				m := NewMatRand(shape[0], shape[1], rng)
				dy, x := randVec(shape[0], rng), randVec(shape[1], rng)
				dx := NewVec(shape[1])
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					m.BackwardVec(dy, x, dx)
				}
			})
		}
	})
}

// BenchmarkAdamStep times the clip scale + Adam.Step on the parameter set of
// the sketch model trained on Patients (embedding 257×40, GRU 40→80, a
// 102-way classifier, 48 slot scorers of 40×80), where each step writes
// what one training example does: a dozen embedding rows, the whole
// encoder and classifier, and three scorers out of the ten that the
// Patients corpus ever uses. /avx2 and /generic select the dispatch.
func BenchmarkAdamStep(b *testing.B) {
	forEachDispatch(b, func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		ps := &ParamSet{}
		emb := NewEmbedding(ps, "emb", 257, 40, rng)
		gru := NewGRU(ps, "enc", 40, 80, rng)
		cls := NewLinear(ps, "cls", 80, 102, rng)
		slots := make([]*Mat, 48)
		for k := range slots {
			slots[k] = ps.Register(fmt.Sprintf("slotW%02d", k), NewMatRand(40, 80, rng))
		}
		dense := []*Mat{gru.Wz, gru.Uz, gru.Bz, gru.Wr, gru.Ur, gru.Br, gru.Wh, gru.Uh, gru.Bh, cls.W, cls.B}
		grad := randVec(80, rng)
		write := func(m *Mat, row int) {
			g := m.GradRow(row)
			for j := range g {
				g[j] += grad[j] * 1e-3
			}
		}
		opt := NewAdam(ps, 0.004)
		step := func(n int) {
			for i := 0; i < 12; i++ {
				write(emb.E, (n*31+i*97)%emb.E.R)
			}
			for _, m := range dense {
				for r := 0; r < m.R; r++ {
					write(m, r)
				}
			}
			for i := 0; i < 3; i++ {
				s := slots[(n+i*3)%10]
				for r := 0; r < s.R; r++ {
					write(s, r)
				}
			}
			opt.Step(ps.ClipScale(5))
		}
		for n := 0; n < 200; n++ {
			step(n)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			step(200 + n)
		}
	})
}

// TestDropGrads: a parameter set without gradient buffers is clean, so
// the gradient passes that skip clean matrices run on it as no-ops,
// and its weights and forward pass are untouched.
func TestDropGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ps := &ParamSet{}
	g := NewGRU(ps, "g", 4, 6, rng)
	x, h := NewVec(4), NewVec(6)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	w := g.NewWork()
	want := append([]float64(nil), g.Forward(w, 0, x, h)...)
	ps.DropGrads()
	for i, m := range ps.Mats() {
		if m.G != nil || m.dirty {
			t.Fatalf("%s: G %v dirty %v after DropGrads", ps.Names()[i], m.G != nil, m.dirty)
		}
	}
	ps.ZeroGrad()
	if s := ps.ClipScale(1); s != 1 {
		t.Fatalf("ClipScale = %v, want 1", s)
	}
	if n := ps.GradNorm(); n != 0 {
		t.Fatalf("GradNorm = %v, want 0", n)
	}
	if got := g.Forward(w, 0, x, h); !sameFloats(got, want) {
		t.Fatalf("forward after DropGrads %v, before %v", got, want)
	}
}
