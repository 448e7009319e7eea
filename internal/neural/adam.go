package neural

import (
	"fmt"
	"math"
)

// ParamSet is a registry of trainable matrices, shared by a model and
// its optimizer.
type ParamSet struct {
	mats  []*Mat
	names []string
}

// Register adds a matrix under a name (names make save/load stable).
func (p *ParamSet) Register(name string, m *Mat) *Mat {
	p.mats = append(p.mats, m)
	p.names = append(p.names, name)
	return m
}

// Mats returns the registered matrices.
func (p *ParamSet) Mats() []*Mat { return p.mats }

// Names returns the registered names, parallel to Mats.
func (p *ParamSet) Names() []string { return p.names }

// ZeroGrad clears all gradients.
//
//lint:allow deadcode the gradient checks (models, neural) reset gradients through it before each probe
func (p *ParamSet) ZeroGrad() {
	for _, m := range p.mats {
		m.ZeroGrad()
	}
}

// GradNorm returns the global L2 norm of all gradients. Clean
// matrices are skipped: their squares would add exactly zero.
func (p *ParamSet) GradNorm() float64 {
	s := 0.0
	for _, m := range p.mats {
		if !m.dirty {
			continue
		}
		for _, g := range m.G {
			s += g * g
		}
	}
	return math.Sqrt(s)
}

// ClipScale returns the factor that brings the global gradient norm to
// at most maxNorm: 1 when the norm is already within it (or zero), and
// maxNorm/norm otherwise. Adam.Step applies it as it reads each
// gradient.
func (p *ParamSet) ClipScale(maxNorm float64) float64 {
	n := p.GradNorm()
	if n <= maxNorm || n == 0 {
		return 1
	}
	return maxNorm / n
}

// DropGrads releases every matrix's gradient buffer, for a parameter
// set that from now on only runs inference. A loaded model never reads
// its gradients, but as live heap they would still raise the garbage
// collector's heap goal, and so the process's resident set. The
// matrices are left clean; a gradient writer on one of them panics.
func (p *ParamSet) DropGrads() {
	for _, m := range p.mats {
		m.G, m.dirty = nil, false
	}
}

// NumParams returns the total number of scalar parameters.
func (p *ParamSet) NumParams() int {
	n := 0
	for _, m := range p.mats {
		n += len(m.W)
	}
	return n
}

// Adam is the Adam optimizer (Kingma & Ba) over a ParamSet.
type Adam struct {
	LR     float64
	Beta1  float64
	Beta2  float64
	Eps    float64
	t      int
	m, v   [][]float64
	params *ParamSet
	// live[k] is false only when every first and second moment of
	// matrix k is zero. A clean matrix that is not live has nothing for
	// Step to do: every element would take the untouched-element skip.
	live []bool
}

// NewAdam returns an Adam optimizer with the usual defaults.
func NewAdam(p *ParamSet, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: p}
	for _, m := range p.mats {
		a.m = append(a.m, make([]float64, len(m.W)))
		a.v = append(a.v, make([]float64, len(m.W)))
	}
	a.live = make([]bool, len(p.mats))
	return a
}

// AdamState is the optimizer's serializable state: the step counter
// and the first/second moment buffers, in parameter registration
// order. Checkpoint/resume must carry it — resuming with fresh moments
// would change every subsequent update.
type AdamState struct {
	T    int
	M, V [][]float64
}

// State snapshots the optimizer (deep copies, safe to serialize while
// training continues).
func (a *Adam) State() AdamState {
	st := AdamState{T: a.t, M: make([][]float64, len(a.m)), V: make([][]float64, len(a.v))}
	for i := range a.m {
		st.M[i] = append([]float64(nil), a.m[i]...)
		st.V[i] = append([]float64(nil), a.v[i]...)
	}
	return st
}

// Restore loads a snapshot taken by State into this optimizer. The
// optimizer must have been built over a ParamSet with the same shapes.
func (a *Adam) Restore(st AdamState) error {
	if len(st.M) != len(a.m) || len(st.V) != len(a.v) {
		return fmt.Errorf("neural: Adam.Restore: state has %d/%d moment buffers, optimizer has %d", len(st.M), len(st.V), len(a.m))
	}
	for i := range a.m {
		if len(st.M[i]) != len(a.m[i]) || len(st.V[i]) != len(a.v[i]) {
			return fmt.Errorf("neural: Adam.Restore: moment buffer %d has %d/%d values, want %d", i, len(st.M[i]), len(st.V[i]), len(a.m[i]))
		}
		copy(a.m[i], st.M[i])
		copy(a.v[i], st.V[i])
		a.live[i] = true // the next Step finds out which really are
	}
	a.t = st.T
	return nil
}

// adamConsts are one step's constants, in the layout adamAVX2 reads.
// scale is repeated four times so the kernel can take it as a 256-bit
// memory operand; unbias is 0 once b1c has rounded to 1.
type adamConsts struct {
	b1, c1, b2, c2, b1c, b2c, lr, eps float64
	scale                             [4]float64
	unbias                            int64
}

// Step applies one Adam update from the accumulated gradients, each
// multiplied by scale as it is read (ParamSet.ClipScale's factor, or 1
// for no clipping), and clears them. The product is the gradient a
// separate scaling pass would have stored, so the update is the one
// that pass followed by an unscaled step gives, bit for bit; a clean
// matrix is read unscaled, as such a pass would have left it.
//
// Matrices that are clean and not live are skipped whole; within the
// rest, elements whose scaled gradient and both moments are zero are
// skipped one by one (untouched embedding rows, unused slot scorers),
// keeping the scaled gradient, a signed zero. Both skips leave exactly
// the state the full update would: such an element's update is a
// no-op. Once the first bias correction 1-β₁ᵗ rounds to 1 (from
// t = 356 at β₁ = 0.9) its divide is skipped, since x/1 is x. What
// remains is bound by the other divides and the square root on live
// elements, which cannot be rewritten as multiplications without
// changing the rounding. With AVX2 the elements go four at a time
// through adamAVX2, which performs each element's operations in this
// loop's order, so results are bit-identical; the scalar loop below
// runs the last len%4 elements, or all of them without AVX2.
func (a *Adam) Step(scale float64) {
	a.t++
	b1, b2 := a.Beta1, a.Beta2
	c1, c2 := 1-b1, 1-b2
	b1c := 1 - math.Pow(b1, float64(a.t))
	b2c := 1 - math.Pow(b2, float64(a.t))
	lr, eps := a.LR, a.Eps
	unbias := b1c != 1
	consts := adamConsts{b1: b1, c1: c1, b2: b2, c2: c2, b1c: b1c, b2c: b2c, lr: lr, eps: eps}
	if unbias {
		consts.unbias = 1
	}
	for k, mat := range a.params.mats {
		if !mat.dirty && !a.live[k] {
			continue
		}
		s := scale
		if !mat.dirty {
			s = 1
		}
		mat.dirty = false
		consts.scale = [4]float64{s, s, s, s}
		grad := mat.G
		live, n := false, 0
		if hasAVX2 {
			n = len(grad) &^ 3
			live = adamAVX2(mat.W[:n], a.m[k][:n], a.v[k][:n], grad[:n], &consts)
		}
		// The scalar loop: the last len%4 elements after the kernel, or
		// all of them without AVX2. Equal lengths let the compiler drop
		// the bounds checks.
		grad = grad[n:]
		w, mbuf, vbuf := mat.W[n:][:len(grad)], a.m[k][n:][:len(grad)], a.v[k][n:][:len(grad)]
		for i, g := range grad {
			g *= s
			m, v := mbuf[i], vbuf[i]
			if g == 0 && m == 0 && v == 0 {
				grad[i] = g
				continue
			}
			live = true
			m = b1*m + c1*g
			v = b2*v + c2*g*g
			mbuf[i], vbuf[i] = m, v
			mh := m
			if unbias {
				mh = m / b1c
			}
			w[i] -= lr * mh / (math.Sqrt(v/b2c) + eps)
			grad[i] = 0
		}
		a.live[k] = live
	}
}
