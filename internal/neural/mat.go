// Package neural is a small, dependency-free neural-network substrate
// sufficient to train the NL2SQL translators of this repository on a
// CPU: dense matrices with explicit gradients, embeddings, GRU cells,
// linear layers, Luong dot attention, softmax/cross-entropy, and the
// Adam optimizer. Modules implement explicit forward/backward passes
// (no tape autograd), which keeps the hot loops allocation-light and
// fast enough for the benchmark harness to retrain models many times.
// Training runs the modules' Forward and Backward, which keep every
// intermediate for backprop; inference steps a GRUPlan (plan.go) and
// writes Linear.Forward, Softmax and the activations into caller
// buffers, keeping nothing. Both sum through the same MulVec kernel,
// so a decode gives the training path's forward bits.
//
// The paper trains its models in a mainstream deep-learning framework
// on GPUs; this package is the substituted substrate (see DESIGN.md).
package neural

import (
	"fmt"
	"math"
	"math/rand"
)

// Mat is a row-major matrix with a weight buffer and a gradient
// buffer of the same shape.
//
// Dirty tracking. A matrix is clean when its whole gradient buffer is
// known to be zero. Every method that writes G (BackwardVec, GradRow,
// Embedding.AccumGrad and the bias updates of GRU and Linear) marks it
// dirty; ZeroGrad and Adam.Step, which zero G, mark it clean. GradNorm,
// ZeroGrad and Adam.Step skip clean matrices (Step also leaves their
// gradients unscaled), which is exact: a zero gradient adds nothing to
// the norm and is unchanged by scaling. Outside this package G must
// therefore be written only through those methods; a direct write to G
// of a clean matrix would be silently dropped.
type Mat struct {
	R, C  int
	W     []float64
	G     []float64
	dirty bool
}

// NewMat allocates a zero matrix. It starts dirty, so code in this
// package (tests included) may write its G directly before the first
// ZeroGrad or optimizer step.
func NewMat(r, c int) *Mat {
	return &Mat{R: r, C: c, W: make([]float64, r*c), G: make([]float64, r*c), dirty: true}
}

// NewMatRand allocates a matrix with Xavier/Glorot uniform init.
func NewMatRand(r, c int, rng *rand.Rand) *Mat {
	m := NewMat(r, c)
	scale := math.Sqrt(6.0 / float64(r+c))
	for i := range m.W {
		m.W[i] = (rng.Float64()*2 - 1) * scale
	}
	return m
}

// Set assigns the element at row i, column j.
func (m *Mat) Set(i, j int, v float64) { m.W[i*m.C+j] = v }

// Row returns a view of row i of the weights.
func (m *Mat) Row(i int) []float64 { return m.W[i*m.C : (i+1)*m.C] }

// GradRow returns a view of row i of the gradients for the caller to
// accumulate into, and marks the matrix dirty.
func (m *Mat) GradRow(i int) []float64 {
	m.dirty = true
	return m.G[i*m.C : (i+1)*m.C]
}

// addBiasGrad accumulates g into the gradient of a column bias (G += g).
func (m *Mat) addBiasGrad(g []float64) {
	m.dirty = true
	for i, v := range g {
		m.G[i] += v
	}
}

// ZeroGrad clears the gradient buffer (a no-op on a clean matrix).
func (m *Mat) ZeroGrad() {
	if !m.dirty {
		return
	}
	clear(m.G)
	m.dirty = false
}

// String summarizes the matrix shape.
func (m *Mat) String() string { return fmt.Sprintf("Mat(%dx%d)", m.R, m.C) }

// MulVec computes y = M v (len(v) >= C, len(y) >= R): each y[i] is one
// accumulator summed from +0 over ascending columns, the plain row
// loop's sum to the bit. Training's forward pass and every decode run
// on it.
func (m *Mat) MulVec(v, y []float64) { m.mulVec(v, y, false) }

// MulVecAdd computes y += M v, each row's sum formed as MulVec forms it
// and then added to y[i].
func (m *Mat) MulVecAdd(v, y []float64) { m.mulVec(v, y, true) }

// mulVec sweeps four weight rows at a time. Their four accumulators are
// independent, so the CPU overlaps their adds instead of waiting on one
// dependency chain; each accumulator still sees its own row's products
// in ascending column order. With AVX2 the four-row blocks run through
// mulBatch4AVX2 instead (mulVecAVX2); rows past the last whole block
// always take the one-row loop.
func (m *Mat) mulVec(x, y []float64, add bool) {
	x = x[:m.C]
	rows := m.R &^ 3
	if hasAVX2 && m.C >= 4 {
		m.mulVecAVX2(x, y, rows, add)
	} else {
		m.mulVec4(x, y, rows, add)
	}
	for i := rows; i < m.R; i++ {
		s := 0.0
		for j, rv := range m.Row(i) {
			s += rv * x[j]
		}
		if add {
			y[i] += s
		} else {
			y[i] = s
		}
	}
}

// mulVec4 is mulVec's four-row block in scalar form, over rows 0 to
// rows-1 (rows is a multiple of four).
func (m *Mat) mulVec4(x, y []float64, rows int, add bool) {
	c := m.C
	for i := 0; i < rows; i += 4 {
		// Equal lengths let the compiler drop the bounds checks.
		r0 := m.W[i*c : (i+1)*c][:len(x)]
		r1 := m.W[(i+1)*c : (i+2)*c][:len(x)]
		r2 := m.W[(i+2)*c : (i+3)*c][:len(x)]
		r3 := m.W[(i+3)*c : (i+4)*c][:len(x)]
		var s0, s1, s2, s3 float64
		for j, xv := range x {
			s0 += r0[j] * xv
			s1 += r1[j] * xv
			s2 += r2[j] * xv
			s3 += r3[j] * xv
		}
		out := y[i : i+4]
		if add {
			out[0] += s0
			out[1] += s1
			out[2] += s2
			out[3] += s3
		} else {
			out[0], out[1], out[2], out[3] = s0, s1, s2, s3
		}
	}
}

// mulChunk is how many rows one mulBatch4AVX2 call sums in the
// accumulate form, whose sums wait in a stack buffer until the tail
// columns are added.
const mulChunk = 64

// mulVecAVX2 is mulVec4 on the AVX2 kernel: mulBatch4AVX2 sums the
// first C&^3 columns of every row, one lane per row, and the scalar
// loop below adds the last C%4 columns to the same running sums before
// they are stored or added. Each output therefore sees exactly
// mulVec4's operations in mulVec4's order. The plain form sums straight
// into y: a float64 slot holds the running sum exactly.
func (m *Mat) mulVecAVX2(x, y []float64, rows int, add bool) {
	c := m.C
	n := c &^ 3
	var sums [mulChunk]float64
	out := y[:rows]
	for i0 := 0; i0 < rows; i0 += mulChunk {
		i1 := min(i0+mulChunk, rows)
		s := out[i0:i1]
		if add {
			s = sums[:i1-i0]
		}
		mulBatch4AVX2(m.W[i0*c:i1*c], x, s)
		if n < c {
			for k := range s {
				row := m.W[(i0+k)*c+n : (i0+k+1)*c]
				for j, rv := range row {
					s[k] += rv * x[n+j]
				}
			}
		}
		if add {
			for k, v := range s {
				out[i0+k] += v
			}
		}
	}
}

// BackwardVec is the backward pass of y = M x: it accumulates the
// weight gradient G += dy xᵀ and the input gradient dx += Mᵀ dy
// (len(dy) == R, len(x) == len(dx) == C) in one sweep over the rows, so
// x and dx are loaded once per four rows instead of once per row. Rows
// with dy[i] == 0 contribute nothing and are skipped. Every G element
// gets its single product, and every dx element its sum over rows in
// ascending order, exactly as separate outer-product and
// transposed-product loops compute them. With AVX2 a four-row block
// runs through backward4AVX2, four columns at a time in the same
// per-element order.
func (m *Mat) BackwardVec(dy, x, dx []float64) {
	m.dirty = true
	c := m.C
	x, dx = x[:c], dx[:c]
	dy = dy[:m.R]
	i := 0
	for ; i+4 <= len(dy); i += 4 {
		d := (*[4]float64)(dy[i : i+4])
		if d[0] == 0 || d[1] == 0 || d[2] == 0 || d[3] == 0 {
			for r := i; r < i+4; r++ {
				m.backwardRow(r, dy[r], x, dx)
			}
			continue
		}
		w, g := m.W[i*c:(i+4)*c], m.G[i*c:(i+4)*c]
		j := 0
		if hasAVX2 {
			j = c &^ 3
			backward4AVX2(d, w, g, x, dx)
		}
		backward4(d, w[j:], g[j:], c, x[j:], dx[j:])
	}
	for ; i < len(dy); i++ {
		m.backwardRow(i, dy[i], x, dx)
	}
}

// backward4 is BackwardVec's four-row block in scalar form, over the
// columns of x: w and g start at the block's first row and column,
// with row stride c, and d holds the four rows' dy. With AVX2 it runs
// only the last c%4 columns, after backward4AVX2.
func backward4(d *[4]float64, w, g []float64, c int, x, dx []float64) {
	d0, d1, d2, d3 := d[0], d[1], d[2], d[3]
	// Equal lengths let the compiler drop the bounds checks.
	n := len(x)
	dx = dx[:n]
	w0, g0 := w[:n], g[:n]
	w1, g1 := w[c:][:n], g[c:][:n]
	w2, g2 := w[2*c:][:n], g[2*c:][:n]
	w3, g3 := w[3*c:][:n], g[3*c:][:n]
	for j, xv := range x {
		g0[j] += d0 * xv
		g1[j] += d1 * xv
		g2[j] += d2 * xv
		g3[j] += d3 * xv
		s := dx[j]
		s += d0 * w0[j]
		s += d1 * w1[j]
		s += d2 * w2[j]
		s += d3 * w3[j]
		dx[j] = s
	}
}

// backwardRow is BackwardVec for the single row i with dy[i] == d.
func (m *Mat) backwardRow(i int, d float64, x, dx []float64) {
	if d == 0 {
		return
	}
	c := m.C
	w, g := m.W[i*c : (i+1)*c][:len(x)], m.G[i*c : (i+1)*c][:len(x)]
	dx = dx[:len(x)]
	for j, xv := range x {
		g[j] += d * xv
		dx[j] += d * w[j]
	}
}

// Vector helpers -----------------------------------------------------

// NewVec allocates a zero vector.
func NewVec(n int) []float64 { return make([]float64, n) }

// Sigmoid applies the logistic function elementwise into dst. With
// AVX2, sigmoidAVX2 runs the whole four-element groups, replaying
// math.Exp's own operations, and the scalar expression below runs any
// group it stops at and the tail, so every element gets the bits the
// scalar loop gives it.
func Sigmoid(src, dst []float64) {
	dst = dst[:len(src)]
	i := 0
	if hasAVX2 {
		for n := len(src) &^ 3; i < n; {
			if i += sigmoidAVX2(src[i:n], dst[i:n], expFused); i < n {
				for _, v := range src[i : i+4] {
					dst[i] = 1.0 / (1.0 + math.Exp(-v))
					i++
				}
			}
		}
	}
	for ; i < len(src); i++ {
		dst[i] = 1.0 / (1.0 + math.Exp(-src[i]))
	}
}

// Tanh applies tanh elementwise into dst, on tanhAVX2 where it can as
// Sigmoid runs on sigmoidAVX2.
func Tanh(src, dst []float64) {
	dst = dst[:len(src)]
	i := 0
	if hasAVX2 {
		for n := len(src) &^ 3; i < n; {
			if i += tanhAVX2(src[i:n], dst[i:n], expFused); i < n {
				for _, v := range src[i : i+4] {
					dst[i] = math.Tanh(v)
					i++
				}
			}
		}
	}
	for ; i < len(src); i++ {
		dst[i] = math.Tanh(src[i])
	}
}

// Softmax writes the softmax of src into dst and returns dst.
//
// The kernel is a decoder hot path (every decode step runs it over the
// vocabulary and over the attention scores), so it is written to
// minimize passes: one max scan, one fused exp+sum pass, and a final
// normalization that is skipped entirely when the exponentials already
// sum to exactly 1 (a one-element input, or a numerically saturated
// distribution) — multiplying by 1/1 would be a bit-identical no-op.
func Softmax(src, dst []float64) []float64 {
	if len(src) == 1 {
		dst[0] = 1
		return dst
	}
	max := math.Inf(-1)
	for _, v := range src {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range src {
		e := math.Exp(v - max)
		dst[i] = e
		sum += e
	}
	if sum != 1 {
		inv := 1.0 / sum
		for i := range dst {
			dst[i] *= inv
		}
	}
	return dst
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy computes y += a*x.
func Axpy(a float64, x, y []float64) {
	if a == 0 {
		return
	}
	for i, v := range x {
		y[i] += a * v
	}
}
