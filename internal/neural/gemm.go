package neural

// Inference substrate. The per-example training path in this package
// works one vector at a time (MulVec and friends) and keeps every
// intermediate for backprop. Inference needs neither: a Batch is K
// activation vectors stacked row-major (the decoders step one request
// at a time, K=1), MulBatch sweeps four weight rows at a time with
// independent accumulators, and an Arena recycles the step scratch so
// a steady-state decode step allocates nothing.
//
// Equivalence invariant (tested in gemm_test.go and the models golden
// tests): every batched kernel performs, per row, exactly the same
// floating-point operations in exactly the same order as its
// per-example counterpart. Results are therefore bit-identical to the
// training path's forward pass at every batch size.

// Batch is a dense row-major K×N activation matrix: row b holds
// example b's vector. It is the unit of the batched inference path.
type Batch struct {
	K, N int
	W    []float64
}

// NewBatch allocates a zero batch of k rows of width n.
func NewBatch(k, n int) *Batch {
	return &Batch{K: k, N: n, W: make([]float64, k*n)}
}

// Row returns a view of row b.
func (b *Batch) Row(i int) []float64 { return b.W[i*b.N : (i+1)*b.N] }

// MulBatch computes Y = X Mᵀ for a batch X (K×C) into Y (K×R):
// Y[b][i] = Σ_j M[i][j]·X[b][j]. Each output is one accumulator summed
// over j in ascending order, exactly as MulVec sums it, so every output
// row is bit-identical to MulVec on that row alone.
func (m *Mat) MulBatch(x, y *Batch) { m.mulBatch(x, y, false) }

// MulBatchAdd computes Y += X Mᵀ with the same ordering guarantees as
// MulBatch (the batched MulVecAdd).
func (m *Mat) MulBatchAdd(x, y *Batch) { m.mulBatch(x, y, true) }

// mulBatch sweeps four weight rows at a time across the batch. Their
// four accumulators are independent, so the CPU overlaps their adds
// instead of waiting on one dependency chain; each accumulator still
// sees its own row's products in MulVec's order. With AVX2 the
// four-row blocks run through mulBatch4AVX2 instead (mulBatchAVX2);
// rows past the last whole block always take the one-row loop.
func (m *Mat) mulBatch(x, y *Batch, add bool) {
	c := m.C
	rows := m.R &^ 3
	if hasAVX2 && c >= 4 {
		m.mulBatchAVX2(x, y, rows, add)
	} else {
		m.mulBatch4(x, y, rows, add)
	}
	for i := rows; i < m.R; i++ {
		row := m.W[i*c : (i+1)*c]
		for b := 0; b < x.K; b++ {
			xr := x.W[b*x.N : b*x.N+c]
			s := 0.0
			for j, rv := range row {
				s += rv * xr[j]
			}
			if add {
				y.W[b*y.N+i] += s
			} else {
				y.W[b*y.N+i] = s
			}
		}
	}
}

// mulBatch4 is mulBatch's four-row block in scalar form, over rows
// 0 to rows-1 (rows is a multiple of four).
func (m *Mat) mulBatch4(x, y *Batch, rows int, add bool) {
	c := m.C
	for i := 0; i < rows; i += 4 {
		r0 := m.W[i*c : (i+1)*c]
		r1 := m.W[(i+1)*c : (i+2)*c]
		r2 := m.W[(i+2)*c : (i+3)*c]
		r3 := m.W[(i+3)*c : (i+4)*c]
		for b := 0; b < x.K; b++ {
			xr := x.W[b*x.N : b*x.N+c]
			// Equal lengths let the compiler drop the bounds checks.
			r0, r1, r2, r3 := r0[:len(xr)], r1[:len(xr)], r2[:len(xr)], r3[:len(xr)]
			var s0, s1, s2, s3 float64
			for j, xv := range xr {
				s0 += r0[j] * xv
				s1 += r1[j] * xv
				s2 += r2[j] * xv
				s3 += r3[j] * xv
			}
			out := y.W[b*y.N+i : b*y.N+i+4]
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
}

// mulChunk is how many rows one mulBatch4AVX2 call sums in the
// accumulate form, whose sums wait in a stack buffer until the tail
// columns are added.
const mulChunk = 64

// mulBatchAVX2 is mulBatch4 on the AVX2 kernel: mulBatch4AVX2 sums
// the first C&^3 columns of every row, one lane per row, and the
// scalar loop below adds the last C%4 columns to the same running
// sums before they are stored or added. Each output therefore sees
// exactly mulBatch4's operations in mulBatch4's order. The plain form
// sums straight into y: a float64 slot holds the running sum exactly.
func (m *Mat) mulBatchAVX2(x, y *Batch, rows int, add bool) {
	c := m.C
	n := c &^ 3
	var sums [mulChunk]float64
	for b := 0; b < x.K; b++ {
		xr := x.W[b*x.N : b*x.N+c]
		out := y.W[b*y.N : b*y.N+rows]
		for i0 := 0; i0 < rows; i0 += mulChunk {
			i1 := min(i0+mulChunk, rows)
			s := out[i0:i1]
			if add {
				s = sums[:i1-i0]
			}
			mulBatch4AVX2(m.W[i0*c:i1*c], xr, s)
			if n < c {
				for k := range s {
					row := m.W[(i0+k)*c+n : (i0+k+1)*c]
					for j, rv := range row {
						s[k] += rv * xr[n+j]
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
}

// AddBias adds a column bias (R×1 Mat) to every row of the batch.
func (b *Batch) AddBias(bias *Mat) {
	for r := 0; r < b.K; r++ {
		row := b.Row(r)
		for i := range row {
			row[i] += bias.W[i]
		}
	}
}

// SigmoidBatch applies the logistic function elementwise (same per-
// element computation as Sigmoid).
func SigmoidBatch(src, dst *Batch) {
	Sigmoid(src.W, dst.W)
}

// TanhBatch applies tanh elementwise.
func TanhBatch(src, dst *Batch) {
	Tanh(src.W, dst.W)
}

// SoftmaxRows applies Softmax independently to every row, reusing the
// sequential kernel per row so each row's normalization is
// bit-identical to the per-example path.
func SoftmaxRows(src, dst *Batch) *Batch {
	for b := 0; b < src.K; b++ {
		Softmax(src.Row(b), dst.Row(b))
	}
	return dst
}

// Arena is a recycling allocator for inference scratch: Vec and Batch
// hand out zeroed buffers drawn from an internal free list, and Reset
// returns every outstanding buffer to the list. A decode loop that
// Resets once per step reaches a steady state where no step allocates
// — the buffer sequence repeats, so every request is served from the
// same recycled slabs. An Arena is single-goroutine state; each
// batched decode owns its own.
type Arena struct {
	bufs [][]float64
	next int
	// Batch headers are recycled alongside their buffers — a scratch
	// *Batch escaping to the heap per kernel call would otherwise undo
	// the zero-alloc steady state.
	hdrs  []*Batch
	hnext int
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// take returns a zeroed buffer of length n, recycling a prior slab
// when one with sufficient capacity is next in line.
func (a *Arena) take(n int) []float64 {
	if a.next < len(a.bufs) && cap(a.bufs[a.next]) >= n {
		buf := a.bufs[a.next][:n]
		a.next++
		for i := range buf {
			buf[i] = 0
		}
		return buf
	}
	buf := make([]float64, n)
	if a.next < len(a.bufs) {
		// The slab in line is too small for this request; replace it so
		// the steady state converges instead of re-allocating forever.
		a.bufs[a.next] = buf
	} else {
		a.bufs = append(a.bufs, buf)
	}
	a.next++
	return buf
}

// Vec returns a zeroed scratch vector of length n valid until Reset.
func (a *Arena) Vec(n int) []float64 { return a.take(n) }

// Batch returns a zeroed k×n scratch batch valid until Reset.
func (a *Arena) Batch(k, n int) *Batch {
	var h *Batch
	if a.hnext < len(a.hdrs) {
		h = a.hdrs[a.hnext]
	} else {
		h = &Batch{}
		a.hdrs = append(a.hdrs, h)
	}
	a.hnext++
	h.K, h.N, h.W = k, n, a.take(k*n)
	return h
}

// Reset recycles every buffer and header handed out since the last
// Reset.
func (a *Arena) Reset() { a.next, a.hnext = 0, 0 }

// StepBatch computes one GRU step for a batch of examples: given
// inputs X (K×In) and hidden states H (K×Hid) it returns H' (K×Hid)
// drawn from the arena. Row b of the result is bit-identical to
// Forward(X.Row(b), H.Row(b)) — the kernels below replay the exact
// per-gate accumulation order of the sequential step (W-term, then
// U-term, then bias, then the activation). No backprop cache is built;
// this is the inference-only path.
func (g *GRU) StepBatch(x, h *Batch, a *Arena) *Batch {
	hid := g.Hid
	k := x.K

	az := a.Batch(k, hid)
	g.Wz.MulBatch(x, az)
	g.Uz.MulBatchAdd(h, az)
	az.AddBias(g.Bz)
	z := a.Batch(k, hid)
	SigmoidBatch(az, z)

	ar := a.Batch(k, hid)
	g.Wr.MulBatch(x, ar)
	g.Ur.MulBatchAdd(h, ar)
	ar.AddBias(g.Br)
	r := a.Batch(k, hid)
	SigmoidBatch(ar, r)

	rh := a.Batch(k, hid)
	for i, rv := range r.W {
		rh.W[i] = rv * h.W[i]
	}
	ac := a.Batch(k, hid)
	g.Wh.MulBatch(x, ac)
	g.Uh.MulBatchAdd(rh, ac)
	ac.AddBias(g.Bh)
	c := a.Batch(k, hid)
	TanhBatch(ac, c)

	hn := a.Batch(k, hid)
	for i := range hn.W {
		hn.W[i] = (1-z.W[i])*h.W[i] + z.W[i]*c.W[i]
	}
	return hn
}

// LookupBatch copies the embedding rows for ids into an arena batch
// (ids are clamped exactly as Lookup clamps them). The copy is what
// lets the batch advance through the GEMM kernels contiguously; the
// values are the same rows Lookup returns as views.
func (e *Embedding) LookupBatch(ids []int, a *Arena) *Batch {
	out := a.Batch(len(ids), e.Dim)
	for b, id := range ids {
		copy(out.Row(b), e.Lookup(id))
	}
	return out
}

// ForwardBatch computes Y = X Wᵀ + b for a batch, row-equivalent to
// Forward (same MulVec ordering, then the bias add).
func (l *Linear) ForwardBatch(x *Batch, a *Arena) *Batch {
	y := a.Batch(x.K, l.Out)
	l.W.MulBatch(x, y)
	y.AddBias(l.B)
	return y
}
