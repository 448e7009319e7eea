package neural

import "math/rand"

// GRU is a gated recurrent unit cell:
//
//	z  = σ(Wz x + Uz h + bz)
//	r  = σ(Wr x + Ur h + br)
//	c  = tanh(Wh x + Uh (r⊙h) + bh)
//	h' = (1-z)⊙h + z⊙c
type GRU struct {
	In, Hid                            int
	Wz, Uz, Bz, Wr, Ur, Br, Wh, Uh, Bh *Mat
}

// NewGRU builds a GRU cell and registers its parameters under the
// given name prefix.
func NewGRU(ps *ParamSet, prefix string, in, hid int, rng *rand.Rand) *GRU {
	reg := func(n string, m *Mat) *Mat { return ps.Register(prefix+"."+n, m) }
	return &GRU{
		In: in, Hid: hid,
		Wz: reg("Wz", NewMatRand(hid, in, rng)),
		Uz: reg("Uz", NewMatRand(hid, hid, rng)),
		Bz: reg("Bz", NewMat(hid, 1)),
		Wr: reg("Wr", NewMatRand(hid, in, rng)),
		Ur: reg("Ur", NewMatRand(hid, hid, rng)),
		Br: reg("Br", NewMat(hid, 1)),
		Wh: reg("Wh", NewMatRand(hid, in, rng)),
		Uh: reg("Uh", NewMatRand(hid, hid, rng)),
		Bh: reg("Bh", NewMat(hid, 1)),
	}
}

// GRUWork is a caller-owned workspace for one GRU's training pass over
// a sequence: every timestep's cache (inputs, gates, candidate, r⊙h
// and new state), grown to the longest sequence seen, the backward
// pass's gate temporaries, and its dx and dh buffers. Forward and
// Backward write only into it, so a pass over sequences no longer than
// ones seen before allocates nothing. A workspace serves one goroutine
// and one GRU.
type GRUWork struct {
	hid   int
	steps []gruStep
	// Backward's temporaries: the pre-activation gradients of the
	// candidate, update and reset paths, and the gradient of r⊙h.
	dac, daz, dar, drh []float64
	dx                 []float64
	dh                 [2][]float64 // ping-pong: a returned dh may feed the next call
	flip               int
}

// gruStep holds the intermediates of one forward step that the backward
// pass needs. x and h are the caller's; the rest is the workspace's.
type gruStep struct {
	x, h        []float64
	z, r, c, rh []float64 // gates, candidate, r⊙h
	hNew        []float64
}

// NewWork returns an empty workspace for g.
func (g *GRU) NewWork() *GRUWork {
	hid := g.Hid
	buf := make([]float64, 6*hid+g.In)
	cut := func(k int) []float64 {
		s := buf[:k:k]
		buf = buf[k:]
		return s
	}
	w := &GRUWork{hid: hid}
	w.dac, w.daz, w.dar, w.drh = cut(hid), cut(hid), cut(hid), cut(hid)
	w.dh[0], w.dh[1], w.dx = cut(hid), cut(hid), cut(g.In)
	return w
}

// step returns timestep t's cache, growing the workspace to hold it.
func (w *GRUWork) step(t int) *gruStep {
	for len(w.steps) <= t {
		buf := make([]float64, 5*w.hid)
		s := gruStep{}
		s.z, s.r, s.c, s.rh, s.hNew = buf[:w.hid], buf[w.hid:2*w.hid], buf[2*w.hid:3*w.hid], buf[3*w.hid:4*w.hid], buf[4*w.hid:]
		w.steps = append(w.steps, s)
	}
	return &w.steps[t]
}

// Forward computes timestep t of a sequence from input x (length In)
// and previous state h (length Hid), caching the step in w for
// Backward. The returned new state lives in w and
// stays valid until timestep t is computed again, so it may be the
// next step's h. x and h must not change before Backward has run on t.
func (g *GRU) Forward(w *GRUWork, t int, x, h []float64) []float64 {
	s := w.step(t)
	s.x, s.h = x, h
	// Each pre-activation is formed in its gate's buffer and the
	// activation applied in place.
	g.Wz.MulVec(x, s.z)
	g.Uz.MulVecAdd(h, s.z)
	for i, b := range g.Bz.W {
		s.z[i] += b
	}
	Sigmoid(s.z, s.z)

	g.Wr.MulVec(x, s.r)
	g.Ur.MulVecAdd(h, s.r)
	for i, b := range g.Br.W {
		s.r[i] += b
	}
	Sigmoid(s.r, s.r)

	for i := range s.rh {
		s.rh[i] = s.r[i] * h[i]
	}
	g.Wh.MulVec(x, s.c)
	g.Uh.MulVecAdd(s.rh, s.c)
	for i, b := range g.Bh.W {
		s.c[i] += b
	}
	Tanh(s.c, s.c)

	for i := range s.hNew {
		s.hNew[i] = (1-s.z[i])*h[i] + s.z[i]*s.c[i]
	}
	return s.hNew
}

// Backward accumulates parameter gradients for timestep t given the
// gradient dHNew w.r.t. the step's output, and returns (dx, dh), the
// gradients w.r.t. the step's inputs. Both live in w: dx until the
// next Backward on w, dh until the one after, so dh may be passed
// (even modified) as the next call's dHNew.
func (g *GRU) Backward(w *GRUWork, t int, dHNew []float64) (dx, dh []float64) {
	s := &w.steps[t]
	hid := g.Hid
	dx = w.dx
	dh = w.dh[w.flip]
	w.flip ^= 1
	clear(dx)
	clear(dh)
	dac, daz, dar, drh := w.dac, w.daz, w.dar, w.drh
	for i := 0; i < hid; i++ {
		dc := dHNew[i] * s.z[i]
		dz := dHNew[i] * (s.c[i] - s.h[i])
		dh[i] += dHNew[i] * (1 - s.z[i])
		dac[i] = dc * (1 - s.c[i]*s.c[i]) // c = tanh(ac)
		daz[i] = dz * s.z[i] * (1 - s.z[i])
	}

	// Candidate path.
	g.Wh.BackwardVec(dac, s.x, dx)
	clear(drh)
	g.Uh.BackwardVec(dac, s.rh, drh)
	g.Bh.addBiasGrad(dac)
	for i := 0; i < hid; i++ {
		dr := drh[i] * s.h[i]
		dh[i] += drh[i] * s.r[i]
		dar[i] = dr * s.r[i] * (1 - s.r[i])
	}

	// Update gate path.
	g.Wz.BackwardVec(daz, s.x, dx)
	g.Uz.BackwardVec(daz, s.h, dh)
	g.Bz.addBiasGrad(daz)

	// Reset gate path.
	g.Wr.BackwardVec(dar, s.x, dx)
	g.Ur.BackwardVec(dar, s.h, dh)
	g.Br.addBiasGrad(dar)

	return dx, dh
}

// Embedding is a trainable token-embedding table with sparse gradient
// updates.
type Embedding struct {
	Dim int
	E   *Mat // rows = vocab, cols = dim
}

// NewEmbedding builds an embedding table registered under name.
func NewEmbedding(ps *ParamSet, name string, vocab, dim int, rng *rand.Rand) *Embedding {
	return &Embedding{Dim: dim, E: ps.Register(name, NewMatRand(vocab, dim, rng))}
}

// Lookup returns the embedding row for a token id (clamped to the
// table; callers map OOV to a dedicated id).
func (e *Embedding) Lookup(id int) []float64 {
	if id < 0 || id >= e.E.R {
		id = 0
	}
	return e.E.Row(id)
}

// AccumGrad adds g to the gradient row of token id.
func (e *Embedding) AccumGrad(id int, g []float64) {
	if id < 0 || id >= e.E.R {
		id = 0
	}
	row := e.E.GradRow(id)
	for i, v := range g {
		row[i] += v
	}
}

// Linear is a fully connected layer y = W x + b.
type Linear struct {
	In, Out int
	W       *Mat
	B       *Mat
}

// NewLinear builds a linear layer registered under the name prefix.
func NewLinear(ps *ParamSet, prefix string, in, out int, rng *rand.Rand) *Linear {
	return &Linear{
		In: in, Out: out,
		W: ps.Register(prefix+".W", NewMatRand(out, in, rng)),
		B: ps.Register(prefix+".B", NewMat(out, 1)),
	}
}

// Forward sets y = W x + b and returns y, which must hold Out values.
func (l *Linear) Forward(x, y []float64) []float64 {
	y = y[:l.Out]
	l.W.MulVec(x, y)
	for i, b := range l.B.W {
		y[i] += b
	}
	return y
}

// Backward accumulates gradients given dY and the cached input x, and
// adds Wᵀ dY into dx (length In).
func (l *Linear) Backward(x, dY, dx []float64) {
	l.W.BackwardVec(dY, x, dx)
	l.B.addBiasGrad(dY)
}
