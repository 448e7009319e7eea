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

// Shadow returns a GRU over shadow matrices (shared weights, private
// gradients) registered on ps under the same prefix and in the same
// order as NewGRU, so a shadow ParamSet stays merge-compatible with
// the original (see ParamSet.MergeGradsFrom).
func (g *GRU) Shadow(ps *ParamSet, prefix string) *GRU {
	reg := func(n string, m *Mat) *Mat { return ps.Register(prefix+"."+n, m.Shadow()) }
	return &GRU{
		In: g.In, Hid: g.Hid,
		Wz: reg("Wz", g.Wz),
		Uz: reg("Uz", g.Uz),
		Bz: reg("Bz", g.Bz),
		Wr: reg("Wr", g.Wr),
		Ur: reg("Ur", g.Ur),
		Br: reg("Br", g.Br),
		Wh: reg("Wh", g.Wh),
		Uh: reg("Uh", g.Uh),
		Bh: reg("Bh", g.Bh),
	}
}

// GRUCache holds the intermediates of one forward step needed by the
// backward pass.
type GRUCache struct {
	X, H        []float64 // inputs
	Z, R, C, RH []float64 // gates, candidate, r⊙h
	HNew        []float64
}

// Forward computes one step and returns the new hidden state with the
// cache for backprop. x has length In, h length Hid.
func (g *GRU) Forward(x, h []float64) ([]float64, *GRUCache) {
	hid := g.Hid
	cache := &GRUCache{
		X: x, H: h,
		Z: NewVec(hid), R: NewVec(hid), C: NewVec(hid),
		RH: NewVec(hid), HNew: NewVec(hid),
	}
	az := NewVec(hid)
	g.Wz.MulVec(x, az)
	g.Uz.MulVecAdd(h, az)
	for i := range az {
		az[i] += g.Bz.W[i]
	}
	Sigmoid(az, cache.Z)

	ar := NewVec(hid)
	g.Wr.MulVec(x, ar)
	g.Ur.MulVecAdd(h, ar)
	for i := range ar {
		ar[i] += g.Br.W[i]
	}
	Sigmoid(ar, cache.R)

	for i := range cache.RH {
		cache.RH[i] = cache.R[i] * h[i]
	}
	ac := NewVec(hid)
	g.Wh.MulVec(x, ac)
	g.Uh.MulVecAdd(cache.RH, ac)
	for i := range ac {
		ac[i] += g.Bh.W[i]
	}
	Tanh(ac, cache.C)

	for i := range cache.HNew {
		cache.HNew[i] = (1-cache.Z[i])*h[i] + cache.Z[i]*cache.C[i]
	}
	return cache.HNew, cache
}

// Backward accumulates parameter gradients for one step given the
// gradient dHNew w.r.t. the step's output, and returns (dx, dh), the
// gradients w.r.t. the step's inputs.
func (g *GRU) Backward(cache *GRUCache, dHNew []float64) (dx, dh []float64) {
	hid := g.Hid
	dx = NewVec(g.In)
	dh = NewVec(hid)

	dc := NewVec(hid)
	dz := NewVec(hid)
	for i := 0; i < hid; i++ {
		dc[i] = dHNew[i] * cache.Z[i]
		dz[i] = dHNew[i] * (cache.C[i] - cache.H[i])
		dh[i] += dHNew[i] * (1 - cache.Z[i])
	}

	// Candidate path: c = tanh(ac).
	dac := NewVec(hid)
	for i := 0; i < hid; i++ {
		dac[i] = dc[i] * (1 - cache.C[i]*cache.C[i])
	}
	g.Wh.BackwardVec(dac, cache.X, dx)
	dRH := NewVec(hid)
	g.Uh.BackwardVec(dac, cache.RH, dRH)
	g.Bh.addBiasGrad(dac)
	dr := NewVec(hid)
	for i := 0; i < hid; i++ {
		dr[i] = dRH[i] * cache.H[i]
		dh[i] += dRH[i] * cache.R[i]
	}

	// Update gate path.
	daz := NewVec(hid)
	for i := 0; i < hid; i++ {
		daz[i] = dz[i] * cache.Z[i] * (1 - cache.Z[i])
	}
	g.Wz.BackwardVec(daz, cache.X, dx)
	g.Uz.BackwardVec(daz, cache.H, dh)
	g.Bz.addBiasGrad(daz)

	// Reset gate path.
	dar := NewVec(hid)
	for i := 0; i < hid; i++ {
		dar[i] = dr[i] * cache.R[i] * (1 - cache.R[i])
	}
	g.Wr.BackwardVec(dar, cache.X, dx)
	g.Ur.BackwardVec(dar, cache.H, dh)
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

// Shadow returns an Embedding over a shadow matrix (shared weights,
// private gradients) registered on ps under name.
func (e *Embedding) Shadow(ps *ParamSet, name string) *Embedding {
	return &Embedding{Dim: e.Dim, E: ps.Register(name, e.E.Shadow())}
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

// Shadow returns a Linear over shadow matrices (shared weights,
// private gradients) registered on ps under the same prefix and in the
// same order as NewLinear.
func (l *Linear) Shadow(ps *ParamSet, prefix string) *Linear {
	return &Linear{
		In: l.In, Out: l.Out,
		W: ps.Register(prefix+".W", l.W.Shadow()),
		B: ps.Register(prefix+".B", l.B.Shadow()),
	}
}

// Forward computes y = W x + b.
func (l *Linear) Forward(x []float64) []float64 {
	y := NewVec(l.Out)
	l.W.MulVec(x, y)
	for i := range y {
		y[i] += l.B.W[i]
	}
	return y
}

// Backward accumulates gradients given dY and the cached input x, and
// returns dX.
func (l *Linear) Backward(x, dY []float64) []float64 {
	dx := NewVec(l.In)
	l.W.BackwardVec(dY, x, dx)
	l.B.addBiasGrad(dY)
	return dx
}
