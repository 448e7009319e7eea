package neural

// Decode plans. A trained model's weights stop changing, so a decoder
// can work from layouts derived from them once. Everything here reads
// weights that its owner promises not to write while the derived form
// is in use: the owner builds it after the last write and drops it
// before the next (models.Sketch and models.Seq2Seq do so in
// TrainContext and their loaders). Every derived form gives the bits
// the live weights give.

// Panels is a row-packed copy of a matrix for the AVX2 matrix-vector
// kernel: panel q holds rows 4q..4q+3 column by column, four values
// (one per row) per column, so one 256-bit load feeds four rows' sums
// and each lane keeps one row's running sum with no transpose. Rows
// past the last whole panel, and the whole product without AVX2, run
// on the source matrix's scalar loops.
type Panels struct {
	m *Mat
	p []float64
}

// NewPanels packs m's weights. The panels are a copy: m must not be
// written while they are in use.
func NewPanels(m *Mat) *Panels {
	rows := m.R &^ 3
	p := make([]float64, rows*m.C)
	for i := 0; i < rows; i++ {
		q, r := i/4, i%4
		for j, w := range m.Row(i) {
			p[(q*m.C+j)*4+r] = w
		}
	}
	return &Panels{m: m, p: p}
}

// MulAdd computes y += M x, each y[i] getting the sum over j of
// M[i][j]*x[j] formed from +0 in ascending j and then added, exactly
// as MulVecAdd forms it, so the result is MulVecAdd's to the bit.
func (p *Panels) MulAdd(x, y []float64) {
	m := p.m
	if !hasAVX2 {
		m.MulVecAdd(x, y)
		return
	}
	x = x[:m.C]
	rows := m.R &^ 3
	panelMulAddAVX2(p.p, x, y[:rows])
	for i := rows; i < m.R; i++ {
		s := 0.0
		for j, w := range m.Row(i) {
			s += w * x[j]
		}
		y[i] += s
	}
}

// GRUPlan is a decode plan for a GRU fed by an embedding table. The
// input projections Wz·e, Wr·e and Wh·e depend only on the token, so
// the plan holds them for every vocabulary row, computed by the MulVec
// sums Forward uses; a step copies its token's three rows and adds the
// recurrent products, taken from Panels, then the biases. MulVecAdd
// forms U·h as its own sum before adding it to W·x, so the split
// changes no rounding.
type GRUPlan struct {
	g          *GRU
	vocab      int
	wz, wr, wh []float64 // vocab × Hid each
	uz, ur, uh *Panels
}

// NewGRUPlan builds g's plan over the embedding table e. Neither may be
// written while the plan is in use.
func NewGRUPlan(g *GRU, e *Embedding) *GRUPlan {
	vocab, hid := e.E.R, g.Hid
	proj := func(w *Mat) []float64 {
		y := make([]float64, vocab*hid)
		for id := 0; id < vocab; id++ {
			w.MulVec(e.E.Row(id), y[id*hid:(id+1)*hid])
		}
		return y
	}
	return &GRUPlan{
		g: g, vocab: vocab,
		wz: proj(g.Wz), wr: proj(g.Wr), wh: proj(g.Wh),
		uz: NewPanels(g.Uz), ur: NewPanels(g.Ur), uh: NewPanels(g.Uh),
	}
}

// ScratchLen is the length of the scratch slice Step takes.
func (p *GRUPlan) ScratchLen() int { return 3 * p.g.Hid }

// Step advances the hidden state h by token id (clamped to the table
// as Embedding.Lookup clamps it), writing the new state to hn, which
// may be h itself. The result is Forward's on the token's embedding,
// bit for bit. scratch must hold ScratchLen values.
func (p *GRUPlan) Step(id int, h, hn, scratch []float64) {
	g, hid := p.g, p.g.Hid
	if id < 0 || id >= p.vocab {
		id = 0
	}
	z, r, c := scratch[:hid], scratch[hid:2*hid], scratch[2*hid:3*hid]

	copy(z, p.wz[id*hid:(id+1)*hid])
	p.uz.MulAdd(h, z)
	for i, b := range g.Bz.W {
		z[i] += b
	}
	Sigmoid(z, z)

	copy(r, p.wr[id*hid:(id+1)*hid])
	p.ur.MulAdd(h, r)
	for i, b := range g.Br.W {
		r[i] += b
	}
	Sigmoid(r, r)

	for i, hv := range h[:hid] {
		r[i] *= hv // r⊙h
	}
	copy(c, p.wh[id*hid:(id+1)*hid])
	p.uh.MulAdd(r, c)
	for i, b := range g.Bh.W {
		c[i] += b
	}
	Tanh(c, c)

	hn = hn[:hid]
	for i, hv := range h[:hid] {
		hn[i] = (1-z[i])*hv + z[i]*c[i]
	}
}
