package neural

import (
	"math/rand"
	"testing"
)

// randVec fills a length-n vector from rng.
func randVec(n int, rng *rand.Rand) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// planFixture is a GRU over a 12-token embedding table with random
// biases. Its 10 hidden units leave a row past the last whole panel,
// so Panels' scalar rows run too.
func planFixture(rng *rand.Rand) (*GRU, *Embedding) {
	ps := &ParamSet{}
	e := NewEmbedding(ps, "e", 12, 6, rng)
	g := NewGRU(ps, "g", 6, 10, rng)
	for _, m := range []*Mat{g.Bz, g.Br, g.Bh} {
		for i := range m.W {
			m.W[i] = rng.NormFloat64()
		}
	}
	return g, e
}

// TestGRUPlanMatchesForward: a plan step is Forward on the token's
// embedding, bit for bit, over chained steps, with out-of-range ids
// clamped as Lookup clamps them and the new state written over the
// old, on both dispatches.
func TestGRUPlanMatchesForward(t *testing.T) {
	forEachDispatch(t, func(t *testing.T) {
		g, e := planFixture(rand.New(rand.NewSource(17)))
		p := NewGRUPlan(g, e)
		h, want := NewVec(10), NewVec(10)
		w, scratch := g.NewWork(), NewVec(p.ScratchLen())
		for step, id := range []int{3, 0, 11, -1, 12, 7, 7, 40, 2} {
			want = g.Forward(w, step, e.Lookup(id), want)
			p.Step(id, h, h, scratch)
			if !sameBits(h, want) {
				t.Fatalf("step %d (id %d): plan %v, Forward %v", step, id, h, want)
			}
		}
	})
}

// TestDecodeStepAllocs: a decode step on the plan — the GRU step, an
// output projection and its softmax, all into caller buffers —
// allocates nothing.
func TestDecodeStepAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, e := planFixture(rng)
	l := NewLinear(&ParamSet{}, "l", 10, 12, rng)
	p := NewGRUPlan(g, e)
	h, scratch := randVec(10, rng), NewVec(p.ScratchLen())
	logits, probs := NewVec(12), NewVec(12)
	id := 0
	step := func() {
		p.Step(id, h, h, scratch)
		Softmax(l.Forward(h, logits), probs)
		id = (id + 5) % 12
	}
	if allocs := testing.AllocsPerRun(50, step); allocs > 0 {
		t.Fatalf("a decode step allocates %.1f times, want 0", allocs)
	}
}

// BenchmarkDecodeStep times one GRU step at the seq2seq decoder's
// default shape (embedding 48, hidden 96, a 512-token table) through
// the training path's Forward, which builds its backprop cache, and
// through the decode plan, on both dispatches:
//
//	go test -run '^$' -bench BenchmarkDecodeStep ./internal/neural/
func BenchmarkDecodeStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ps := &ParamSet{}
	e := NewEmbedding(ps, "e", 512, 48, rng)
	g := NewGRU(ps, "g", 48, 96, rng)
	p := NewGRUPlan(g, e)
	h, scratch := randVec(96, rng), NewVec(p.ScratchLen())
	w := g.NewWork()
	forEachDispatch(b, func(b *testing.B) {
		b.Run("forward", func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				g.Forward(w, 0, e.Lookup(n%512), h)
			}
		})
		b.Run("plan", func(b *testing.B) {
			b.ReportAllocs()
			hn := NewVec(96)
			for n := 0; n < b.N; n++ {
				p.Step(n%512, h, hn, scratch)
			}
		})
	})
}

// BenchmarkPanels times one 80x80 matrix-vector product added into y,
// the decode plan's recurrent product, on both dispatches:
//
//	go test -run '^$' -bench BenchmarkPanels ./internal/neural/
func BenchmarkPanels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := NewMatRand(80, 80, rng)
	p := NewPanels(m)
	x, y := randVec(80, rng), NewVec(80)
	forEachDispatch(b, func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			p.MulAdd(x, y)
		}
	})
}
