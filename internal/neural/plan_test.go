package neural

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestGRUPlanMatchesStepBatch: a plan step is StepBatch on the token's
// embedding, bit for bit, over chained steps, with out-of-range ids
// clamped as Lookup clamps them and the new state written over the
// old, on both dispatches. The GRU's 10 hidden units leave a row past
// the last whole panel, so Panels' scalar rows run too.
func TestGRUPlanMatchesStepBatch(t *testing.T) {
	forEachDispatch(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(17))
		ps := &ParamSet{}
		e := NewEmbedding(ps, "e", 12, 6, rng)
		g := NewGRU(ps, "g", 6, 10, rng)
		for _, m := range []*Mat{g.Bz, g.Br, g.Bh} {
			for i := range m.W {
				m.W[i] = rng.NormFloat64()
			}
		}
		p := NewGRUPlan(g, e)
		arena := NewArena()
		h, want := NewVec(10), NewBatch(1, 10)
		scratch := NewVec(p.ScratchLen())
		for step, id := range []int{3, 0, 11, -1, 12, 7, 7, 40, 2} {
			hn := g.StepBatch(e.LookupBatch([]int{id}, arena), want, arena)
			copy(want.W, hn.W)
			arena.Reset()
			p.Step(id, h, h, scratch)
			requireRowsEqual(t, fmt.Sprintf("step %d (id %d)", step, id), want, 0, h)
		}
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
	x, y := randBatch(1, 80, rng).W, NewVec(80)
	forEachDispatch(b, func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			p.MulAdd(x, y)
		}
	})
}
