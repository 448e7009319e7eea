package neural

import (
	"fmt"
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

// randBatch stacks k rng-filled rows.
func randBatch(k, n int, rng *rand.Rand) *Batch {
	b := NewBatch(k, n)
	for i := range b.W {
		b.W[i] = rng.NormFloat64()
	}
	return b
}

// requireRowsEqual asserts that batch row b is bit-identical to want.
func requireRowsEqual(t *testing.T, what string, got *Batch, b int, want []float64) {
	t.Helper()
	row := got.Row(b)
	for i := range want {
		if row[i] != want[i] {
			t.Fatalf("%s: row %d differs at %d: batched %v, sequential %v", what, b, i, row[i], want[i])
		}
	}
}

// TestMulBatchMatchesMulVec: every row of a batched multiply must be
// bit-identical to MulVec on that row alone, at k=1 and k=n.
func TestMulBatchMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMatRand(13, 9, rng)
	for _, k := range []int{1, 2, 8, 17} {
		x := randBatch(k, 9, rng)
		y := NewBatch(k, 13)
		m.MulBatch(x, y)
		for b := 0; b < k; b++ {
			want := NewVec(13)
			m.MulVec(x.Row(b), want)
			requireRowsEqual(t, fmt.Sprintf("MulBatch k=%d", k), y, b, want)
		}

		// The accumulate form against MulVecAdd over the same initial y.
		y2 := randBatch(k, 13, rng)
		want2 := make([][]float64, k)
		for b := 0; b < k; b++ {
			want2[b] = append([]float64(nil), y2.Row(b)...)
			m.MulVecAdd(x.Row(b), want2[b])
		}
		m.MulBatchAdd(x, y2)
		for b := 0; b < k; b++ {
			requireRowsEqual(t, fmt.Sprintf("MulBatchAdd k=%d", k), y2, b, want2[b])
		}
	}
}

// TestGRUStepBatchMatchesForward: batched GRU steps are bit-identical
// per row to the sequential Forward, including after chained steps.
func TestGRUStepBatchMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ps := &ParamSet{}
	g := NewGRU(ps, "g", 6, 10, rng)
	arena := NewArena()
	for _, k := range []int{1, 3, 8} {
		x := randBatch(k, 6, rng)
		h := randBatch(k, 10, rng)
		// Two chained steps through the arena (with a Reset between, as
		// the decode loop does) to prove recycled buffers stay correct.
		seqH := make([][]float64, k)
		for b := 0; b < k; b++ {
			h1, _ := g.Forward(x.Row(b), h.Row(b))
			h2, _ := g.Forward(x.Row(b), h1)
			seqH[b] = h2
		}
		hn := g.StepBatch(x, h, arena)
		// Persist hn before Reset: the next step's input must survive
		// recycling, exactly as the decoders copy states out.
		carry := NewBatch(k, 10)
		copy(carry.W, hn.W)
		arena.Reset()
		hn2 := g.StepBatch(x, carry, arena)
		for b := 0; b < k; b++ {
			requireRowsEqual(t, fmt.Sprintf("StepBatch k=%d", k), hn2, b, seqH[b])
		}
		arena.Reset()
	}
}

// TestLinearEmbeddingSoftmaxBatch covers the remaining batched
// modules: Linear.ForwardBatch, Embedding.LookupBatch, SoftmaxRows.
func TestLinearEmbeddingSoftmaxBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ps := &ParamSet{}
	l := NewLinear(ps, "l", 7, 12, rng)
	e := NewEmbedding(ps, "e", 20, 7, rng)
	arena := NewArena()

	ids := []int{0, 5, 19, -2, 25, 5} // includes clamped out-of-range ids
	xb := e.LookupBatch(ids, arena)
	for b, id := range ids {
		requireRowsEqual(t, "LookupBatch", xb, b, e.Lookup(id))
	}

	yb := l.ForwardBatch(xb, arena)
	for b := range ids {
		requireRowsEqual(t, "Linear.ForwardBatch", yb, b, l.Forward(xb.Row(b)))
	}

	sm := arena.Batch(yb.K, yb.N)
	SoftmaxRows(yb, sm)
	for b := range ids {
		want := Softmax(append([]float64(nil), yb.Row(b)...), NewVec(yb.N))
		requireRowsEqual(t, "SoftmaxRows", sm, b, want)
	}
}

// TestArenaSteadyStateAllocs: after the first step warms the arena, a
// repeated decode-step-shaped workload must allocate nothing.
func TestArenaSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ps := &ParamSet{}
	g := NewGRU(ps, "g", 8, 16, rng)
	l := NewLinear(ps, "l", 16, 32, rng)
	arena := NewArena()
	x := randBatch(8, 8, rng)
	h := randBatch(8, 16, rng)
	step := func() {
		hn := g.StepBatch(x, h, arena)
		logits := l.ForwardBatch(hn, arena)
		SoftmaxRows(logits, arena.Batch(logits.K, logits.N))
		arena.Reset()
	}
	step() // warm the arena
	if allocs := testing.AllocsPerRun(50, step); allocs > 0 {
		t.Fatalf("steady-state batched step allocates %.1f times per run, want 0", allocs)
	}
}

// ---------------------------------------------------------------------
// Micro-benchmarks: the per-example matvec inference path against the
// batched GEMM path, at the decode-step granularity the serving layer
// batches. ns/op and allocs/op are per batch (k examples); divide by k
// for per-example cost. The CI gate (internal/serve) holds the
// batched:sequential allocs and ns ratios to the checked-in baseline.
// ---------------------------------------------------------------------

// benchModules builds a decode-step-sized GRU + output projection
// (hidden 96, vocab 512 — the Seq2Seq defaults' shape class).
func benchModules(rng *rand.Rand) (*GRU, *Linear) {
	ps := &ParamSet{}
	g := NewGRU(ps, "g", 48, 96, rng)
	l := NewLinear(ps, "l", 96, 512, rng)
	return g, l
}

// BenchmarkDecodeStepMatVec is the sequential baseline: k independent
// per-example forward steps (GRU + vocab projection + softmax), the
// shape of today's one-request-at-a-time decode.
func BenchmarkDecodeStepMatVec(b *testing.B) {
	for _, k := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			g, l := benchModules(rng)
			xs := make([][]float64, k)
			hs := make([][]float64, k)
			for i := range xs {
				xs[i] = randVec(48, rng)
				hs[i] = randVec(96, rng)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for i := 0; i < k; i++ {
					hn, _ := g.Forward(xs[i], hs[i])
					logits := l.Forward(hn)
					Softmax(logits, NewVec(len(logits)))
				}
			}
		})
	}
}

// BenchmarkDecodeStepGEMM is the batched path: the same k examples
// advanced by one arena-backed batched step.
func BenchmarkDecodeStepGEMM(b *testing.B) {
	for _, k := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			g, l := benchModules(rng)
			x := randBatch(k, 48, rng)
			h := randBatch(k, 96, rng)
			arena := NewArena()
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				hn := g.StepBatch(x, h, arena)
				logits := l.ForwardBatch(hn, arena)
				SoftmaxRows(logits, arena.Batch(logits.K, logits.N))
				arena.Reset()
			}
		})
	}
}
