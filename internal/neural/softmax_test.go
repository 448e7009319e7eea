package neural

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// naiveSoftmax is the pre-optimization reference implementation.
func naiveSoftmax(src, dst []float64) []float64 {
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
	inv := 1.0 / sum
	for i := range dst {
		dst[i] *= inv
	}
	return dst
}

func TestSoftmaxMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 3, 17, 256} {
		src := make([]float64, n)
		for i := range src {
			src[i] = rng.NormFloat64() * 10
		}
		got := Softmax(src, NewVec(n))
		want := naiveSoftmax(src, NewVec(n))
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: Softmax[%d] = %v, want %v (must stay bit-identical)", n, i, got[i], want[i])
			}
		}
	}
	// Degenerate single-element input is exactly 1.
	if out := Softmax([]float64{-1e300}, NewVec(1)); out[0] != 1 {
		t.Fatalf("softmax of singleton = %v", out[0])
	}
}

// BenchmarkSoftmax covers the two hot shapes: attention scores over a
// short input and vocabulary logits over a few thousand entries.
func BenchmarkSoftmax(b *testing.B) {
	for _, n := range []int{32, 4096} {
		src := make([]float64, n)
		rng := rand.New(rand.NewSource(5))
		for i := range src {
			src[i] = rng.NormFloat64() * 4
		}
		dst := NewVec(n)
		b.Run("n"+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Softmax(src, dst)
			}
		})
	}
}
