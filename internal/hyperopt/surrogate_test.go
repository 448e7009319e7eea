package hyperopt

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// smoothObjective is a synthetic globally structured function (higher
// groupByP and randDropP are monotonically better): model-based search
// can exploit such structure, unlike the paper's real objective, where
// it found no advantage over random search.
func smoothObjective(p core.Params) (float64, bool) {
	g := p.Instantiation.GroupByP / 0.6 // normalized by the space bounds
	d := p.Augmentation.RandDropP / 0.8
	return 0.3*g + 0.3*d, true
}

func TestSurrogateSearchRuns(t *testing.T) {
	trials := SurrogateSearch(DefaultSpace(), 30, 5, 3, smoothObjective)
	if len(trials) != 30 {
		t.Fatalf("trials = %d", len(trials))
	}
	// Sorted converged-first by accuracy.
	for i := 1; i < len(trials); i++ {
		if trials[i-1].Converged && trials[i].Converged && trials[i].Accuracy > trials[i-1].Accuracy {
			t.Fatal("trials not sorted")
		}
	}
}

func TestSurrogateSearchFindsSmoothOptimum(t *testing.T) {
	// On a smooth objective the surrogate search should match or beat
	// random search with the same budget in most seeds.
	wins := 0
	const seeds = 7
	for s := int64(0); s < seeds; s++ {
		sur := SurrogateSearch(DefaultSpace(), 25, 6, s, smoothObjective)
		rnd := RandomSearch(DefaultSpace(), 25, s, smoothObjective)
		if sur[0].Accuracy >= rnd[0].Accuracy-1e-9 {
			wins++
		}
	}
	if wins < seeds/2 {
		t.Fatalf("surrogate won only %d/%d seeds on a smooth objective", wins, seeds)
	}
}

func TestSurrogateSearchHandlesFailures(t *testing.T) {
	obj := func(p core.Params) (float64, bool) {
		if p.Instantiation.SizeSlotFills > 8 {
			return 0, false
		}
		return 0.5, true
	}
	trials := SurrogateSearch(DefaultSpace(), 20, 4, 1, obj)
	conv := 0
	for _, tr := range trials {
		if tr.Converged {
			conv++
		}
	}
	if conv == 0 || conv == len(trials) {
		t.Fatalf("expected a mix of converged/failed trials, got %d/%d", conv, len(trials))
	}
}

func TestSurrogateSearchDeterminism(t *testing.T) {
	a := SurrogateSearch(DefaultSpace(), 15, 4, 9, smoothObjective)
	b := SurrogateSearch(DefaultSpace(), 15, 4, 9, smoothObjective)
	for i := range a {
		if a[i].Accuracy != b[i].Accuracy {
			t.Fatal("surrogate search not deterministic")
		}
	}
}

func TestNormalizeBounds(t *testing.T) {
	space := DefaultSpace()
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 20; k++ {
		x := normalize(space, space.Sample(rng))
		if len(x) != 10 {
			t.Fatalf("normalized dim = %d", len(x))
		}
		for i, v := range x {
			if v < 0 || v > 1 {
				t.Fatalf("sample %d: normalized[%d] = %v out of [0,1]", k, i, v)
			}
		}
	}
}

func TestRBFPredict(t *testing.T) {
	xs := [][]float64{{0, 0}, {1, 1}}
	ys := []float64{0.2, 0.8}
	mu, sigma := rbfPredict(xs, ys, []float64{0, 0})
	if math.Abs(mu-0.2) > 0.1 {
		t.Fatalf("mu near first point = %v", mu)
	}
	if sigma > 0.01 {
		t.Fatalf("sigma at an observed point = %v", sigma)
	}
	_, sigmaFar := rbfPredict(xs, ys, []float64{10, 10})
	if sigmaFar < 0.9 {
		t.Fatalf("sigma far away = %v", sigmaFar)
	}
}
