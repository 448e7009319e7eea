package hyperopt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func TestSampleWithinBounds(t *testing.T) {
	space := DefaultSpace()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		p := space.Sample(rng)
		inst := p.Instantiation
		aug := p.Augmentation
		checks := []struct {
			name string
			v    float64
			lo   float64
			hi   float64
		}{
			{"sizeSlotFills", float64(inst.SizeSlotFills), float64(space.SizeSlotFills[0]), float64(space.SizeSlotFills[1])},
			{"sizeTables", float64(inst.SizeTables), float64(space.SizeTables[0]), float64(space.SizeTables[1])},
			{"groupByP", inst.GroupByP, space.GroupByP[0], space.GroupByP[1]},
			{"joinBoost", inst.JoinBoost, space.JoinBoost[0], space.JoinBoost[1]},
			{"aggBoost", inst.AggBoost, space.AggBoost[0], space.AggBoost[1]},
			{"nestBoost", inst.NestBoost, space.NestBoost[0], space.NestBoost[1]},
			{"sizePara", float64(aug.SizePara), float64(space.SizePara[0]), float64(space.SizePara[1])},
			{"numPara", float64(aug.NumPara), float64(space.NumPara[0]), float64(space.NumPara[1])},
			{"numMissing", float64(aug.NumMissing), float64(space.NumMissing[0]), float64(space.NumMissing[1])},
			{"randDropP", aug.RandDropP, space.RandDropP[0], space.RandDropP[1]},
		}
		for _, c := range checks {
			if c.v < c.lo || c.v > c.hi {
				t.Fatalf("%s = %v outside [%v, %v]", c.name, c.v, c.lo, c.hi)
			}
		}
	}
}

func TestRandomSearchSortsConvergedFirst(t *testing.T) {
	// Objective: accuracy = groupByP; fails when sizePara == 0.
	obj := func(p core.Params) (float64, bool) {
		if p.Augmentation.SizePara == 0 {
			return 0, false
		}
		return p.Instantiation.GroupByP, true
	}
	trials := RandomSearch(DefaultSpace(), 40, 3, obj)
	if len(trials) != 40 {
		t.Fatalf("trials = %d", len(trials))
	}
	seenFailed := false
	prev := math.Inf(1)
	for _, tr := range trials {
		if !tr.Converged {
			seenFailed = true
			continue
		}
		if seenFailed {
			t.Fatal("converged trial after a failed one: not sorted")
		}
		if tr.Accuracy > prev {
			t.Fatal("converged trials not sorted by accuracy desc")
		}
		prev = tr.Accuracy
	}
}

func TestRandomSearchDeterminism(t *testing.T) {
	obj := func(p core.Params) (float64, bool) { return p.Instantiation.GroupByP, true }
	a := RandomSearch(DefaultSpace(), 10, 7, obj)
	b := RandomSearch(DefaultSpace(), 10, 7, obj)
	for i := range a {
		if a[i].Accuracy != b[i].Accuracy {
			t.Fatal("random search not deterministic per seed")
		}
	}
}

func TestStats(t *testing.T) {
	trials := []Trial{
		{Accuracy: 0.4, Converged: true},
		{Accuracy: 0.6, Converged: true},
		{Accuracy: 0.99, Converged: false}, // ignored
	}
	n, min, max, mean, std := Stats(trials)
	if n != 2 || min != 0.4 || max != 0.6 {
		t.Fatalf("stats = %d %v %v", n, min, max)
	}
	if math.Abs(mean-0.5) > 1e-12 || math.Abs(std-0.1) > 1e-12 {
		t.Fatalf("mean/std = %v %v", mean, std)
	}
	if n, _, _, _, _ := Stats(nil); n != 0 {
		t.Fatal("empty stats")
	}
}

func TestHistogram(t *testing.T) {
	var trials []Trial
	for _, a := range []float64{0.1, 0.15, 0.2, 0.5, 0.9} {
		trials = append(trials, Trial{Accuracy: a, Converged: true})
	}
	bins := Histogram(trials, 4)
	if len(bins) != 4 {
		t.Fatalf("bins = %d", len(bins))
	}
	total := 0
	for _, b := range bins {
		total += b.Count
	}
	if total != 5 {
		t.Fatalf("histogram counts = %d", total)
	}
	if bins[len(bins)-1].Count != 1 { // 0.9 lands in the last bin
		t.Fatalf("last bin = %+v", bins[len(bins)-1])
	}
	out := FormatHistogram(bins)
	if out == "" {
		t.Fatal("empty histogram rendering")
	}
}

// Property: histogram bin edges tile [min, max] without gaps.
func TestHistogramTilesQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var trials []Trial
		for i := 0; i < 20; i++ {
			trials = append(trials, Trial{Accuracy: rng.Float64(), Converged: true})
		}
		bins := Histogram(trials, 5)
		for i := 1; i < len(bins); i++ {
			if math.Abs(bins[i].Lo-bins[i-1].Hi) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
