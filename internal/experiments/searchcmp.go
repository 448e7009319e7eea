package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/hyperopt"
	"repro/internal/models"
	"repro/internal/spider"
)

// SearchComparison holds the random-vs-model-based hyperparameter
// search comparison (the paper's §3.3 remark: Bayesian-style
// optimization "did not find to improve the accuracy over the random
// search strategy").
type SearchComparison struct {
	Scale         Scale
	Trials        int
	RandomBest    float64
	RandomMean    float64
	SurrogateBest float64
	SurrogateMean float64
	RandomConv    int
	SurrogateConv int
}

// RunSearchComparison runs both search strategies with the same trial
// budget against the real Generate(D, T, φ) objective (geo workload).
func RunSearchComparison(s Scale) *SearchComparison {
	d := spider.Build(s.Spider)
	base := spiderExamples(d.Train)
	geo := spider.GeoWorkload(280, s.Seed+4242)
	trainSchemas := spider.TrainSchemas()

	trialScale := s
	trialScale.Sketch.Epochs = max(2, s.Sketch.Epochs/2)
	trialScale.Seq2Seq.Epochs = max(2, s.Seq2Seq.Epochs/2)

	// Both strategies revisit instantiation settings (the surrogate
	// refines around promising candidates): a shared GenCache replays
	// those generations byte-identically instead of recomputing them.
	cache := core.NewGenCache(8)
	obj := func(p core.Params) (float64, bool) {
		var exs []models.Example
		exs = append(exs, base...)
		total := 0
		for i, sch := range trainSchemas {
			pipe := core.New(sch, p, s.Seed+int64(i)*31)
			pipe.Workers = 1
			pipe.Cache = cache
			pairs := pipe.Run()
			total += len(pairs)
			if total > s.HyperoptBudget {
				return 0, false
			}
			pairs = subsamplePairs(pairs, s.PipelinePerSchema, s.Seed+17)
			exs = append(exs, models.PairExamples(pairs, sch)...)
		}
		m := trialScale.newModel(s.Seed)
		m.Train(exs)
		rep, _ := eval.EvalSpider(context.Background(), m, geo, 0)
		return rep.Overall.Acc(), true
	}

	n := s.HyperoptTrials
	rnd := hyperopt.RandomSearch(hyperopt.DefaultSpace(), n, s.Seed+606, obj)
	sur := hyperopt.SurrogateSearch(hyperopt.DefaultSpace(), n, max(2, n/4), s.Seed+606, obj)

	out := &SearchComparison{Scale: s, Trials: n}
	out.RandomConv, _, out.RandomBest, out.RandomMean, _ = statsOf(rnd)
	out.SurrogateConv, _, out.SurrogateBest, out.SurrogateMean, _ = statsOf(sur)
	return out
}

func statsOf(trials []hyperopt.Trial) (n int, min, max, mean, std float64) {
	n, min, max, mean, std = hyperopt.Stats(trials)
	return
}

// Format renders the comparison.
func (r *SearchComparison) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Search-strategy comparison (%d trials each, %s model, geo workload)\n", r.Trials, r.Scale.ModelKind)
	fmt.Fprintf(&b, "%-12s %10s %10s %10s\n", "Strategy", "Best", "Mean", "Converged")
	fmt.Fprintf(&b, "%-12s %10.3f %10.3f %10d\n", "random", r.RandomBest, r.RandomMean, r.RandomConv)
	fmt.Fprintf(&b, "%-12s %10.3f %10.3f %10d\n", "surrogate", r.SurrogateBest, r.SurrogateMean, r.SurrogateConv)
	return b.String()
}
