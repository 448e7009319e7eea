// Package hyperopt implements the paper's optimization procedure
// (§3.3): automatic tuning of the data-generation hyperparameters
// (Table 1) by random search over the black-box function
//
//	Acc = Generate(D, T, φ)
//
// where D is the schema (plus sample data), T a test workload of
// NL–SQL pairs, and φ a candidate parameter set. Each trial runs the
// entire pipeline — data generation and model training — and returns
// the trained model's accuracy on T. Random search samples φ uniformly
// from the parameter space; SurrogateSearch refines it with an RBF
// surrogate.
//
// Trials compose their pipelines from the streaming stage API
// (internal/pipeline via core): an objective builds one core.Pipeline
// per (schema, φ) and can share a core.GenCache across trials so that
// candidates with identical instantiation parameters — ablation
// variants, surrogate refinements that vary only augmentation knobs —
// replay the memoized generate stage
// instead of re-instantiating templates. Cached replay is
// byte-identical to live generation, so memoization never changes a
// trial's corpus or accuracy.
package hyperopt

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/augment"
	"repro/internal/core"
	"repro/internal/generator"
	"repro/internal/par"
)

// Space bounds the random search. Ranges are inclusive.
type Space struct {
	SizeSlotFills [2]int
	SizeTables    [2]int
	GroupByP      [2]float64
	JoinBoost     [2]float64
	AggBoost      [2]float64
	NestBoost     [2]float64
	SizePara      [2]int
	NumPara       [2]int
	NumMissing    [2]int
	RandDropP     [2]float64
}

// DefaultSpace covers the plausible operating range of every Table-1
// parameter.
func DefaultSpace() Space {
	return Space{
		SizeSlotFills: [2]int{2, 16},
		SizeTables:    [2]int{2, 4},
		GroupByP:      [2]float64{0, 0.6},
		JoinBoost:     [2]float64{0.25, 2},
		AggBoost:      [2]float64{0.25, 2},
		NestBoost:     [2]float64{0.25, 2},
		SizePara:      [2]int{0, 3},
		NumPara:       [2]int{0, 6},
		NumMissing:    [2]int{0, 4},
		RandDropP:     [2]float64{0, 0.8},
	}
}

// Sample draws one uniformly random parameter set.
func (s Space) Sample(rng *rand.Rand) core.Params {
	ri := func(b [2]int) int { return b[0] + rng.Intn(b[1]-b[0]+1) }
	rf := func(b [2]float64) float64 { return b[0] + rng.Float64()*(b[1]-b[0]) }
	return core.Params{
		Instantiation: generator.Params{
			SizeSlotFills: ri(s.SizeSlotFills),
			SizeTables:    ri(s.SizeTables),
			GroupByP:      rf(s.GroupByP),
			JoinBoost:     rf(s.JoinBoost),
			AggBoost:      rf(s.AggBoost),
			NestBoost:     rf(s.NestBoost),
		},
		Augmentation: augment.Params{
			SizePara:   ri(s.SizePara),
			NumPara:    ri(s.NumPara),
			NumMissing: ri(s.NumMissing),
			RandDropP:  rf(s.RandDropP),
		},
	}
}

// Trial is one evaluated parameter set.
type Trial struct {
	Params    core.Params
	Accuracy  float64
	Converged bool // false when the trial was aborted (budget/failure)
}

// Objective evaluates one parameter set: the full Generate(D,T,φ)
// pipeline including model training. Implementations report ok=false
// when the trial did not converge within its budget. Random-search
// objectives are called concurrently and must be safe for concurrent
// use (the repository's objectives are: each trial builds its own
// pipeline, corpus, and model from the candidate parameters).
type Objective func(p core.Params) (acc float64, ok bool)

// SeededObjective is an Objective that additionally receives the
// trial's derived seed (par.SplitSeed of the search seed and the trial
// index), so per-trial randomness is reproducible independent of
// worker count and scheduling order.
type SeededObjective func(p core.Params, trialSeed int64) (acc float64, ok bool)

// RandomSearch evaluates n uniformly sampled parameter sets and
// returns all trials, best first among converged ones. Candidates are
// evaluated concurrently on the default worker pool; the result is
// identical for every worker count.
func RandomSearch(space Space, n int, seed int64, obj Objective) []Trial {
	return RandomSearchWorkers(space, n, seed, 0, func(p core.Params, _ int64) (float64, bool) {
		return obj(p)
	})
}

// RandomSearchWorkers is the fully-knobbed random search: candidates
// are sampled sequentially from the seed's stream (so the candidate
// set matches the sequential implementation bit-for-bit), then
// evaluated concurrently on a pool of at most workers goroutines
// (0 = runtime.NumCPU), each trial receiving its own derived seed.
// Trial results land in per-candidate slots, so the returned ranking
// does not depend on the worker count.
func RandomSearchWorkers(space Space, n int, seed int64, workers int, obj SeededObjective) []Trial {
	rng := rand.New(rand.NewSource(seed))
	params := make([]core.Params, n)
	for i := range params {
		params[i] = space.Sample(rng)
	}
	trials := make([]Trial, n)
	par.Map(workers, n, func(i int) {
		acc, ok := obj(params[i], par.SplitSeed(seed, i))
		trials[i] = Trial{Params: params[i], Accuracy: acc, Converged: ok}
	})
	sort.SliceStable(trials, func(i, j int) bool {
		if trials[i].Converged != trials[j].Converged {
			return trials[i].Converged
		}
		return trials[i].Accuracy > trials[j].Accuracy
	})
	return trials
}

// Stats summarizes converged trial accuracies: count, min, max, mean,
// standard deviation.
func Stats(trials []Trial) (n int, min, max, mean, std float64) {
	min = math.Inf(1)
	max = math.Inf(-1)
	sum := 0.0
	for _, t := range trials {
		if !t.Converged {
			continue
		}
		n++
		sum += t.Accuracy
		if t.Accuracy < min {
			min = t.Accuracy
		}
		if t.Accuracy > max {
			max = t.Accuracy
		}
	}
	if n == 0 {
		return 0, 0, 0, 0, 0
	}
	mean = sum / float64(n)
	varsum := 0.0
	for _, t := range trials {
		if t.Converged {
			d := t.Accuracy - mean
			varsum += d * d
		}
	}
	std = math.Sqrt(varsum / float64(n))
	return n, min, max, mean, std
}

// Histogram bins converged accuracies into nbins equal-width buckets
// over [min, max] (the paper's Figure 4 rendering).
type HistogramBin struct {
	Lo, Hi float64
	Count  int
}

// Histogram builds the accuracy histogram.
func Histogram(trials []Trial, nbins int) []HistogramBin {
	n, min, max, _, _ := Stats(trials)
	if n == 0 || nbins <= 0 {
		return nil
	}
	if max == min {
		max = min + 1e-9
	}
	width := (max - min) / float64(nbins)
	bins := make([]HistogramBin, nbins)
	for i := range bins {
		bins[i] = HistogramBin{Lo: min + float64(i)*width, Hi: min + float64(i+1)*width}
	}
	for _, t := range trials {
		if !t.Converged {
			continue
		}
		idx := int((t.Accuracy - min) / width)
		if idx >= nbins {
			idx = nbins - 1
		}
		bins[idx].Count++
	}
	return bins
}

// FormatHistogram renders the histogram as a text chart.
func FormatHistogram(bins []HistogramBin) string {
	out := ""
	for _, b := range bins {
		bar := ""
		for i := 0; i < b.Count; i++ {
			bar += "█"
		}
		out += fmt.Sprintf("%.3f-%.3f | %-s (%d)\n", b.Lo, b.Hi, bar, b.Count)
	}
	return out
}
