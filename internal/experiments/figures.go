package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/critic"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/hyperopt"
	"repro/internal/models"
	"repro/internal/par"
	"repro/internal/patients"
	"repro/internal/pipeline"
	"repro/internal/runtime"
	"repro/internal/spider"
	"repro/internal/sqlast"
)

// Figure3Result holds the seed-template-fraction experiment.
type Figure3Result struct {
	Scale      Scale
	Fractions  []float64
	Accuracy   []float64 // absolute Patients overall accuracy
	Normalized []float64 // relative to the 100% run
}

// Figure3Fractions are the paper's x-axis points.
var Figure3Fractions = []float64{0, 0.10, 0.50, 1.00}

// RunFigure3 trains one model per template fraction: the Spider
// training data plus Patients-schema synthetic data instantiated from
// a random subset of the seed templates (selected before
// instantiation, §6.3.2), evaluated on the Patients benchmark.
func RunFigure3(s Scale) *Figure3Result {
	d := spider.Build(s.Spider)
	base := spiderExamples(d.Train)
	db, err := patients.Database()
	if err != nil {
		panic(err)
	}
	cases := patients.Cases()

	res := &Figure3Result{Scale: s, Fractions: Figure3Fractions}
	res.Accuracy = make([]float64, len(Figure3Fractions))
	par.Map(s.Workers, len(Figure3Fractions), func(i int) {
		frac := Figure3Fractions[i]
		exs := base
		if frac > 0 {
			p := core.New(patients.Schema(), s.Pipeline, s.Seed+777)
			p.Templates = core.TemplateFraction(frac, s.Seed+99)
			p.Workers = s.Workers
			pairs := subsamplePairs(p.Run(), 2*s.PipelinePerSchema, s.Seed+17)
			exs = balance(base, models.PairExamples(pairs, patients.Schema()))
		}
		m := s.newModel(s.Seed)
		m.Train(exs)
		rep, _ := eval.EvalPatients(context.Background(), runtime.NewTranslator(db, m), cases, s.Workers)
		res.Accuracy[i] = rep.Overall.Acc()
	})
	full := res.Accuracy[len(res.Accuracy)-1]
	for _, a := range res.Accuracy {
		if full > 0 {
			res.Normalized = append(res.Normalized, a/full)
		} else {
			res.Normalized = append(res.Normalized, 0)
		}
	}
	return res
}

// Format renders the Figure-3 series.
func (r *Figure3Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: Normalized Accuracy for Fractions of Seed Templates (%s model, Patients)\n", r.Scale.ModelKind)
	fmt.Fprintf(&b, "%-12s %10s %12s\n", "% Templates", "Accuracy", "Normalized")
	for i, f := range r.Fractions {
		fmt.Fprintf(&b, "%-12.0f %10.3f %12.3f\n", f*100, r.Accuracy[i], r.Normalized[i])
	}
	return b.String()
}

// Figure4Result holds the hyperparameter-search experiment.
type Figure4Result struct {
	Scale  Scale
	Trials []hyperopt.Trial
	Bins   []hyperopt.HistogramBin
	Best   core.Params
}

// RunFigure4 reproduces the paper's §6.3.3 experiment: random search
// over the Table-1 parameter space, where each trial runs the full
// Generate(D, T, φ) pipeline — synthetic data generation for the
// training schemas, model training on Spider + synthetic data, and
// evaluation on the held-out geo workload (the GeoQuery stand-in).
// Trials whose generated corpus exceeds the size budget are reported
// as not converged, the analog of the paper's 6-hour training limit
// (59 of 68 trials converged there).
func RunFigure4(s Scale) *Figure4Result {
	d := spider.Build(s.Spider)
	base := spiderExamples(d.Train)
	geo := spider.GeoWorkload(280, s.Seed+4242)

	trainSchemas := spider.TrainSchemas()
	// Per-trial training runs at half the usual epoch budget — the
	// analog of the paper's fixed 6-hour per-trial training limit.
	trialScale := s
	trialScale.Sketch.Epochs = max(2, s.Sketch.Epochs/3)
	trialScale.Seq2Seq.Epochs = max(2, s.Seq2Seq.Epochs/3)
	trialCap := s.HyperoptTrialCap
	if trialCap <= 0 {
		trialCap = s.PipelinePerSchema
	}
	// Trials run concurrently (they are the black-box Acc =
	// Generate(D, T, φ) calls the paper's optimizer repeats); each
	// receives a derived seed that depends only on its index, so the
	// histogram is identical at any worker count. A cache shared across
	// trials memoizes the generate stage: candidates that agree on the
	// instantiation parameters (and they all agree on schema and seed)
	// replay the recorded corpus instead of re-instantiating templates —
	// replay is byte-identical, so the histogram is unchanged.
	cache := core.NewGenCache(8)
	obj := func(p core.Params, trialSeed int64) (float64, bool) {
		var exs []models.Example
		exs = append(exs, base...)
		total := 0
		for i, sch := range trainSchemas {
			pipe := core.New(sch, p, s.Seed+int64(i)*31)
			pipe.Workers = 1 // trials, not stages, are the parallel unit here
			pipe.Cache = cache
			pairs := pipe.Run()
			total += len(pairs)
			if total > s.HyperoptBudget {
				return 0, false // over budget: "did not converge"
			}
			pairs = subsamplePairs(pairs, trialCap, s.Seed+17)
			exs = append(exs, models.PairExamples(pairs, sch)...)
		}
		m := trialScale.newModel(trialSeed)
		m.Train(exs)
		rep, _ := eval.EvalSpider(context.Background(), m, geo, s.Workers)
		return rep.Overall.Acc(), true
	}

	trials := hyperopt.RandomSearchWorkers(hyperopt.DefaultSpace(), s.HyperoptTrials, s.Seed+606, s.Workers, obj)
	res := &Figure4Result{Scale: s, Trials: trials, Bins: hyperopt.Histogram(trials, 10)}
	for _, t := range trials {
		if t.Converged {
			res.Best = t.Params
			break
		}
	}
	return res
}

// Format renders the Figure-4 histogram and summary statistics.
func (r *Figure4Result) Format() string {
	n, min, max, mean, std := hyperopt.Stats(r.Trials)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: Histogram of Test Accuracy for Enumerated Parameter Configurations (%s model, geo workload)\n", r.Scale.ModelKind)
	fmt.Fprintf(&b, "trials=%d converged=%d min=%.3f max=%.3f mean=%.3f std=%.3f\n",
		len(r.Trials), n, min, max, mean, std)
	b.WriteString(hyperopt.FormatHistogram(r.Bins))
	return b.String()
}

// AblationResult holds the design-choice ablations on the Patients
// benchmark (one trained model per variant).
type AblationResult struct {
	Scale    Scale
	Names    []string
	Accuracy []float64
}

// RunAblations evaluates the pipeline design choices DESIGN.md calls
// out, each as a one-change variant of the DBPal (Full) Patients
// configuration.
func RunAblations(s Scale) *AblationResult {
	d := spider.Build(s.Spider)
	base := spiderExamples(d.Train)
	db, err := patients.Database()
	if err != nil {
		panic(err)
	}
	cases := patients.Cases()

	// Parameter ablations tweak Table-1 knobs; structural ablations are
	// stage-list edits — "no-augmentation" drops the augment stage
	// entirely (including domain-aware comparatives, which zeroed knobs
	// could never switch off) and "no-lemmatize" drops the lemma stage.
	variants := []struct {
		name   string
		params core.Params
		stages stageEdit
	}{
		{"defaults", s.Pipeline, nil},
		{"no-augmentation", s.Pipeline, func(p *core.Pipeline) []pipeline.Stage {
			return []pipeline.Stage{p.GenerateStage(), core.LemmaStage(), core.DedupStage()}
		}},
		{"no-paraphrase", func() core.Params {
			p := s.Pipeline
			p.Augmentation.SizePara = 0
			p.Augmentation.NumPara = 0
			return p
		}(), nil},
		{"no-dropout", func() core.Params {
			p := s.Pipeline
			p.Augmentation.NumMissing = 0
			p.Augmentation.RandDropP = 0
			return p
		}(), nil},
		{"no-lemmatize", s.Pipeline, func(p *core.Pipeline) []pipeline.Stage {
			return []pipeline.Stage{p.GenerateStage(), p.AugmentStage(), core.DedupStage()}
		}},
		{"biased-agg", func() core.Params {
			p := s.Pipeline
			p.Instantiation.AggBoost = 6
			return p
		}(), nil},
		{"pos-guided-dropout", func() core.Params {
			p := s.Pipeline
			p.Augmentation.PosGuidedDrop = true
			return p
		}(), nil},
	}

	// All variants instantiate the Patients schema at the same seed, and
	// every one except biased-agg shares the default instantiation
	// parameters — a GenCache shared across the loop replays that single
	// generation for all of them (and for the critic+beam and
	// literal-constants runs below) instead of re-instantiating.
	cache := core.NewGenCache(4)
	res := &AblationResult{Scale: s}
	for _, v := range variants {
		pairs := pipelinePairs(patients.Schema(), v.params, s.Seed+777, s.Workers, cache, v.stages)
		pairs = subsamplePairs(pairs, 2*s.PipelinePerSchema, s.Seed+777+17)
		m := s.newModel(s.Seed)
		m.Train(balance(base, models.PairExamples(pairs, patients.Schema())))
		rep, _ := eval.EvalPatients(context.Background(), runtime.NewTranslator(db, m), cases, 0)
		res.Names = append(res.Names, v.name)
		res.Accuracy = append(res.Accuracy, rep.Overall.Acc())
	}

	// Critic over a beam (a runtime-side ablation: same model as
	// "defaults", 3 ranked candidates per question reranked
	// validity-first by a default-budget critic).
	exs, _ := pipelineData(patients.Schema(), s.Pipeline, 2*s.PipelinePerSchema, s.Seed+777, s.Workers, cache)
	m := s.newModel(s.Seed)
	m.Train(balance(base, exs))
	rt := runtime.NewTranslator(db, m)
	rt.Beam = 3
	rt.Critic = critic.New(db, critic.Config{Seed: s.Seed})
	rep, _ := eval.EvalPatients(context.Background(), rt, cases, 0)
	res.Names = append(res.Names, "critic+beam(3)")
	res.Accuracy = append(res.Accuracy, rep.Overall.Acc())

	// Literal constants instead of anonymization (DESIGN.md ablation 2,
	// paper §4.1): the training pairs carry concrete values, so at
	// runtime — where the Parameter Handler anonymizes the question —
	// the model faces placeholder tokens it never trained on.
	litPairs := literalizePairs(subsamplePairs(pipelinePairs(patients.Schema(), s.Pipeline, s.Seed+777, s.Workers, cache, nil), 2*s.PipelinePerSchema, s.Seed+17), db, s.Seed+5)
	mLit := s.newModel(s.Seed)
	mLit.Train(balance(base, models.PairExamples(litPairs, patients.Schema())))
	repLit, _ := eval.EvalPatients(context.Background(), runtime.NewTranslator(db, mLit), cases, 0)
	res.Names = append(res.Names, "literal-constants")
	res.Accuracy = append(res.Accuracy, repLit.Overall.Acc())
	return res
}

// literalizePairs replaces every anonymized-constant token with a
// concrete value drawn from the database, on both the NL and SQL sides
// — the "no anonymization" training regime of the paper's §4.1
// discussion.
func literalizePairs(pairs []core.Pair, db *engine.Database, seed int64) []core.Pair {
	rng := rand.New(rand.NewSource(seed))
	out := make([]core.Pair, 0, len(pairs))
	for _, p := range pairs {
		nl := strings.Fields(p.NL)
		lit := map[string]string{} // placeholder -> rendered literal (consistent per pair)
		changed := false
		for i, tok := range nl {
			if !strings.HasPrefix(tok, "@") || strings.EqualFold(tok, "@JOIN") {
				continue
			}
			v, ok := literalFor(tok, db, rng, lit)
			if !ok {
				continue
			}
			nl[i] = v.nl
			changed = true
		}
		sqlText := p.SQL
		for ph, _ := range lit {
			_ = ph
		}
		for ph, v := range litSQL(lit) {
			sqlText = strings.ReplaceAll(sqlText, ph, v)
		}
		if !changed {
			out = append(out, p)
			continue
		}
		if _, err := sqlast.Parse(sqlText); err != nil {
			continue // defensive: skip unparsable literalizations
		}
		out = append(out, core.Pair{NL: strings.Join(nl, " "), SQL: sqlText, TemplateID: p.TemplateID, Class: p.Class, Stage: p.Stage, Origin: p.Origin})
	}
	return out
}

type literalValue struct {
	nl  string
	sql string
}

var litCacheSep = "\x1f"

// literalFor draws (once per pair) a concrete value for a placeholder.
func literalFor(tok string, db *engine.Database, rng *rand.Rand, lit map[string]string) (literalValue, bool) {
	if v, ok := lit[tok]; ok {
		parts := strings.SplitN(v, litCacheSep, 2)
		return literalValue{nl: parts[0], sql: parts[1]}, true
	}
	name := strings.TrimPrefix(tok, "@")
	parts := strings.SplitN(name, ".", 2)
	if len(parts) != 2 {
		return literalValue{}, false
	}
	vals := db.DistinctValues(parts[0], parts[1])
	if len(vals) == 0 {
		return literalValue{}, false
	}
	v := vals[rng.Intn(len(vals))]
	var lv literalValue
	if v.IsNum {
		lv = literalValue{nl: v.String(), sql: v.String()}
	} else {
		lv = literalValue{nl: v.Str, sql: "'" + strings.ReplaceAll(v.Str, "'", "''") + "'"}
	}
	lit[tok] = lv.nl + litCacheSep + lv.sql
	return lv, true
}

// litSQL converts the per-pair literal cache into SQL-side
// replacements.
func litSQL(lit map[string]string) map[string]string {
	out := map[string]string{}
	for ph, v := range lit {
		parts := strings.SplitN(v, litCacheSep, 2)
		out[ph] = parts[1]
	}
	return out
}

// Format renders the ablation table.
func (r *AblationResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablations: Patients overall accuracy by pipeline variant (%s model)\n", r.Scale.ModelKind)
	for i, n := range r.Names {
		fmt.Fprintf(&b, "%-18s %8.3f\n", n, r.Accuracy[i])
	}
	return b.String()
}
