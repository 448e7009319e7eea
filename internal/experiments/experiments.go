// Package experiments contains the drivers that regenerate every table
// and figure of the paper's evaluation (§6): Table 2 (Spider by
// difficulty), Table 3 (Patients by linguistic category), Table 4
// (pattern-coverage breakdown), Figure 3 (seed-template fractions),
// and Figure 4 (hyperparameter random-search histogram), plus the
// ablation benches DESIGN.md calls out. cmd/dbpal-bench and the
// repository's bench_test.go are thin wrappers over this package.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/lemma"
	"repro/internal/models"
	"repro/internal/par"
	"repro/internal/patients"
	"repro/internal/pipeline"
	"repro/internal/runtime"
	"repro/internal/schema"
	"repro/internal/spider"
	"repro/internal/sqlast"
	"repro/internal/tokens"
)

// Config names the three training-data configurations of the paper's
// evaluation.
type Config int

// The evaluation configurations: the baseline model trained on Spider
// data only, DBPal (Train) adding synthetic data for the training
// schemas, and DBPal (Full) adding synthetic data for the test schemas
// as well (never their NL–SQL pairs, only their schemas — §6.1.2).
const (
	Baseline Config = iota
	DBPalTrain
	DBPalFull
)

// String names the configuration as the paper's tables do.
func (c Config) String() string {
	switch c {
	case Baseline:
		return "SyntaxSQLNet"
	case DBPalTrain:
		return "DBPal (Train)"
	case DBPalFull:
		return "DBPal (Full)"
	default:
		return fmt.Sprintf("Config(%d)", int(c))
	}
}

// Configs lists the three configurations in reporting order.
var Configs = []Config{Baseline, DBPalTrain, DBPalFull}

// Scale sizes an experiment run. Everything is deterministic given
// Seed.
type Scale struct {
	Spider            spider.Config
	Pipeline          core.Params
	PipelinePerSchema int    // cap on synthetic pairs kept per schema
	ModelKind         string // "sketch" (SyntaxSQLNet stand-in) or "seq2seq"
	Sketch            models.SketchConfig
	Seq2Seq           models.Seq2SeqConfig
	HyperoptTrials    int
	// HyperoptBudget is the per-trial corpus-size budget standing in
	// for the paper's 6-hour training time limit: trials whose
	// generated corpus exceeds it are reported as not converged.
	HyperoptBudget int
	// HyperoptTrialCap bounds the synthetic pairs kept per schema per
	// hyperopt trial (each trial trains a full model, so trials run on
	// a reduced corpus — the time-boxed regime of the paper's §6.3.3).
	HyperoptTrialCap int
	// Workers bounds every worker pool (config training fan-out,
	// evaluation, hyperopt trials, minibatch backprop); 0 =
	// runtime.NumCPU, 1 = fully sequential. Results are identical for
	// every value — the knob trades wall-clock for cores only.
	Workers int
	Seed    int64
}

// DefaultScale is the full-size run used for EXPERIMENTS.md.
func DefaultScale() Scale {
	p := core.DefaultParams()
	p.Instantiation.SizeSlotFills = 6
	sk := models.DefaultSketchConfig()
	sk.SampleCap = 0 // every example each epoch: synthetic data supplements, never displaces
	s2 := models.DefaultSeq2SeqConfig()
	s2.SampleCap = 0
	return Scale{
		Spider:            spider.DefaultConfig(),
		Pipeline:          p,
		PipelinePerSchema: 600,
		ModelKind:         "sketch",
		Sketch:            sk,
		Seq2Seq:           s2,
		HyperoptTrials:    68,
		HyperoptBudget:    150000,
		HyperoptTrialCap:  150,
		Seed:              7,
	}
}

// QuickScale is a reduced run for -short tests and smoke benches.
func QuickScale() Scale {
	s := DefaultScale()
	s.Spider.TrainPerSchema = 60
	s.Spider.TestPerSchema = 25
	s.PipelinePerSchema = 200
	s.Sketch.Epochs = 3
	s.Seq2Seq.Epochs = 2
	s.Seq2Seq.SampleCap = 2000
	s.HyperoptTrials = 10
	s.HyperoptBudget = 120000
	s.HyperoptTrialCap = 100
	return s
}

// newModel builds a fresh translator per the scale, threading the
// scale's worker bound into the model's minibatch backprop pool.
func (s Scale) newModel(seed int64) models.Translator {
	switch s.ModelKind {
	case "seq2seq":
		cfg := s.Seq2Seq
		cfg.Seed = seed
		cfg.Workers = s.Workers
		return models.NewSeq2Seq(cfg)
	default:
		cfg := s.Sketch
		cfg.Seed = seed
		cfg.Workers = s.Workers
		return models.NewSketch(cfg)
	}
}

// spiderExamples converts benchmark questions into training examples
// (lemmatized NL, normalized SQL tokens, per-schema context).
func spiderExamples(qs []spider.Question) []models.Example {
	toks := map[string][]string{}
	out := make([]models.Example, 0, len(qs))
	for _, q := range qs {
		st, ok := toks[q.Schema]
		if !ok {
			st = models.SchemaTokens(spider.SchemaByName(q.Schema))
			toks[q.Schema] = st
		}
		sq, err := sqlast.Parse(q.SQL)
		if err != nil {
			continue
		}
		out = append(out, models.Example{
			NL:     lemma.LemmatizeAll(tokens.Tokenize(q.NL)),
			SQL:    sqlTokensNormalized(sq),
			Schema: st,
		})
	}
	return out
}

func sqlTokensNormalized(q *sqlast.Query) []string {
	return models.NormalizeSQLTokens(q.Tokens())
}

// pipelineData runs the stage-composed DBPal pipeline on one schema
// and returns up to cap examples (deterministically subsampled) plus
// the SQL strings of the kept pairs (for pattern-coverage analysis).
// cache may be nil; when shared across calls it memoizes the generate
// stage for repeated (schema, instantiation, seed) keys.
func pipelineData(s *schema.Schema, params core.Params, cap int, seed int64, cache *core.GenCache) ([]models.Example, []string) {
	pairs := pipelinePairs(s, params, seed, cache, nil)
	pairs = subsamplePairs(pairs, cap, seed+17)
	exs := models.PairExamples(pairs, s)
	sqls := make([]string, len(pairs))
	for i, pr := range pairs {
		sqls[i] = pr.SQL
	}
	return exs, sqls
}

// pipelinePairs runs one pipeline with an optional stage-list edit
// (stages receives the configured pipeline and returns the stage list
// to run; nil selects the default generate→augment→lemmatize→dedup
// composition). This is how the ablations drop whole steps instead of
// zeroing their parameters.
func pipelinePairs(s *schema.Schema, params core.Params, seed int64, cache *core.GenCache, stages stageEdit) []core.Pair {
	p := core.New(s, params, seed)
	p.Cache = cache
	if stages == nil {
		return p.Run()
	}
	return p.Graph(stages(p)...).Collect()
}

// stageEdit rewrites a pipeline's stage list (an ablation expressed
// structurally); nil means the default composition.
type stageEdit func(p *core.Pipeline) []pipeline.Stage

func subsamplePairs(pairs []core.Pair, cap int, seed int64) []core.Pair {
	if cap <= 0 || len(pairs) <= cap {
		return pairs
	}
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(len(pairs))[:cap]
	out := make([]core.Pair, cap)
	for i, j := range idx {
		out[i] = pairs[j]
	}
	return out
}

// SpiderExperiment holds everything Tables 2 and 4 need from one
// (expensive) run: per-config evaluation reports plus the training
// pattern sets.
type SpiderExperiment struct {
	Scale          Scale
	Dataset        *spider.Dataset
	Reports        map[Config]*eval.SpiderReport
	SpiderPatterns map[string]bool
	DBPalPatterns  map[string]bool
	TrainSizes     map[Config]int
}

// RunSpider trains the three configurations and evaluates them on the
// synthetic Spider test split.
func RunSpider(s Scale) *SpiderExperiment {
	d := spider.Build(s.Spider)
	base := spiderExamples(d.Train)

	var dbpalTrain []models.Example
	var dbpalSQLs []string
	for i, sch := range spider.TrainSchemas() {
		exs, sqls := pipelineData(sch, s.Pipeline, s.PipelinePerSchema, s.Seed+int64(i)*31, nil)
		dbpalTrain = append(dbpalTrain, exs...)
		dbpalSQLs = append(dbpalSQLs, sqls...)
	}
	var dbpalTest []models.Example
	for i, sch := range spider.TestSchemas() {
		exs, sqls := pipelineData(sch, s.Pipeline, s.PipelinePerSchema, s.Seed+5000+int64(i)*31, nil)
		dbpalTest = append(dbpalTest, exs...)
		dbpalSQLs = append(dbpalSQLs, sqls...)
	}

	datasets := map[Config][]models.Example{
		Baseline:   base,
		DBPalTrain: balance(base, dbpalTrain),
		DBPalFull:  balance(base, concat(dbpalTrain, dbpalTest)),
	}

	exp := &SpiderExperiment{
		Scale:          s,
		Dataset:        d,
		Reports:        map[Config]*eval.SpiderReport{},
		SpiderPatterns: spider.QueryPatternSet(d.Train),
		DBPalPatterns:  eval.PatternsOfPairs(dbpalSQLs),
		TrainSizes:     map[Config]int{},
	}
	// The three configurations are independent train+eval pipelines:
	// fan them out on the worker pool, collecting per-config reports
	// into index-addressed slots so the assembled maps are identical
	// at any worker count.
	reports := make([]*eval.SpiderReport, len(Configs))
	par.Map(s.Workers, len(Configs), func(i int) {
		m := s.newModel(s.Seed)
		m.Train(datasets[Configs[i]])
		reports[i], _ = eval.EvalSpider(context.Background(), m, d.Test, s.Workers)
	})
	for i, cfg := range Configs {
		exp.Reports[cfg] = reports[i]
		exp.TrainSizes[cfg] = len(datasets[cfg])
	}
	return exp
}

// Table2 renders the Spider-by-difficulty table.
func (e *SpiderExperiment) Table2() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: Spider Benchmark Results (%s model, exact match)\n", e.Scale.ModelKind)
	fmt.Fprintf(&b, "%-14s %8s %8s %8s %10s %8s\n", "Algorithm", "Easy", "Medium", "Hard", "VeryHard", "Overall")
	for _, cfg := range Configs {
		r := e.Reports[cfg]
		fmt.Fprintf(&b, "%-14s %8.3f %8.3f %8.3f %10.3f %8.3f\n", cfg,
			r.ByDifficulty[sqlast.Easy].Acc(),
			r.ByDifficulty[sqlast.Medium].Acc(),
			r.ByDifficulty[sqlast.Hard].Acc(),
			r.ByDifficulty[sqlast.VeryHard].Acc(),
			r.Overall.Acc())
	}
	return b.String()
}

// Table4 renders the pattern-coverage breakdown.
func (e *SpiderExperiment) Table4() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: Pattern Coverage Breakdown for Spider (%s model)\n", e.Scale.ModelKind)
	fmt.Fprintf(&b, "%-14s %8s %8s %8s %8s\n", "Algorithm", "Both", "DBPal", "Spider", "Unseen")
	for _, cfg := range Configs {
		cov := eval.CoverageReport(e.Reports[cfg], e.SpiderPatterns, e.DBPalPatterns)
		fmt.Fprintf(&b, "%-14s %8.3f %8.3f %8.3f %8.3f\n", cfg,
			cov[eval.CoverBoth].Acc(), cov[eval.CoverDBPal].Acc(),
			cov[eval.CoverSpider].Acc(), cov[eval.CoverUnseen].Acc())
	}
	// Bucket sizes for context.
	cov := eval.CoverageReport(e.Reports[Baseline], e.SpiderPatterns, e.DBPalPatterns)
	fmt.Fprintf(&b, "%-14s", "(n)")
	for _, bk := range eval.CoverageBuckets {
		fmt.Fprintf(&b, " %8d", cov[bk].Total)
	}
	b.WriteString("\n")
	return b.String()
}

// PatientsExperiment holds the Table-3 run.
type PatientsExperiment struct {
	Scale   Scale
	Reports map[Config]*eval.PatientsReport
}

// RunPatients trains the three configurations (DBPal (Full) adds
// synthetic data for the Patients schema itself) and evaluates the
// 399-case benchmark end-to-end through the runtime.
func RunPatients(s Scale) *PatientsExperiment {
	d := spider.Build(s.Spider)
	base := spiderExamples(d.Train)

	var dbpalTrain []models.Example
	for i, sch := range spider.TrainSchemas() {
		exs, _ := pipelineData(sch, s.Pipeline, s.PipelinePerSchema, s.Seed+int64(i)*31, nil)
		dbpalTrain = append(dbpalTrain, exs...)
	}
	patientsExs, _ := pipelineData(patients.Schema(), s.Pipeline, 2*s.PipelinePerSchema, s.Seed+777, nil)

	datasets := map[Config][]models.Example{
		Baseline:   base,
		DBPalTrain: balance(base, dbpalTrain),
		DBPalFull:  balance(base, concat(dbpalTrain, patientsExs)),
	}

	db, err := patients.Database()
	if err != nil {
		panic(err)
	}
	cases := patients.Cases()
	exp := &PatientsExperiment{Scale: s, Reports: map[Config]*eval.PatientsReport{}}
	reports := make([]*eval.PatientsReport, len(Configs))
	par.Map(s.Workers, len(Configs), func(i int) {
		m := s.newModel(s.Seed)
		m.Train(datasets[Configs[i]])
		reports[i], _ = eval.EvalPatients(context.Background(), runtime.NewTranslator(db, m), cases, s.Workers)
	})
	for i, cfg := range Configs {
		exp.Reports[cfg] = reports[i]
	}
	return exp
}

// Table3 renders the Patients-by-category table.
func (e *PatientsExperiment) Table3() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: Patients Benchmark Results (%s model, semantic equivalence)\n", e.Scale.ModelKind)
	fmt.Fprintf(&b, "%-14s", "Algorithm")
	for _, c := range patients.Categories {
		fmt.Fprintf(&b, " %13s", c)
	}
	fmt.Fprintf(&b, " %8s\n", "Overall")
	for _, cfg := range Configs {
		r := e.Reports[cfg]
		fmt.Fprintf(&b, "%-14s", cfg)
		for _, c := range patients.Categories {
			fmt.Fprintf(&b, " %13.3f", r.ByCategory[c].Acc())
		}
		fmt.Fprintf(&b, " %8.3f\n", r.Overall.Acc())
	}
	return b.String()
}

// balance mixes curated and synthetic examples, repeating the curated
// set so that it keeps rough parity with the synthetic supplement (the
// paper's setup trains on both; without reweighting, a large synthetic
// corpus would displace the curated distribution).
func balance(curated, synthetic []models.Example) []models.Example {
	reps := 1
	if len(curated) > 0 {
		reps = (len(synthetic) + len(curated) - 1) / len(curated)
	}
	if reps < 1 {
		reps = 1
	}
	if reps > 4 {
		reps = 4
	}
	var out []models.Example
	for i := 0; i < reps; i++ {
		out = append(out, curated...)
	}
	return append(out, synthetic...)
}

func concat(lists ...[]models.Example) []models.Example {
	var out []models.Example
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}
