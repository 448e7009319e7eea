package dbpal_test

// This file carries one testing.B benchmark per table and figure of
// the paper's evaluation (see DESIGN.md's per-experiment index), plus
// micro-benchmarks for the pipeline's hot paths. The table/figure
// benchmarks run the quick-scale experiment (the full-scale results
// are recorded in EXPERIMENTS.md and regenerated by cmd/dbpal-bench);
// they report tokens of work via b.Log so `go test -bench` output
// shows the reproduced rows.
//
// The experiment benchmarks are heavyweight (tens of seconds each):
// run them with -benchtime=1x, which the default b.N=1 already gives.

import (
	"testing"

	dbpal "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/patients"
	"repro/internal/pipeline"
	"repro/internal/runtime"
	"repro/internal/spider"
	"repro/internal/sqlast"
)

// BenchmarkTable2Spider regenerates Table 2 (Spider accuracy by
// difficulty for the three training configurations).
func BenchmarkTable2Spider(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := experiments.RunSpider(experiments.QuickScale())
		b.Log("\n" + e.Table2())
	}
}

// BenchmarkTable3Patients regenerates Table 3 (Patients accuracy by
// linguistic category).
func BenchmarkTable3Patients(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := experiments.RunPatients(experiments.QuickScale())
		b.Log("\n" + e.Table3())
	}
}

// BenchmarkTable4PatternCoverage regenerates Table 4 (pattern-coverage
// breakdown of the Spider evaluation).
func BenchmarkTable4PatternCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := experiments.RunSpider(experiments.QuickScale())
		b.Log("\n" + e.Table4())
	}
}

// BenchmarkFigure3SeedTemplates regenerates Figure 3 (normalized
// accuracy vs fraction of seed templates).
func BenchmarkFigure3SeedTemplates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFigure3(experiments.QuickScale())
		b.Log("\n" + r.Format())
	}
}

// BenchmarkFigure4Hyperopt regenerates Figure 4 (random-search
// accuracy histogram) at reduced trial count.
func BenchmarkFigure4Hyperopt(b *testing.B) {
	s := experiments.QuickScale()
	s.HyperoptTrials = 6
	for i := 0; i < b.N; i++ {
		r := experiments.RunFigure4(s)
		b.Log("\n" + r.Format())
	}
}

// BenchmarkAblationParams runs the pipeline design-choice ablations
// (Table 1's knobs exercised one at a time).
func BenchmarkAblationParams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunAblations(experiments.QuickScale())
		b.Log("\n" + r.Format())
	}
}

// ---------------------------------------------------------------------
// Micro-benchmarks of the substrate hot paths.
// ---------------------------------------------------------------------

// BenchmarkPipeline measures the streaming stage pipeline on the
// Patients schema: the end-to-end default composition, and each stage
// in isolation, fed from a pre-computed slice so per-stage numbers
// exclude upstream cost. The end-to-end case also reports each stage's
// self time per run (the Stats WallNS), which add up to the run.
// BENCH_pipeline.json records the baseline run.
func BenchmarkPipeline(b *testing.B) {
	s := patients.Schema()
	params := core.DefaultParams()
	params.Instantiation.SizeSlotFills = 4

	b.Run("end-to-end", func(b *testing.B) {
		b.ReportAllocs()
		self := map[string]int64{}
		for i := 0; i < b.N; i++ {
			g := core.New(s, params, int64(i)).Graph()
			if out := g.Collect(); len(out) == 0 {
				b.Fatal("no pairs")
			}
			for _, st := range g.Stats() {
				self[st.Stage] += st.WallNS
			}
		}
		for stage, ns := range self {
			b.ReportMetric(float64(ns)/float64(b.N), stage+"-ns/op")
		}
	})

	// Stage inputs: what the default composition hands each stage.
	mk := func(stages func(p *core.Pipeline) []pipeline.Stage) []core.Pair {
		p := core.New(s, params, 1)
		return p.Graph(stages(p)...).Collect()
	}
	generated := mk(func(p *core.Pipeline) []pipeline.Stage {
		return []pipeline.Stage{p.GenerateStage()}
	})
	augmented := mk(func(p *core.Pipeline) []pipeline.Stage {
		return []pipeline.Stage{p.GenerateStage(), p.AugmentStage()}
	})
	lemmatized := mk(func(p *core.Pipeline) []pipeline.Stage {
		return []pipeline.Stage{p.GenerateStage(), p.AugmentStage(), core.LemmaStage()}
	})

	stageBench := func(in []core.Pair, stage func(p *core.Pipeline) pipeline.Stage) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := core.New(s, params, 1)
				src := pipeline.Source("src", func(emit func(pipeline.Pair)) {
					for _, q := range in {
						emit(q)
					}
				})
				if out := pipeline.New(src, stage(p)).Collect(); len(out) == 0 {
					b.Fatal("no pairs")
				}
			}
		}
	}
	b.Run("stage/generate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := core.New(s, params, 1)
			if out := p.Graph(p.GenerateStage()).Collect(); len(out) == 0 {
				b.Fatal("no pairs")
			}
		}
	})
	b.Run("stage/augment", stageBench(generated, func(p *core.Pipeline) pipeline.Stage { return p.AugmentStage() }))
	b.Run("stage/lemmatize", stageBench(augmented, func(p *core.Pipeline) pipeline.Stage { return core.LemmaStage() }))
	b.Run("stage/dedup", stageBench(lemmatized, func(p *core.Pipeline) pipeline.Stage { return core.DedupStage() }))
}

// BenchmarkEngineExecute measures executing a grouped aggregate over
// the generated geo database.
func BenchmarkEngineExecute(b *testing.B) {
	db, err := engine.GenerateData(spider.SchemaByName("geo"), 200, 1)
	if err != nil {
		b.Fatal(err)
	}
	q := sqlast.MustParse("SELECT states.name, AVG(cities.population) FROM states, cities WHERE cities.state_id = states.id GROUP BY states.name")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParameterHandler measures constant anonymization against
// the Patients value index.
func BenchmarkParameterHandler(b *testing.B) {
	db, err := patients.Database()
	if err != nil {
		b.Fatal(err)
	}
	ph := runtime.NewParameterHandler(db)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		anon, err := ph.Anonymize("show the names of patients with diagnosis influenza and age 80")
		if err != nil {
			b.Fatal(err)
		}
		if len(anon.Bindings) != 2 {
			b.Fatalf("bindings = %v", anon.Bindings)
		}
	}
}

// BenchmarkSketchTranslate measures inference latency of a trained
// sketch model on the Patients schema.
func BenchmarkSketchTranslate(b *testing.B) {
	s := patients.Schema()
	params := dbpal.DefaultParams()
	params.Instantiation.SizeSlotFills = 3
	pairs := dbpal.GenerateTrainingData(s, params, 1)
	cfg := dbpal.DefaultSketchConfig()
	cfg.Epochs = 2
	model := dbpal.NewSketch(cfg)
	model.Train(dbpal.TrainingExamples(pairs, s))
	nl := []string{"show", "the", "name", "of", "patient", "with", "age", "@PATIENTS.AGE"}
	st := dbpal.SchemaTokens(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := model.Translate(nl, st); len(out) == 0 {
			b.Fatal("empty translation")
		}
	}
}

// BenchmarkSeq2SeqTranslate measures inference latency of a trained
// seq2seq model on the Patients schema.
func BenchmarkSeq2SeqTranslate(b *testing.B) {
	s := patients.Schema()
	params := dbpal.DefaultParams()
	params.Instantiation.SizeSlotFills = 2
	pairs := dbpal.GenerateTrainingData(s, params, 1)
	cfg := dbpal.DefaultSeq2SeqConfig()
	cfg.Epochs = 1
	cfg.SampleCap = 1500
	model := dbpal.NewSeq2Seq(cfg)
	model.Train(dbpal.TrainingExamples(pairs, s))
	nl := []string{"show", "the", "name", "of", "patient", "with", "age", "@PATIENTS.AGE"}
	st := dbpal.SchemaTokens(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := model.Translate(nl, st); len(out) == 0 {
			b.Fatal("empty translation")
		}
	}
}

// BenchmarkSpiderBuild measures synthesizing the cross-domain
// benchmark itself.
func BenchmarkSpiderBuild(b *testing.B) {
	cfg := spider.Config{TrainPerSchema: 30, TestPerSchema: 10, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := spider.Build(cfg)
		if len(d.Train) == 0 {
			b.Fatal("empty dataset")
		}
	}
}
