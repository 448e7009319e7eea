// Package core implements the DBPal training pipeline — the paper's
// primary contribution. Given only a database schema (plus the
// reusable seed templates and slot-fill lexicons), it synthesizes a
// training corpus of NL–SQL pairs from composable streaming stages
// (internal/pipeline):
//
//  1. generate   balanced template instantiation (internal/generator),
//  2. augment    automatic paraphrasing, word dropout, and
//     domain-aware comparatives (internal/augment),
//  3. lemmatize  normalization of word forms (internal/lemma),
//  4. dedup      drop exact (NL, SQL) duplicates that survive
//     lemmatization (distinct surface forms can collapse).
//
// The pipeline is deterministic given its seed: stages run as one
// synchronous chain on the caller's goroutine (each pair flows through
// every stage before the source produces the next), so corpora of any
// size generate in constant memory, and the default composition
// reproduces the historical monolithic generate→augment→lemmatize pass
// byte-for-byte (see the golden equivalence test). It is fully
// pluggable in the paper's sense twice over: the produced pairs feed
// any Translator implementation (internal/models), and the stage list
// itself can be edited — ablated, reordered, extended, observed — by
// any caller without touching this package.
package core

import (
	"math/rand"
	"strings"

	"repro/internal/augment"
	"repro/internal/generator"
	"repro/internal/lemma"
	"repro/internal/pipeline"
	"repro/internal/schema"
	"repro/internal/templates"
	"repro/internal/tokens"
)

// Pair is one training example as emitted by the pipeline.
type Pair = generator.Pair

// Params collects every tunable knob of the data-generation procedure
// (the paper's Table 1): instantiation parameters and augmentation
// parameters. These are the hyperparameters the optimization procedure
// (internal/hyperopt) searches over. Structural choices that are not
// Table-1 knobs — lemmatization on/off, dedup on/off — are expressed
// as stage-list edits instead (see Stages).
type Params struct {
	Instantiation generator.Params
	Augmentation  augment.Params
}

// DefaultParams returns the shipped defaults, empirically determined
// to perform well across schemas (paper §3.2.1).
func DefaultParams() Params {
	return Params{
		Instantiation: generator.DefaultParams(),
		Augmentation:  augment.DefaultParams(),
	}
}

// Pipeline is a configured DBPal training-data pipeline for one
// schema. It composes single-use stages over the streaming substrate;
// every Run or Graph builds fresh stages, so one Pipeline value can be
// run repeatedly and always reproduces the same corpus.
type Pipeline struct {
	Schema *schema.Schema
	Params Params
	Seed   int64
	// Templates restricts the seed library when non-nil (used by the
	// Figure-3 seed-template-fraction experiment).
	Templates []templates.Template
	// Cache, when non-nil, memoizes the generate stage's output keyed
	// by (schema, instantiation params, template set, seed) — the
	// hyperopt regime, where many trials share instantiation settings
	// and differ only downstream.
	Cache *GenCache
}

// New returns a pipeline with the given parameters.
func New(s *schema.Schema, p Params, seed int64) *Pipeline {
	return &Pipeline{Schema: s, Params: p, Seed: seed}
}

// GenerateStage returns the balanced template-instantiation source
// stage (memoized through Cache when one is configured).
func (p *Pipeline) GenerateStage() pipeline.Stage {
	if p.Cache != nil {
		return p.Cache.stage(p)
	}
	return pipeline.Source(generator.StageGenerate, func(emit func(Pair)) {
		p.newGenerator().Stream(emit)
	})
}

func (p *Pipeline) newGenerator() *generator.Generator {
	if p.Templates != nil {
		return generator.NewWithTemplates(p.Schema, p.Params.Instantiation, p.Seed, p.Templates)
	}
	return generator.New(p.Schema, p.Params.Instantiation, p.Seed)
}

// AugmentStage returns the paraphrase/dropout/comparative expansion
// stage. It is sequential and stateful (one RNG stream in arrival
// order), preserving the historical augmenter trajectory exactly.
func (p *Pipeline) AugmentStage() pipeline.Stage {
	a := augment.New(p.Schema, p.Params.Augmentation, p.Seed+1)
	return pipeline.FuncWithCounters(augment.StageAugment, a.Step, a.Counters)
}

// LemmaStage returns the word-form normalization stage, a pure
// per-pair map.
func LemmaStage() pipeline.Stage {
	return pipeline.FuncWithCounters("lemmatize", func(q Pair, emit func(Pair)) {
		q.NL = LemmatizeNL(q.NL)
		emit(q)
	}, nil)
}

// DedupStage returns the exact-duplicate filter (first occurrence
// wins, drops counted as "dedup_hits"). The augmenter dedups its own
// output, but lemmatization can collapse distinct surface forms into
// identical (NL, SQL) pairs afterwards; this stage keeps the final
// corpus duplicate-free.
func DedupStage() pipeline.Stage { return pipeline.Dedup() }

// Stages returns the default composition: generate → augment →
// lemmatize → dedup. The slice is freshly built (stages are
// single-use) and free to edit before handing it to Graph — drop the
// augment stage for a no-augmentation ablation, drop lemmatize to keep
// surface forms, append a stage that emits its input unchanged to
// observe the stream.
func (p *Pipeline) Stages() []pipeline.Stage {
	return []pipeline.Stage{p.GenerateStage(), p.AugmentStage(), LemmaStage(), DedupStage()}
}

// Graph chains a stage list (the default composition when none is
// given) into a runnable graph.
func (p *Pipeline) Graph(stages ...pipeline.Stage) *pipeline.Graph {
	if len(stages) == 0 {
		stages = p.Stages()
	}
	return pipeline.New(stages...)
}

// Run executes the default composition and returns the training
// pairs. To stream pairs instead, or for the per-stage snapshot, run
// p.Graph() and read its Stats.
func (p *Pipeline) Run() []Pair {
	return p.Graph().Collect()
}

// LemmatizeNL tokenizes and lemmatizes an NL string the same way for
// training data and runtime input (paper §2.2.3 / §4.1).
func LemmatizeNL(nl string) string {
	toks := tokens.Tokenize(nl)
	toks = lemma.LemmatizeAll(toks)
	return strings.Join(toks, " ")
}

// TemplateFraction returns a deterministic random subset containing
// the given fraction of the seed templates (selected before
// instantiation, as in the paper's Figure-3 experiment).
func TemplateFraction(fraction float64, seed int64) []templates.Template {
	all := templates.All()
	if fraction >= 1 {
		return all
	}
	n := int(fraction*float64(len(all)) + 0.5)
	if n <= 0 {
		return []templates.Template{}
	}
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(len(all))[:n]
	out := make([]templates.Template, 0, n)
	for _, i := range idx {
		out = append(out, all[i])
	}
	return out
}
