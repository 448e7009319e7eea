// Package eval implements the paper's two accuracy metrics and the
// breakdowns its tables report:
//
//   - exact-match accuracy on canonicalized SQL (the Spider metric,
//     §6.1: "a query is deemed correctly translated only if it exactly
//     matches the provided gold standard"), with per-difficulty
//     grouping for Table 2 and pattern-coverage grouping for Table 4;
//   - semantic-equivalence accuracy by execution (the Patients metric,
//     §6.2), with per-category grouping for Table 3.
package eval

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/lemma"
	"repro/internal/models"
	"repro/internal/par"
	"repro/internal/patients"
	"repro/internal/runtime"
	"repro/internal/schema"
	"repro/internal/spider"
	"repro/internal/sqlast"
	"repro/internal/tokens"
)

// Frac is a correct/total accuracy fraction.
type Frac struct {
	Correct, Total int
}

// Add accumulates one trial.
func (f *Frac) Add(ok bool) {
	f.Total++
	if ok {
		f.Correct++
	}
}

// Acc returns the accuracy in [0,1] (0 for empty).
func (f Frac) Acc() float64 {
	if f.Total == 0 {
		return 0
	}
	return float64(f.Correct) / float64(f.Total)
}

// String renders like "0.445 (89/200)".
func (f Frac) String() string {
	return fmt.Sprintf("%.3f (%d/%d)", f.Acc(), f.Correct, f.Total)
}

// SpiderResult is the outcome of evaluating one question.
type SpiderResult struct {
	Question   spider.Question
	Pred       string
	Correct    bool
	Difficulty sqlast.Difficulty
	Pattern    string
}

// SpiderReport aggregates a Spider-style evaluation.
type SpiderReport struct {
	ByDifficulty map[sqlast.Difficulty]*Frac
	Overall      Frac
	Results      []SpiderResult
}

// EvalSpider runs the translator over pre-anonymized questions and
// scores canonicalized exact match, as in the paper's Spider setup.
// Questions are translated concurrently on up to workers goroutines
// (0 = runtime.NumCPU), so the translator's Translate must be safe for
// concurrent calls (both repository models are: inference only reads
// the trained weights). The report is identical for every worker
// count: results are produced into per-question slots and aggregated
// in question order. On cancellation it returns the context's error
// together with a partial report covering the completed prefix of the
// question list — par.MapCtx dispatches questions in index order, so
// the evaluated set is always a prefix and the partial report is
// deterministic.
func EvalSpider(ctx context.Context, tr models.Translator, qs []spider.Question, workers int) (*SpiderReport, error) {
	// Schema-token contexts are built up front so the workers share a
	// read-only map.
	schemaToks := map[string][]string{}
	for _, q := range qs {
		if _, ok := schemaToks[q.Schema]; !ok {
			schemaToks[q.Schema] = models.SchemaTokens(spider.SchemaByName(q.Schema))
		}
	}
	return evalQuestions(ctx, tr, schemaToks, qs, workers)
}

// EvalSchemaCtx scores a translator on questions over one explicit
// schema — unlike EvalSpider it does not look the schema up in the
// zoo, so it works for generated tenant schemas too. It is the
// registry's onboarding eval gate, scored on every core (the report
// is the same at any worker count).
func EvalSchemaCtx(ctx context.Context, tr models.Translator, s *schema.Schema, qs []spider.Question) (*SpiderReport, error) {
	schemaToks := map[string][]string{s.Name: models.SchemaTokens(s)}
	return evalQuestions(ctx, tr, schemaToks, qs, 0)
}

// evalQuestions is the shared exact-match scoring loop behind
// EvalSpider and EvalSchemaCtx.
func evalQuestions(ctx context.Context, tr models.Translator, schemaToks map[string][]string, qs []spider.Question, workers int) (*SpiderReport, error) {
	rep := &SpiderReport{ByDifficulty: map[sqlast.Difficulty]*Frac{}}
	for _, d := range sqlast.Difficulties {
		rep.ByDifficulty[d] = &Frac{}
	}
	rep.Results = make([]SpiderResult, len(qs))
	done := make([]bool, len(qs))
	err := par.MapCtx(ctx, workers, len(qs), func(i int) {
		q := qs[i]
		nl := lemma.LemmatizeAll(tokens.Tokenize(q.NL))
		predToks := tr.Translate(nl, schemaToks[q.Schema])
		gold := sqlast.MustParse(q.SQL)
		correct := false
		var predStr string
		if pred, perr := sqlast.ParseTokens(predToks); perr == nil {
			predStr = pred.String()
			correct = sqlast.EqualCanonical(pred, gold)
		} else {
			predStr = strings.Join(predToks, " ")
		}
		rep.Results[i] = SpiderResult{
			Question:   q,
			Pred:       predStr,
			Correct:    correct,
			Difficulty: q.Difficulty,
			Pattern:    gold.Pattern(),
		}
		done[i] = true
	})
	rep.Results = rep.Results[:donePrefix(done)]
	for _, r := range rep.Results {
		rep.Overall.Add(r.Correct)
		rep.ByDifficulty[r.Difficulty].Add(r.Correct)
	}
	return rep, err
}

// donePrefix returns the length of the completed prefix of the done
// flags (MapCtx guarantees completion is prefix-shaped).
func donePrefix(done []bool) int {
	for i, d := range done {
		if !d {
			return i
		}
	}
	return len(done)
}

// CoverageBucket classifies a test query's pattern by which training
// corpus covered it (the paper's Table 4).
type CoverageBucket int

// Coverage buckets.
const (
	CoverBoth CoverageBucket = iota
	CoverDBPal
	CoverSpider
	CoverUnseen
)

// String names the bucket as the paper's Table 4 spells it.
func (b CoverageBucket) String() string {
	switch b {
	case CoverBoth:
		return "Both"
	case CoverDBPal:
		return "DBPal"
	case CoverSpider:
		return "Spider"
	default:
		return "Unseen"
	}
}

// CoverageBuckets lists the buckets in reporting order.
var CoverageBuckets = []CoverageBucket{CoverBoth, CoverDBPal, CoverSpider, CoverUnseen}

// Classify places a pattern into its coverage bucket given the pattern
// sets of the Spider training data and the DBPal-generated data.
func Classify(pattern string, spiderPatterns, dbpalPatterns map[string]bool) CoverageBucket {
	inS := spiderPatterns[pattern]
	inD := dbpalPatterns[pattern]
	switch {
	case inS && inD:
		return CoverBoth
	case inD:
		return CoverDBPal
	case inS:
		return CoverSpider
	default:
		return CoverUnseen
	}
}

// CoverageReport groups a SpiderReport's results by coverage bucket.
func CoverageReport(rep *SpiderReport, spiderPatterns, dbpalPatterns map[string]bool) map[CoverageBucket]*Frac {
	out := map[CoverageBucket]*Frac{}
	for _, b := range CoverageBuckets {
		out[b] = &Frac{}
	}
	for _, r := range rep.Results {
		out[Classify(r.Pattern, spiderPatterns, dbpalPatterns)].Add(r.Correct)
	}
	return out
}

// PatternsOfPairs returns the pattern set of generated training pairs.
func PatternsOfPairs(sqls []string) map[string]bool {
	out := map[string]bool{}
	for _, s := range sqls {
		q, err := sqlast.Parse(s)
		if err != nil {
			continue
		}
		out[q.Pattern()] = true
	}
	return out
}

// PatientsReport aggregates the Patients benchmark evaluation.
type PatientsReport struct {
	ByCategory map[patients.Category]*Frac
	Overall    Frac
	Failures   []PatientsFailure
}

// PatientsFailure records one miss for diagnostics.
type PatientsFailure struct {
	Case patients.Case
	Pred string
	Err  string
}

// patientsOutcome is one case's result slot, filled by a worker.
type patientsOutcome struct {
	correct bool
	pred    string
	err     string
}

// EvalPatients runs every benchmark case through the full runtime rt
// (Parameter Handler, lemmatizer, model, post-processor, and whatever
// beam and critic the caller configured on it) and scores semantic
// equivalence: the prediction is correct when it executes to the same
// result as the gold query on rt's database. Cases are evaluated on up
// to workers goroutines (0 = runtime.NumCPU); the runtime and engine
// are stateless per call, so one shared rt serves every worker, and
// outcomes land in per-case slots aggregated in case order, making the
// report identical for every worker count. On cancellation it returns
// the context's error together with a partial report covering the
// completed prefix of the case list (see EvalSpider).
func EvalPatients(ctx context.Context, rt *runtime.Translator, cases []patients.Case, workers int) (*PatientsReport, error) {
	db := rt.DB
	rep := &PatientsReport{ByCategory: map[patients.Category]*Frac{}}
	for _, c := range patients.Categories {
		rep.ByCategory[c] = &Frac{}
	}
	outcomes := make([]patientsOutcome, len(cases))
	done := make([]bool, len(cases))
	err := par.MapCtx(ctx, workers, len(cases), func(i int) {
		cs := cases[i]
		gold := sqlast.MustParse(cs.SQL)
		goldRes, gerr := db.Execute(gold)
		if gerr != nil {
			panic(fmt.Sprintf("eval: gold query %q does not execute: %v", cs.SQL, gerr))
		}
		var out patientsOutcome
		pred, _, terr := rt.Translate(ctx, cs.NL)
		if terr != nil && ctx.Err() != nil {
			return // interrupted, not scored: the partial report stops before it
		}
		if terr == nil {
			out.pred = pred.String()
			predRes, execErr := db.Execute(pred)
			if execErr == nil {
				out.correct = engine.EqualResults(goldRes, predRes)
			} else {
				out.err = execErr.Error()
			}
		} else {
			out.err = terr.Error()
		}
		outcomes[i] = out
		done[i] = true
	})
	for i := 0; i < donePrefix(done); i++ {
		cs, out := cases[i], outcomes[i]
		rep.Overall.Add(out.correct)
		rep.ByCategory[cs.Category].Add(out.correct)
		if !out.correct {
			rep.Failures = append(rep.Failures, PatientsFailure{Case: cs, Pred: out.pred, Err: out.err})
		}
	}
	return rep, err
}
