package eval

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/critic"
	"repro/internal/engine"
	"repro/internal/lemma"
	"repro/internal/models"
	"repro/internal/par"
	"repro/internal/runtime"
	"repro/internal/schema"
	"repro/internal/spider"
	"repro/internal/sqlast"
	"repro/internal/tokens"
)

// CriticArm is one side of the critic-on/critic-off comparison.
type CriticArm struct {
	// Valid counts questions whose final query executed on the
	// database; Exact counts canonical matches against the
	// concrete-bound gold query.
	Valid Frac
	Exact Frac
	// Repaired counts questions the critic answered via a repaired
	// candidate; Rejected counts questions where it rejected the
	// whole beam (both zero on the off arm).
	Repaired int
	Rejected int
}

// String renders one arm as a report row.
func (a CriticArm) String() string {
	return fmt.Sprintf("valid %s  exact %s  repaired %d  rejected %d",
		a.Valid, a.Exact, a.Repaired, a.Rejected)
}

// CriticReport compares answering with and without the
// execution-guided critic over one workload. Both arms finalize the
// exact same decoded beam per question, so every difference is
// attributable to the critic alone.
type CriticReport struct {
	Questions int
	Off, On   CriticArm
}

// EvalCriticCtx scores the critic's contribution on a spider-style
// workload: each question is decoded once, then its candidate beam is
// finalized twice — once plainly, once through a critic — and each
// arm's final query is checked for validity (it executes) and
// exactness (canonically equal to the gold query under the same
// constant bindings). Placeholder constants are bound to deterministic
// database values, so the whole report is a pure function of (model,
// schema, database, questions, critic config): bit-identical at any
// worker count, with cancellation yielding a deterministic
// prefix-shaped partial report. beam is the number of ranked
// candidates decoded per question.
func EvalCriticCtx(ctx context.Context, model models.Translator, s *schema.Schema, db *engine.Database, qs []spider.Question, beam int, cfg critic.Config, workers int) (*CriticReport, error) {
	schemaToks := models.SchemaTokens(s)
	trOff := runtime.NewTranslator(db, model)
	trOn := runtime.NewTranslator(db, model)
	trOn.Critic = critic.New(db, cfg)

	type slot struct {
		offValid, offExact bool
		onValid, onExact   bool
		repaired, rejected bool
	}
	slots := make([]slot, len(qs))
	done := make([]bool, len(qs))
	err := par.MapCtx(ctx, workers, len(qs), func(i int) {
		q := qs[i]
		nl := lemma.LemmatizeAll(tokens.Tokenize(q.NL))
		gold := sqlast.MustParse(q.SQL)
		bindings := criticBindings(gold, db)
		goldConcrete, gerr := runtime.PostProcess(gold.Clone(), s, bindings)

		var sl slot
		if candidates := decodeBeam(model, nl, schemaToks, beam); len(candidates) > 0 {
			dec := &runtime.DecodeResult{Candidates: candidates}
			offQ, _ := trOff.Finalize(ctx, dec, bindings, nil)
			sl.offValid, sl.offExact = armScore(db, offQ, goldConcrete, gerr)

			traceOn := &runtime.Trace{}
			onQ, onErr := trOn.Finalize(ctx, dec, bindings, traceOn)
			sl.onValid, sl.onExact = armScore(db, onQ, goldConcrete, gerr)
			sl.repaired = traceOn.Repaired
			var rej *runtime.RejectedError
			sl.rejected = errors.As(onErr, &rej)
		}
		if ctx.Err() != nil {
			return // a dry-run may have been cut short: leave the question unscored
		}
		slots[i] = sl
		done[i] = true
	})

	rep := &CriticReport{}
	for i := 0; i < donePrefix(done); i++ {
		sl := slots[i]
		rep.Questions++
		rep.Off.Valid.Add(sl.offValid)
		rep.Off.Exact.Add(sl.offExact)
		rep.On.Valid.Add(sl.onValid)
		rep.On.Exact.Add(sl.onExact)
		if sl.repaired {
			rep.On.Repaired++
		}
		if sl.rejected {
			rep.On.Rejected++
		}
	}
	return rep, err
}

// decodeBeam mirrors the runtime's tier decoding: up to k ranked
// candidates when the model supports alternatives, one otherwise.
func decodeBeam(model models.Translator, nl, schemaToks []string, k int) [][]string {
	if k > 1 {
		if kt, ok := model.(runtime.KTranslator); ok {
			return kt.TranslateK(nl, schemaToks, k)
		}
	}
	out := model.Translate(nl, schemaToks)
	if len(out) == 0 {
		return nil
	}
	return [][]string{out}
}

// armScore checks one arm's final query: valid when it executes,
// exact when additionally canonically equal to the concrete gold.
func armScore(db *engine.Database, q, gold *sqlast.Query, goldErr error) (valid, exact bool) {
	if q == nil {
		return false, false
	}
	if _, err := db.Execute(q); err != nil {
		return false, false
	}
	return true, goldErr == nil && sqlast.EqualCanonical(q, gold)
}

// criticBindings fabricates a deterministic constant for every
// placeholder in the gold query, drawing the first distinct database
// value of the referenced column where possible.
func criticBindings(q *sqlast.Query, db *engine.Database) []runtime.Binding {
	var out []runtime.Binding
	seen := map[string]bool{}
	add := func(o sqlast.Operand) {
		ph, ok := o.(sqlast.Placeholder)
		if !ok || strings.EqualFold(ph.Name, "JOIN") || seen[ph.Name] {
			return
		}
		seen[ph.Name] = true
		val := sqlast.NumValue(1)
		if parts := strings.SplitN(ph.Name, ".", 2); len(parts) == 2 {
			if vals := db.DistinctValues(parts[0], parts[1]); len(vals) > 0 {
				if v := vals[0]; v.IsNum {
					val = sqlast.NumValue(v.Num)
				} else {
					val = sqlast.StrValue(v.Str)
				}
			}
		}
		out = append(out, runtime.Binding{Placeholder: ph.Name, Value: val})
	}
	var walkExpr func(e sqlast.Expr)
	walkExpr = func(e sqlast.Expr) {
		switch v := e.(type) {
		case sqlast.Logic:
			walkExpr(v.Left)
			walkExpr(v.Right)
		case sqlast.Not:
			walkExpr(v.Inner)
		case sqlast.Comparison:
			add(v.Right)
		case sqlast.Between:
			add(v.Lo)
			add(v.Hi)
		case sqlast.HavingCond:
			add(v.Right)
		}
	}
	sqlast.WalkQueries(q, func(sub *sqlast.Query) {
		for _, e := range sqlast.Conjuncts(sub.Where) {
			walkExpr(e)
		}
		for _, e := range sqlast.Conjuncts(sub.Having) {
			walkExpr(e)
		}
	})
	return out
}
