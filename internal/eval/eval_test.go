package eval

import (
	"context"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/lemma"
	"repro/internal/models"
	"repro/internal/patients"
	"repro/internal/runtime"
	"repro/internal/spider"
	"repro/internal/sqlast"
	"repro/internal/tokens"
)

// spiderReport runs EvalSpider to completion.
func spiderReport(t *testing.T, tr models.Translator, qs []spider.Question, workers int) *SpiderReport {
	t.Helper()
	rep, err := EvalSpider(context.Background(), tr, qs, workers)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// patientsReport runs EvalPatients to completion on a plain runtime
// (beam 1, no critic) over tr.
func patientsReport(t *testing.T, tr models.Translator, db *engine.Database, cases []patients.Case, workers int) *PatientsReport {
	t.Helper()
	rep, err := EvalPatients(context.Background(), runtime.NewTranslator(db, tr), cases, workers)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestFrac(t *testing.T) {
	var f Frac
	if f.Acc() != 0 {
		t.Fatal("empty Frac should be 0")
	}
	f.Add(true)
	f.Add(false)
	f.Add(true)
	if f.Acc() < 0.66 || f.Acc() > 0.67 {
		t.Fatalf("Acc = %v", f.Acc())
	}
	if !strings.Contains(f.String(), "2/3") {
		t.Fatalf("String = %q", f.String())
	}
}

// goldTranslator answers with the gold SQL by looking the question up.
type goldTranslator struct {
	answers map[string][]string
}

func (g goldTranslator) Name() string           { return "gold" }
func (g goldTranslator) Train([]models.Example) {}
func (g goldTranslator) Translate(nl, _ []string) []string {
	return g.answers[strings.Join(nl, " ")]
}

// brokenTranslator emits garbage.
type brokenTranslator struct{}

func (brokenTranslator) Name() string                     { return "broken" }
func (brokenTranslator) Train([]models.Example)           {}
func (brokenTranslator) Translate(_, _ []string) []string { return []string{"NOT", "SQL"} }

func TestEvalSpiderGoldGetsPerfectScore(t *testing.T) {
	qs := spider.GeoWorkload(40, 3)
	g := goldTranslator{answers: map[string][]string{}}
	for _, q := range qs {
		nl := lemmaTokens(q.NL)
		g.answers[strings.Join(nl, " ")] = models.NormalizeSQLTokens(sqlast.MustParse(q.SQL).Tokens())
	}
	rep := spiderReport(t, g, qs, 0)
	if rep.Overall.Acc() != 1.0 {
		t.Fatalf("gold translator should score 1.0, got %v", rep.Overall)
	}
	for _, d := range sqlast.Difficulties {
		fr := rep.ByDifficulty[d]
		if fr.Total > 0 && fr.Correct != fr.Total {
			t.Fatalf("difficulty %s not perfect: %v", d, fr)
		}
	}
}

func TestEvalSpiderBrokenGetsZero(t *testing.T) {
	qs := spider.GeoWorkload(20, 3)
	rep := spiderReport(t, brokenTranslator{}, qs, 0)
	if rep.Overall.Correct != 0 {
		t.Fatalf("broken translator scored %v", rep.Overall)
	}
	if len(rep.Results) != len(qs) {
		t.Fatalf("results = %d", len(rep.Results))
	}
}

func TestClassify(t *testing.T) {
	sp := map[string]bool{"A": true, "B": true}
	dp := map[string]bool{"B": true, "C": true}
	cases := map[string]CoverageBucket{
		"A": CoverSpider, "B": CoverBoth, "C": CoverDBPal, "D": CoverUnseen,
	}
	for p, want := range cases {
		if got := Classify(p, sp, dp); got != want {
			t.Errorf("Classify(%s) = %v, want %v", p, got, want)
		}
	}
}

func TestCoverageReportPartition(t *testing.T) {
	qs := spider.GeoWorkload(30, 7)
	rep := spiderReport(t, brokenTranslator{}, qs, 0)
	sp := map[string]bool{}
	dp := map[string]bool{}
	for _, r := range rep.Results[:10] {
		sp[r.Pattern] = true
	}
	cov := CoverageReport(rep, sp, dp)
	total := 0
	for _, b := range CoverageBuckets {
		total += cov[b].Total
	}
	if total != len(qs) {
		t.Fatalf("coverage buckets partition %d of %d results", total, len(qs))
	}
}

func TestPatternsOfPairs(t *testing.T) {
	ps := PatternsOfPairs([]string{
		"SELECT name FROM patients WHERE age = @PATIENTS.AGE",
		"SELECT title FROM books WHERE pages = @BOOKS.PAGES", // same pattern
		"not sql at all",
	})
	if len(ps) != 1 {
		t.Fatalf("patterns = %v", ps)
	}
}

// TestEvalPatientsEndToEndParameterHandling drives the full runtime
// for every benchmark case with a translator that always answers the
// anonymized gold query, verifying that the Parameter Handler and
// Post-processor restore constants well enough for the gold SQL to be
// reproduced on the vast majority of cases.
func TestEvalPatientsParameterRoundtrip(t *testing.T) {
	db, err := patients.Database()
	if err != nil {
		t.Fatal(err)
	}
	ph := runtime.NewParameterHandler(db)
	cases := patients.Cases()
	ok := 0
	for _, cs := range cases {
		gold := sqlast.MustParse(cs.SQL)
		goldRes, err := db.Execute(gold)
		if err != nil {
			t.Fatal(err)
		}
		anon, err := ph.Anonymize(cs.NL)
		if err != nil {
			t.Fatal(err)
		}
		anonGold := anonymizeGold(gold)
		restored, err := runtime.PostProcess(anonGold, db.Schema, anon.Bindings)
		if err != nil {
			continue
		}
		res, err := db.Execute(restored)
		if err != nil {
			continue
		}
		if engine.EqualResults(goldRes, res) {
			ok++
		}
	}
	frac := float64(ok) / float64(len(cases))
	t.Logf("parameter-handling roundtrip: %d/%d (%.3f)", ok, len(cases), frac)
	if frac < 0.80 {
		t.Fatalf("parameter handling too weak: %.3f", frac)
	}
}

// anonymizeGold replaces literal operands in WHERE clauses with
// canonical placeholders, simulating the model's anonymized output.
func anonymizeGold(q *sqlast.Query) *sqlast.Query {
	out := q.Clone()
	sqlast.WalkQueries(out, func(sub *sqlast.Query) {
		sub.Where = anonymizeExpr(sub.Where, sub)
	})
	return out
}

func anonymizeExpr(e sqlast.Expr, q *sqlast.Query) sqlast.Expr {
	switch v := e.(type) {
	case sqlast.Logic:
		return sqlast.Logic{Op: v.Op, Left: anonymizeExpr(v.Left, q), Right: anonymizeExpr(v.Right, q)}
	case sqlast.Not:
		return sqlast.Not{Inner: anonymizeExpr(v.Inner, q)}
	case sqlast.Comparison:
		if _, ok := v.Right.(sqlast.Value); ok {
			name := "PATIENTS." + strings.ToUpper(v.Left.Column)
			return sqlast.Comparison{Left: v.Left, Op: v.Op, Right: sqlast.Placeholder{Name: name}}
		}
		return v
	case sqlast.InSubquery:
		anonymizeExpr(v.Query.Where, v.Query)
		return v
	default:
		return e
	}
}

func lemmaTokens(nl string) []string {
	return lemma.LemmatizeAll(tokens.Tokenize(nl))
}

// patientsOracle plays back anonymized gold queries for a subset of
// the benchmark, exercising EvalPatients end to end.
type patientsOracle struct {
	byNL map[string][]string
}

func (patientsOracle) Name() string           { return "patients-oracle" }
func (patientsOracle) Train([]models.Example) {}
func (o patientsOracle) Translate(nl, _ []string) []string {
	return o.byNL[strings.Join(nl, " ")]
}

func TestEvalPatientsWithOracle(t *testing.T) {
	db, err := patients.Database()
	if err != nil {
		t.Fatal(err)
	}
	cases := patients.Cases()[:70] // one category's worth, for speed
	o := patientsOracle{byNL: map[string][]string{}}
	for _, cs := range cases {
		anonGold := anonymizeGold(sqlast.MustParse(cs.SQL))
		key := strings.Join(lemmaTokens(strings.Join(anonNLFor(db, cs.NL), " ")), " ")
		o.byNL[key] = models.NormalizeSQLTokens(anonGold.Tokens())
	}
	rep := patientsReport(t, o, db, cases, 0)
	if rep.Overall.Total != len(cases) {
		t.Fatalf("evaluated %d of %d", rep.Overall.Total, len(cases))
	}
	// The oracle answers with the anonymized gold; the only losses are
	// parameter-handling mismatches, so accuracy must be high.
	if rep.Overall.Acc() < 0.75 {
		t.Fatalf("oracle accuracy only %v; failures: %d", rep.Overall, len(rep.Failures))
	}
	for _, f := range rep.Failures {
		if f.Case.NL == "" {
			t.Fatal("failure with empty case")
		}
	}
}

func anonNLFor(db *engine.Database, nl string) []string {
	ph := runtime.NewParameterHandler(db)
	anon, err := ph.Anonymize(nl)
	if err != nil {
		panic(err)
	}
	return anon.Tokens
}

func TestCoverageBucketStrings(t *testing.T) {
	names := map[CoverageBucket]string{
		CoverBoth: "Both", CoverDBPal: "DBPal", CoverSpider: "Spider", CoverUnseen: "Unseen",
	}
	for b, want := range names {
		if b.String() != want {
			t.Fatalf("bucket %d name %q", b, b.String())
		}
	}
}
