package eval

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/models"
	"repro/internal/patients"
	"repro/internal/spider"
	"repro/internal/sqlast"
)

// halfTranslator deterministically mixes right and wrong answers so
// the report has non-trivial per-bucket structure.
type halfTranslator struct{ gold goldTranslator }

func (h halfTranslator) Name() string           { return "half" }
func (h halfTranslator) Train([]models.Example) {}
func (h halfTranslator) Translate(nl, st []string) []string {
	if len(nl)%2 == 0 {
		return []string{"NOT", "SQL"}
	}
	return h.gold.Translate(nl, st)
}

// TestEvalSpiderWorkerCountInvariance checks the evaluation fan-out
// contract: the report (overall, per-difficulty, and the ordered
// per-question results) is identical at every worker count.
func TestEvalSpiderWorkerCountInvariance(t *testing.T) {
	qs := spider.GeoWorkload(60, 5)
	g := goldTranslator{answers: map[string][]string{}}
	for _, q := range qs {
		nl := lemmaTokens(q.NL)
		g.answers[strings.Join(nl, " ")] = models.NormalizeSQLTokens(sqlast.MustParse(q.SQL).Tokens())
	}
	tr := halfTranslator{gold: g}

	base := spiderReport(t, tr, qs, 1)
	for _, workers := range []int{2, 4, 16} {
		rep := spiderReport(t, tr, qs, workers)
		if rep.Overall != base.Overall {
			t.Fatalf("workers=%d: overall %v vs %v", workers, rep.Overall, base.Overall)
		}
		if !reflect.DeepEqual(rep.Results, base.Results) {
			t.Fatalf("workers=%d: per-question results differ", workers)
		}
		for d, f := range base.ByDifficulty {
			if *rep.ByDifficulty[d] != *f {
				t.Fatalf("workers=%d: difficulty %v differs", workers, d)
			}
		}
	}
}

// TestEvalPatientsWorkerCountInvariance does the same for the
// execution-based metric, which exercises the shared runtime
// translator and engine across workers.
func TestEvalPatientsWorkerCountInvariance(t *testing.T) {
	db, err := patients.Database()
	if err != nil {
		t.Fatal(err)
	}
	cases := patients.Cases()
	if len(cases) > 40 {
		cases = cases[:40]
	}
	tr := brokenTranslator{} // exercises the failure path in every slot

	base := patientsReport(t, tr, db, cases, 1)
	rep := patientsReport(t, tr, db, cases, 4)
	if rep.Overall != base.Overall {
		t.Fatalf("overall differs: %v vs %v", rep.Overall, base.Overall)
	}
	if !reflect.DeepEqual(rep.Failures, base.Failures) {
		t.Fatal("failure lists differ across worker counts")
	}
}
