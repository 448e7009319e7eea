package runtime

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/critic"
	"repro/internal/models"
)

// flakyModel returns a broken top candidate and a correct third one —
// the situation a beam under the critic exists for.
type flakyModel struct{}

func (flakyModel) Name() string           { return "flaky" }
func (flakyModel) Train([]models.Example) {}
func (flakyModel) Translate(nl, st []string) []string {
	return strings.Fields("SELECT nonexistent FROM patients")
}
func (flakyModel) TranslateK(nl, st []string, k int) [][]string {
	return [][]string{
		strings.Fields("SELECT nonexistent FROM patients"),                    // post-process passes, execution fails
		strings.Fields("SELECT COUNT ( * FROM"),                               // unparsable
		strings.Fields("SELECT name FROM patients WHERE age = @PATIENTS.AGE"), // good
	}
}

// beamTranslator wires model to the patients database with the given
// beam width and a default-config critic.
func beamTranslator(t *testing.T, model models.Translator, beam int) *Translator {
	t.Helper()
	db := benchDB(t)
	tr := NewTranslator(db, model)
	tr.Beam = beam
	tr.Critic = critic.New(db, critic.Config{Seed: 1})
	return tr
}

func TestBeamCriticRecovers(t *testing.T) {
	// One candidate: the critic's dry-run rejects the broken top-1, so
	// the question fails instead of answering with SQL that cannot run.
	tr := beamTranslator(t, flakyModel{}, 1)
	if _, _, err := tr.Ask(context.Background(), "show patients with age 80"); err == nil {
		t.Fatal("beam 1 should fail on the broken top candidate")
	}

	// Beam 3: the critic reranks validity-first and the third
	// candidate wins.
	tr.Beam = 3
	res, q, err := tr.Ask(context.Background(), "show patients with age 80")
	if err != nil {
		t.Fatalf("beam 3 under the critic failed: %v", err)
	}
	if !strings.Contains(q.String(), "age = 80") {
		t.Fatalf("unexpected recovered query: %s", q)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("expected 3 rows, got %d", len(res.Rows))
	}
}

// allBadModel has no viable candidate at all.
type allBadModel struct{}

func (allBadModel) Name() string           { return "allbad" }
func (allBadModel) Train([]models.Example) {}
func (allBadModel) Translate(nl, st []string) []string {
	return strings.Fields("garbage output (")
}
func (allBadModel) TranslateK(nl, st []string, k int) [][]string {
	return [][]string{
		strings.Fields("garbage output ("),
		strings.Fields("more garbage )"),
	}
}

func TestBeamCriticSurfacesFirstError(t *testing.T) {
	tr := beamTranslator(t, allBadModel{}, 2)
	_, _, err := tr.Ask(context.Background(), "show patients with age 80")
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("all-bad candidates must yield a *RejectedError, got %v", err)
	}
	if len(rej.Verdicts) != 2 || !strings.Contains(rej.Verdicts[0], `got "garbage"`) {
		t.Fatalf("expected the first candidate's parse failure to surface first, got %v", rej.Verdicts)
	}
}

func TestBeamIgnoredWithoutKTranslator(t *testing.T) {
	tr := beamTranslator(t, oracleModel{}, 5) // oracleModel has no TranslateK: one candidate
	q, trace, err := tr.Translate(context.Background(), "show the names of all patients with age 80")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.String(), "80") {
		t.Fatalf("query = %s", q)
	}
	if len(trace.CriticVerdicts) != 1 {
		t.Fatalf("verdicts = %v, want one candidate reviewed", trace.CriticVerdicts)
	}
}

// Without a critic nothing executes before the answer: at any beam
// width the first candidate that parses and post-processes wins, even
// when a later one would run.
func TestBeamWithoutCriticKeepsFirstUsable(t *testing.T) {
	tr := NewTranslator(benchDB(t), flakyModel{})
	tr.Beam = 3
	_, q, err := tr.Ask(context.Background(), "show patients with age 80")
	if q == nil || !strings.Contains(q.String(), "nonexistent") {
		t.Fatalf("query = %v, want the first post-processable candidate", q)
	}
	if err == nil || !strings.Contains(err.Error(), "executing") {
		t.Fatalf("err = %v, want the execution failure of that candidate", err)
	}
}
