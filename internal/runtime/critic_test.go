package runtime

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/critic"
	"repro/internal/engine"
	"repro/internal/sqlast"
)

// criticTranslator builds a translator whose finalization runs through
// a critic over the patients database.
func criticTranslator(t *testing.T, cfg critic.Config) *Translator {
	t.Helper()
	db := benchDB(t)
	tr := NewTranslator(db, oracleModel{})
	tr.Critic = critic.New(db, cfg)
	return tr
}

// finalizeBeam finalizes a hand-written beam the way a cache replay
// does.
func finalizeBeam(tr *Translator, beam [][]string, bindings []Binding, trace *Trace) (*sqlast.Query, error) {
	return tr.Finalize(context.Background(), &DecodeResult{Candidates: beam}, bindings, trace)
}

// A valid later candidate beats an invalid top-1: the critic reranks
// the beam validity-first instead of answering with the first parse.
func TestFinalizeCriticRerank(t *testing.T) {
	tr := criticTranslator(t, critic.Config{Seed: 1})
	anon := mustAnon(t, tr.PH, "show the names of all patients with age 80")

	bad := strings.Fields("SELECT xqzw FROM patients")
	good := strings.Fields("SELECT name FROM patients WHERE age = @PATIENTS.AGE")
	trace := &Trace{}
	q, err := finalizeBeam(tr, [][]string{bad, good}, anon.Bindings, trace)
	if err != nil || q == nil || !strings.Contains(q.String(), "name") {
		t.Fatalf("Finalize = (%v, %v)", q, err)
	}
	if len(trace.CriticVerdicts) != 2 || !strings.HasPrefix(trace.CriticVerdicts[0], "invalid") || trace.CriticVerdicts[1] != "valid" {
		t.Fatalf("CriticVerdicts = %v, want [invalid..., valid]", trace.CriticVerdicts)
	}
	if trace.Repaired {
		t.Fatal("no repair happened; trace.Repaired must stay false")
	}
}

// A repairable-only beam answers via the repaired query and says so in
// the trace.
func TestFinalizeCriticRepairedFallback(t *testing.T) {
	tr := criticTranslator(t, critic.Config{Seed: 1})
	anon := mustAnon(t, tr.PH, "show the names of all patients with age 80")

	typo := strings.Fields("SELECT nme FROM patients WHERE age = @PATIENTS.AGE")
	trace := &Trace{}
	q, err := finalizeBeam(tr, [][]string{typo}, anon.Bindings, trace)
	if err != nil || q == nil {
		t.Fatalf("Finalize = (%v, %v)", q, err)
	}
	if !strings.Contains(q.String(), "name") {
		t.Fatalf("repair did not fix the identifier: %s", q)
	}
	if !trace.Repaired {
		t.Fatalf("trace.Repaired = false, verdicts %v", trace.CriticVerdicts)
	}
}

// Any valid candidate beats any repaired one, regardless of beam order.
func TestFinalizeCriticValidBeatsRepaired(t *testing.T) {
	tr := criticTranslator(t, critic.Config{Seed: 1})
	anon := mustAnon(t, tr.PH, "show the names of all patients with age 80")

	typo := strings.Fields("SELECT nme FROM patients")
	good := strings.Fields("SELECT diagnosis FROM patients WHERE age = @PATIENTS.AGE")
	trace := &Trace{}
	q, err := finalizeBeam(tr, [][]string{typo, good}, anon.Bindings, trace)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.String(), "diagnosis") {
		t.Fatalf("valid candidate must beat earlier repaired one, got %s", q)
	}
	if trace.Repaired {
		t.Fatal("answered with the valid candidate; trace.Repaired must stay false")
	}
}

// A beam with nothing usable fails with the typed RejectedError
// carrying every verdict.
func TestFinalizeCriticRejectedError(t *testing.T) {
	tr := criticTranslator(t, critic.Config{Seed: 1})
	anon := mustAnon(t, tr.PH, "show the names of all patients with age 80")

	junk := strings.Fields("SELECT xqzw FROM patients")
	garbled := strings.Fields("WHERE WHERE ( SELECT")
	_, err := finalizeBeam(tr, [][]string{junk, garbled}, anon.Bindings, &Trace{})
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want *RejectedError", err)
	}
	if len(rej.Verdicts) != 2 {
		t.Fatalf("Verdicts = %v, want one per candidate", rej.Verdicts)
	}
	if !strings.Contains(err.Error(), "invalid") {
		t.Fatalf("error must summarize verdicts: %v", err)
	}
}

// When the hook denies (breaker open), the critic is skipped entirely
// and finalization degrades to the unvalidated path — answers keep
// flowing through an engine meltdown.
func TestFinalizeCriticHookDegrades(t *testing.T) {
	tr := criticTranslator(t, critic.Config{Seed: 1})
	hook := &recordingHook{veto: map[string]bool{CriticStage: true}}
	tr.Hook = hook
	anon := mustAnon(t, tr.PH, "show the names of all patients with age 80")

	good := strings.Fields("SELECT name FROM patients WHERE age = @PATIENTS.AGE")
	trace := &Trace{}
	q, err := finalizeBeam(tr, [][]string{good}, anon.Bindings, trace)
	if err != nil || q == nil {
		t.Fatalf("degraded finalize = (%v, %v)", q, err)
	}
	if got := strings.Join(hook.allows, ","); got != CriticStage || len(hook.records) != 0 {
		t.Fatalf("hook = %+v, want one critic Allow and no Record", hook)
	}
	if len(trace.CriticVerdicts) != 1 || !strings.HasPrefix(trace.CriticVerdicts[0], "skipped:") {
		t.Fatalf("CriticVerdicts = %v, want the skip note", trace.CriticVerdicts)
	}
}

// The hook's Record sees a non-nil error exactly when the sandbox
// itself failed — candidate rejections must not feed the breaker —
// and a sandbox failure degrades the candidate to an unvalidated
// answer instead of rejecting the request.
func TestFinalizeCriticHookRecordsInfraOnly(t *testing.T) {
	db := benchDB(t)
	tr := NewTranslator(db, oracleModel{})
	tr.Critic = critic.New(db, critic.Config{
		Seed: 1,
		Exec: func(q *sqlast.Query, budget int) (*engine.Result, error) { panic("injected engine panic") },
	})
	hook := &recordingHook{}
	tr.Hook = hook
	anon := mustAnon(t, tr.PH, "show the names of all patients with age 80")

	junk := strings.Fields("SELECT xqzw FROM patients")                            // rejected statically: infra nil
	sound := strings.Fields("SELECT name FROM patients WHERE age = @PATIENTS.AGE") // hits the panicking engine: infra set
	trace := &Trace{}
	q, err := finalizeBeam(tr, [][]string{junk, sound}, anon.Bindings, trace)
	if err != nil || q == nil || !strings.Contains(q.String(), "name") {
		t.Fatalf("sandbox failure must degrade, not reject: (%v, %v)", q, err)
	}
	if got := strings.Join(hook.records, ","); got != "critic:true,critic:false" {
		t.Fatalf("Record calls = %q, want a nil then an infra error", got)
	}
	if len(trace.CriticVerdicts) != 2 || !strings.HasPrefix(trace.CriticVerdicts[1], "sandbox_error") {
		t.Fatalf("CriticVerdicts = %v, want the sandbox failure on record", trace.CriticVerdicts)
	}
}

// A beam whose only statically-sound candidate dies in the sandbox
// still answers — but a genuinely valid candidate anywhere in the
// beam beats the degraded one.
func TestFinalizeCriticValidBeatsDegraded(t *testing.T) {
	db := benchDB(t)
	tr := NewTranslator(db, oracleModel{})
	tr.Critic = critic.New(db, critic.Config{
		Seed: 1,
		Exec: func(q *sqlast.Query, budget int) (*engine.Result, error) {
			if strings.Contains(q.String(), "diagnosis") {
				panic("injected engine panic")
			}
			return db.ExecuteBudget(q, budget)
		},
	})
	anon := mustAnon(t, tr.PH, "show the names of all patients with age 80")

	doomed := strings.Fields("SELECT diagnosis FROM patients")
	good := strings.Fields("SELECT name FROM patients WHERE age = @PATIENTS.AGE")
	q, err := finalizeBeam(tr, [][]string{doomed, good}, anon.Bindings, &Trace{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.String(), "name") {
		t.Fatalf("valid candidate must beat the sandbox-degraded one, got %s", q)
	}
}

// recordingExec is the real budgeted engine behind a critic, keeping
// every result it hands back.
type recordingExec struct {
	db      *engine.Database
	results []*engine.Result
}

func (r *recordingExec) exec(q *sqlast.Query, budget int) (*engine.Result, error) {
	res, err := r.db.ExecuteBudget(q, budget)
	if err == nil {
		r.results = append(r.results, res)
	}
	return res, err
}

// A dry-run that finishes inside the row budget is the answer's
// execution: Translate carries its result on the trace, it equals a
// fresh ExecuteContext of the answer, and Ask returns that very result
// instead of executing again.
func TestAskReusesDryRunResult(t *testing.T) {
	db := benchDB(t)
	rec := &recordingExec{db: db}
	tr := NewTranslator(db, oracleModel{})
	tr.Critic = critic.New(db, critic.Config{Seed: 1, Exec: rec.exec})
	ctx := context.Background()
	for _, v := range db.DistinctValues("patients", "age") {
		question := "show the names of all patients with age " + v.String()
		q, trace, err := tr.Translate(ctx, question)
		if err != nil {
			t.Fatalf("%q: %v", question, err)
		}
		if trace.Result == nil {
			t.Fatalf("%q: no dry-run result on the trace (verdicts %v)", question, trace.CriticVerdicts)
		}
		fresh, err := db.ExecuteContext(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(trace.Result, fresh) {
			t.Fatalf("%q: dry-run result %v, fresh execute %v", question, trace.Result, fresh)
		}
		res, _, err := tr.Ask(ctx, question)
		if err != nil {
			t.Fatal(err)
		}
		if last := rec.results[len(rec.results)-1]; res != last {
			t.Fatalf("%q: Ask executed again instead of answering with the dry-run's result", question)
		}
	}
}

// A dry-run the row budget cut short proves nothing about the rows:
// the trace carries no result and Ask executes the answer itself.
func TestAskExecutesTruncatedDryRun(t *testing.T) {
	db := benchDB(t)
	rec := &recordingExec{db: db}
	tr := NewTranslator(db, oracleModel{})
	tr.Critic = critic.New(db, critic.Config{Seed: 1, RowBudget: 5, Exec: rec.exec})
	ctx := context.Background()
	const question = "show the names of all patients with age 80"
	q, trace, err := tr.Translate(ctx, question)
	if err != nil {
		t.Fatal(err)
	}
	if trace.Result != nil || len(trace.CriticVerdicts) != 1 || !strings.Contains(trace.CriticVerdicts[0], "row budget") {
		t.Fatalf("Result %v, verdicts %v; want no result from a truncated dry-run", trace.Result, trace.CriticVerdicts)
	}
	res, _, err := tr.Ask(ctx, question)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := db.ExecuteContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Rows) == 0 || !reflect.DeepEqual(res, fresh) {
		t.Fatalf("Ask = %v, fresh execute %v", res, fresh)
	}
	if len(rec.results) != 0 {
		t.Fatalf("a dry-run finished inside a 5-row budget: %v", rec.results)
	}
}
