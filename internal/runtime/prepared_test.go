package runtime

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/models"
)

// TestPreprocessCanonicalizesConstants: the cache-key property — two
// questions differing only in constants preprocess to the same
// lemmatized token sequence, with the per-request constant carried in
// the bindings.
func TestPreprocessCanonicalizesConstants(t *testing.T) {
	tr := NewTranslator(benchDB(t), oracleModel{})
	anon80, nl80, err := tr.Preprocess("show the names of all patients with age 80")
	if err != nil {
		t.Fatal(err)
	}
	anon45, nl74, err := tr.Preprocess("show the names of all patients with age 45")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(nl80, nl74) {
		t.Fatalf("constant variations must share a key:\n  %v\n  %v", nl80, nl74)
	}
	if len(anon80.Bindings) != 1 || len(anon45.Bindings) != 1 {
		t.Fatalf("bindings = %v / %v, want one each", anon80.Bindings, anon45.Bindings)
	}
	if anon80.Bindings[0].Value.String() == anon45.Bindings[0].Value.String() {
		t.Fatal("bindings must carry the differing constants")
	}
	if _, _, err := tr.Preprocess(""); err == nil {
		t.Fatal("Preprocess must reject malformed questions")
	}
}

// TestTranslatePreparedMatchesTranslateTrace: the split pipeline is
// the whole pipeline — Preprocess + TranslatePrepared produces the
// same query, trace fields, and DecodeResult tier as Translate.
func TestTranslatePreparedMatchesTranslateTrace(t *testing.T) {
	question := "show the names of all patients with age 80"
	tr := NewTranslator(benchDB(t), oracleModel{})

	wantQ, wantTrace, err := tr.Translate(context.Background(), question)
	if err != nil {
		t.Fatal(err)
	}
	anon, nl, err := tr.Preprocess(question)
	if err != nil {
		t.Fatal(err)
	}
	trace := &Trace{Question: question}
	gotQ, dec, err := tr.TranslatePrepared(context.Background(), nl, anon.Bindings, trace)
	if err != nil {
		t.Fatal(err)
	}
	if gotQ.String() != wantQ.String() {
		t.Fatalf("split pipeline query %q != one-shot %q", gotQ, wantQ)
	}
	if dec == nil || dec.Tier != wantTrace.Tier || dec.Tier != "oracle" {
		t.Fatalf("DecodeResult = %+v, want tier oracle", dec)
	}
	if len(dec.Candidates) == 0 || !reflect.DeepEqual(dec.Candidates[0], trace.ModelOut) {
		t.Fatalf("DecodeResult.Candidates = %v, trace.ModelOut = %v", dec.Candidates, trace.ModelOut)
	}
	if trace.Final == nil || trace.Tier != "oracle" {
		t.Fatalf("trace not populated: %+v", trace)
	}
}

// TestTranslatePreparedReplay: a DecodeResult decoded for one
// request's constants finalizes under another request's bindings —
// the cache's core replay property — without consulting the model or
// the tier hook.
func TestTranslatePreparedReplay(t *testing.T) {
	tr := NewTranslator(benchDB(t), oracleModel{})
	anon80, nl, err := tr.Preprocess("show the names of all patients with age 80")
	if err != nil {
		t.Fatal(err)
	}
	_, dec, err := tr.TranslatePrepared(context.Background(), nl, anon80.Bindings, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Replay for the age-45 request: same decode, different constant.
	anon45, _, err := tr.Preprocess("show the names of all patients with age 45")
	if err != nil {
		t.Fatal(err)
	}
	tr.Model = panicModel{} // the model must not be consulted on replay
	hook := &vetoHook{}
	tr.Hook = hook
	trace := &Trace{}
	q, err := tr.Finalize(context.Background(), dec, anon45.Bindings, trace)
	if err != nil {
		t.Fatalf("replay failed: %v", err)
	}
	if !strings.Contains(q.String(), "45") {
		t.Fatalf("replayed query must carry the new constant: %s", q)
	}
	if trace.Tier != "oracle" || !reflect.DeepEqual(trace.ModelOut, dec.Candidates[0]) {
		t.Fatalf("trace tier/model out = %q/%v, want the cached decode's", trace.Tier, trace.ModelOut)
	}
	if hook.allowed != 0 || hook.recorded != 0 {
		t.Fatalf("hook consulted on replay: %+v", hook)
	}
}

// vetoHook counts consultations (replay must make none).
type vetoHook struct{ allowed, recorded int }

func (h *vetoHook) Allow(string) error   { h.allowed++; return nil }
func (h *vetoHook) Record(string, error) { h.recorded++ }

// TestTranslatePreparedStaleCandidates: replayed candidates that no
// longer finalize fail Finalize without walking the fallback chain,
// so the caller can re-decode at full strength.
func TestTranslatePreparedStaleCandidates(t *testing.T) {
	tr := NewTranslator(benchDB(t), oracleModel{})
	tr.Fallbacks = []models.Translator{oracleModel{}}
	stale := &DecodeResult{Tier: "oracle", Candidates: [][]string{strings.Fields("WHERE WHERE ( SELECT")}}
	anon, nl, err := tr.Preprocess("show the names of all patients with age 80")
	if err != nil {
		t.Fatal(err)
	}
	trace := &Trace{}
	if _, err := tr.Finalize(context.Background(), stale, anon.Bindings, trace); err == nil {
		t.Fatal("stale candidates must fail to finalize")
	}
	if trace.Tier != "" || len(trace.TierErrors) != 0 || trace.ModelOut != nil {
		t.Fatalf("stale replay must not walk the chain or claim a tier: %+v", trace)
	}
	// Fresh decode recovers.
	q, _, err := tr.TranslatePrepared(context.Background(), nl, anon.Bindings, nil)
	if err != nil || q == nil {
		t.Fatalf("fresh decode after stale = (%v, %v)", q, err)
	}
}

// TestFinalizeCandidatesContract: exported finalization recovers
// panics, rejects empty input, and without a critic skips to the
// first candidate that parses and post-processes.
func TestFinalizeCandidatesContract(t *testing.T) {
	tr := NewTranslator(benchDB(t), oracleModel{})
	anon := mustAnon(t, tr.PH, "show the names of all patients with age 80")

	if _, err := tr.Finalize(context.Background(), nil, anon.Bindings, nil); err == nil {
		t.Fatal("a nil DecodeResult must error")
	}
	if _, err := finalizeBeam(tr, nil, anon.Bindings, nil); err == nil {
		t.Fatal("empty candidates must error")
	}
	good := strings.Fields("SELECT name FROM patients WHERE age = @PATIENTS.AGE")
	q, err := finalizeBeam(tr, [][]string{good}, anon.Bindings, nil)
	if err != nil || !strings.Contains(q.String(), "80") {
		t.Fatalf("Finalize = (%v, %v)", q, err)
	}
	// Ranked beam: the unparsable first candidate is skipped.
	bad := strings.Fields("WHERE WHERE ( SELECT")
	q, err = finalizeBeam(tr, [][]string{bad, good}, anon.Bindings, nil)
	if err != nil || q == nil {
		t.Fatalf("ranked finalize = (%v, %v)", q, err)
	}
	// A nil-query panic path inside PostProcess must be contained.
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Finalize leaked a panic: %v", r)
		}
	}()
	_, _ = finalizeBeam(tr, [][]string{nil, good}, anon.Bindings, nil)
}
