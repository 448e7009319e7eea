package runtime

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/models"
)

// TestAnonymizeAdversarialInputs drives the Parameter Handler with the
// input shapes a public endpoint sees: multi-byte unicode, embedded
// quotes, control bytes, invalid UTF-8, and pathological lengths.
// Malformed input must come back as a typed *ValidationError; valid
// input must anonymize without panicking, whatever it looks like.
func TestAnonymizeAdversarialInputs(t *testing.T) {
	ph := NewParameterHandler(benchDB(t))
	cases := []struct {
		name     string
		question string
		invalid  bool   // want a *ValidationError
		reason   string // substring of the validation reason
	}{
		{name: "empty", question: "", invalid: true, reason: "empty"},
		{name: "whitespace only", question: " \t\n ", invalid: true, reason: "empty"},
		{name: "invalid utf8", question: "show patients \xff\xfe aged 80", invalid: true, reason: "UTF-8"},
		{name: "nul byte", question: "show\x00patients", invalid: true, reason: "control"},
		{name: "escape byte", question: "patients \x1b[31m aged 80", invalid: true, reason: "control"},
		{name: "over token cap", question: strings.Repeat("age ", DefaultMaxQuestionTokens+1), invalid: true, reason: "limit"},
		{name: "multi-byte unicode", question: "пациенты mit Grippe 患者 show patients"},
		{name: "combining marks", question: "show pat́ients with äge 80"},
		{name: "emoji", question: "show patients 🏥 with age 80"},
		{name: "embedded single quotes", question: "show patients named 'alice johnson'"},
		{name: "embedded double quotes", question: `show patients with diagnosis "influenza"`},
		{name: "sql injection shape", question: "'; DROP TABLE patients; --"},
		{name: "placeholder soup", question: "@@@ @PATIENTS.AGE @ @. @X.Y.Z"},
		{name: "at cap", question: strings.TrimSpace(strings.Repeat("age ", DefaultMaxQuestionTokens))},
		{name: "long words", question: strings.Repeat("a", 10000) + " " + strings.Repeat("ü", 10000)},
		{name: "newlines and tabs", question: "show\tthe names\nof all patients"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			anon, err := ph.Anonymize(tc.question)
			if tc.invalid {
				var verr *ValidationError
				if !errors.As(err, &verr) {
					t.Fatalf("err = %v, want *ValidationError", err)
				}
				if !strings.Contains(verr.Reason, tc.reason) {
					t.Fatalf("reason = %q, want substring %q", verr.Reason, tc.reason)
				}
				return
			}
			if err != nil {
				t.Fatalf("valid input rejected: %v", err)
			}
			if len(anon.Tokens) == 0 {
				t.Fatal("valid input produced no tokens")
			}
		})
	}
}

// TestAnonymizeQuotedConstantStillBinds checks that surrounding quotes
// do not defeat constant matching — the tokenizer strips them and the
// value index still sees the span.
func TestAnonymizeQuotedConstantStillBinds(t *testing.T) {
	ph := NewParameterHandler(benchDB(t))
	anon := mustAnon(t, ph, "how many patients have diagnosis 'influenza'")
	if len(anon.Bindings) != 1 || anon.Bindings[0].Value.Str != "influenza" {
		t.Fatalf("quoted constant not bound: %+v", anon.Bindings)
	}
}

// TestAnonymizeMaxTokensConfigurable checks the per-handler override.
func TestAnonymizeMaxTokensConfigurable(t *testing.T) {
	ph := NewParameterHandler(benchDB(t))
	ph.MaxTokens = 4
	if _, err := ph.Anonymize("show the names of all patients"); err == nil {
		t.Fatal("question over the configured cap must be rejected")
	}
	if _, err := ph.Anonymize("count all patients"); err != nil {
		t.Fatalf("question under the cap rejected: %v", err)
	}
}

// TestTranslateValidationErrorIsTyped checks that malformed questions
// surface the typed error through the whole Translate path, so the
// serving layer can map them to 400s and never retry them.
func TestTranslateValidationErrorIsTyped(t *testing.T) {
	tr := NewTranslator(benchDB(t), oracleModel{})
	for _, q := range []string{"", "   ", "bad \xff utf8", "nul\x00byte"} {
		_, _, err := tr.Translate(context.Background(), q)
		var verr *ValidationError
		if !errors.As(err, &verr) {
			t.Fatalf("TranslateTrace(%q) err = %v, want *ValidationError", q, err)
		}
	}
}

// recordingHook is a TierHook that vetoes configured tiers and records
// every Allow/Record call.
type recordingHook struct {
	veto    map[string]bool
	allows  []string
	records []string
}

func (h *recordingHook) Allow(tier string) error {
	h.allows = append(h.allows, tier)
	if h.veto[tier] {
		return fmt.Errorf("circuit open")
	}
	return nil
}

func (h *recordingHook) Record(tier string, err error) {
	h.records = append(h.records, fmt.Sprintf("%s:%v", tier, err == nil))
}

// TestTierHookGatesAndObserves: a vetoed primary is skipped without
// running (its deadline is never paid), the fallback answers, and the
// hook sees exactly the tiers that ran.
func TestTierHookGatesAndObserves(t *testing.T) {
	db := benchDB(t)
	tr := NewTranslator(db, panicModel{})
	tr.Fallbacks = []models.Translator{oracleModel{}}
	hook := &recordingHook{veto: map[string]bool{"panic": true}}
	tr.Hook = hook

	q, trace, err := tr.Translate(context.Background(), "show the names of all patients with age 80")
	if err != nil {
		t.Fatalf("vetoed primary must fall through: %v", err)
	}
	if trace.Tier != "oracle" {
		t.Fatalf("Trace.Tier = %q, want oracle", trace.Tier)
	}
	if len(trace.TierErrors) != 1 || !strings.Contains(trace.TierErrors[0], "skipped: circuit open") {
		t.Fatalf("TierErrors = %v, want skip record", trace.TierErrors)
	}
	if got := strings.Join(hook.allows, ","); got != "panic,oracle" {
		t.Fatalf("Allow calls = %q", got)
	}
	// Only the tier that ran is recorded — the vetoed tier never was.
	if got := strings.Join(hook.records, ","); got != "oracle:true" {
		t.Fatalf("Record calls = %q", got)
	}
	if q == nil {
		t.Fatal("no query from fallback")
	}
}

// TestTierHookAllVetoedErrors: when the hook vetoes every tier, the
// question fails with the first skip error instead of succeeding
// silently.
func TestTierHookAllVetoedErrors(t *testing.T) {
	tr := NewTranslator(benchDB(t), oracleModel{})
	tr.Hook = &recordingHook{veto: map[string]bool{"oracle": true}}
	_, trace, err := tr.Translate(context.Background(), "show the names of all patients")
	if err == nil || !strings.Contains(err.Error(), "skipped") {
		t.Fatalf("err = %v, want skip error", err)
	}
	if len(trace.TierErrors) != 1 {
		t.Fatalf("TierErrors = %v", trace.TierErrors)
	}
}

// TestTierHookRecordsFailures: a failing tier that ran is recorded as
// a failure, feeding the breaker's failure-rate window.
func TestTierHookRecordsFailures(t *testing.T) {
	tr := NewTranslator(benchDB(t), nilModel{})
	tr.Fallbacks = []models.Translator{oracleModel{}}
	hook := &recordingHook{}
	tr.Hook = hook
	if _, _, err := tr.Translate(context.Background(), "show the names of all patients with age 80"); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(hook.records, ","); got != "nil:false,oracle:true" {
		t.Fatalf("Record calls = %q", got)
	}
}
