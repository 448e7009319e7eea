package runtime

import (
	"context"
	"strings"
	"testing"

	"repro/internal/models"
)

// nilModel produces no output at all — the shape of an untrained or
// broken model.
type nilModel struct{}

func (nilModel) Name() string                       { return "nil" }
func (nilModel) Train([]models.Example)             {}
func (nilModel) Translate(nl, st []string) []string { return nil }

// gibberishModel emits tokens no candidate of which parses as SQL.
type gibberishModel struct{}

func (gibberishModel) Name() string           { return "gibberish" }
func (gibberishModel) Train([]models.Example) {}
func (gibberishModel) Translate(nl, st []string) []string {
	return strings.Fields("WHERE WHERE ( SELECT")
}

// panicModel panics on every translate call.
type panicModel struct{}

func (panicModel) Name() string           { return "panic" }
func (panicModel) Train([]models.Example) {}
func (panicModel) Translate(nl, st []string) []string {
	panic("panicModel always panics")
}

func TestAskEmptyQuestionErrors(t *testing.T) {
	tr := NewTranslator(benchDB(t), oracleModel{})
	for _, q := range []string{"", "   ", "\t\n"} {
		_, _, err := tr.Ask(context.Background(), q)
		if err == nil {
			t.Fatalf("Ask(%q) must error", q)
		}
		if !strings.Contains(err.Error(), "empty question") {
			t.Fatalf("Ask(%q) error = %v, want empty-question error", q, err)
		}
	}
}

func TestAskNoOutputErrors(t *testing.T) {
	tr := NewTranslator(benchDB(t), nilModel{})
	_, _, err := tr.Ask(context.Background(), "show patients with age 80")
	if err == nil {
		t.Fatal("nil model output must error, not panic")
	}
	if !strings.Contains(err.Error(), "produced no output") {
		t.Fatalf("error = %v, want produced-no-output", err)
	}
}

func TestAskUnparsableCandidatesError(t *testing.T) {
	tr := NewTranslator(benchDB(t), gibberishModel{})
	_, _, err := tr.Ask(context.Background(), "show patients with age 80")
	if err == nil {
		t.Fatal("unparsable candidates must error, not panic")
	}
}

func TestAskPanickingModelIsContained(t *testing.T) {
	tr := NewTranslator(benchDB(t), panicModel{})
	_, _, err := tr.Ask(context.Background(), "show patients with age 80")
	if err == nil {
		t.Fatal("model panic must surface as an error")
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("error = %v, want contained panic", err)
	}
}

func TestAskMalformedQuestionNeverPanics(t *testing.T) {
	tr := NewTranslator(benchDB(t), oracleModel{})
	for _, q := range []string{
		"@@@ ??? !!!",
		"'; DROP TABLE patients; --",
		strings.Repeat("age ", 200),
		"\x00\x01\x02",
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Ask(%q) panicked: %v", q, r)
				}
			}()
			// The answer may be wrong or an error; it must not panic.
			_, _, _ = tr.Ask(context.Background(), q)
		}()
	}
}

func TestFallbackChainOrderAndTrace(t *testing.T) {
	tr := NewTranslator(benchDB(t), gibberishModel{})
	tr.Fallbacks = []models.Translator{nilModel{}, oracleModel{}}
	q, trace, err := tr.Translate(context.Background(), "show the names of all patients with age 80")
	if err != nil {
		t.Fatalf("fallback chain should recover: %v", err)
	}
	if trace.Tier != "oracle" {
		t.Fatalf("trace.Tier = %q, want the succeeding tier", trace.Tier)
	}
	if len(trace.TierErrors) != 2 {
		t.Fatalf("trace.TierErrors = %v, want one entry per failed tier", trace.TierErrors)
	}
	if !strings.Contains(trace.TierErrors[0], "gibberish") ||
		!strings.Contains(trace.TierErrors[1], "nil") {
		t.Fatalf("tier errors out of order: %v", trace.TierErrors)
	}
	if !strings.Contains(q.String(), "age = 80") {
		t.Fatalf("unexpected query: %s", q)
	}
}

func TestTranslateContextCancelled(t *testing.T) {
	tr := NewTranslator(benchDB(t), oracleModel{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := tr.Translate(ctx, "show patients with age 80")
	if err == nil {
		t.Fatal("cancelled context must error")
	}
}
