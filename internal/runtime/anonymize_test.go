package runtime

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/critic"
	"repro/internal/engine"
	"repro/internal/models"
	"repro/internal/patients"
	"repro/internal/spider"
)

// TestAnonymizeAdversarialInputs drives the Parameter Handler with the
// input shapes a public endpoint sees: multi-byte unicode, embedded
// quotes, control bytes, invalid UTF-8, and pathological lengths.
// Malformed input must come back as a typed *ValidationError; valid
// input must anonymize without panicking, whatever it looks like.
func TestAnonymizeAdversarialInputs(t *testing.T) {
	ph := NewParameterHandler(benchDB(t))
	for _, tc := range adversarialCases {
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
// serving layer can map them to 400s.
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

// recordingHook is a Hook that vetoes configured stages and records
// every Allow/Record call; a record reads "name:true" when the stage
// was not charged (infra == nil).
type recordingHook struct {
	veto    map[string]bool
	allows  []string
	records []string
}

func (h *recordingHook) Allow(name string) error {
	h.allows = append(h.allows, name)
	if h.veto[name] {
		return fmt.Errorf("circuit open")
	}
	return nil
}

func (h *recordingHook) Record(name string, infra error) {
	h.records = append(h.records, fmt.Sprintf("%s:%v", name, infra == nil))
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

// TestTierHookRecordsFailures: a tier that ran and failed the
// question — no output, unparsable output — is recorded without an
// infrastructure error: it is a verdict on the question, and must not
// feed the breaker's failure-rate window.
func TestTierHookRecordsFailures(t *testing.T) {
	tr := NewTranslator(benchDB(t), nilModel{})
	tr.Fallbacks = []models.Translator{gibberishModel{}, oracleModel{}}
	hook := &recordingHook{}
	tr.Hook = hook
	if _, _, err := tr.Translate(context.Background(), "show the names of all patients with age 80"); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(hook.records, ","); got != "nil:true,gibberish:true,oracle:true" {
		t.Fatalf("Record calls = %q", got)
	}
}

// TestHookChargesOnlyInfraFailures: a tier is charged exactly when its
// model call panicked or overran Translator.Deadline while the
// request was still live. A request cancelled or expired mid-decode
// charges nothing — the request ended, the tier did not fail — and
// neither does a beam the critic rejects (its review is recorded
// first, from inside the tier).
func TestHookChargesOnlyInfraFailures(t *testing.T) {
	const q = "show the names of all patients with age 80"
	gate := func() *gateModel {
		m := &gateModel{started: make(chan struct{}, 1), gate: make(chan struct{})}
		t.Cleanup(func() { close(m.gate) })
		return m
	}
	overrun, cancelled, expired := gate(), gate(), gate()
	cases := []struct {
		name     string
		model    models.Translator
		deadline time.Duration
		ctx      func() (context.Context, context.CancelFunc)
		critic   bool
		want     string
	}{
		{name: "panic", model: panicModel{}, want: "panic:false"},
		{name: "overran Deadline", model: overrun, deadline: 10 * time.Millisecond, want: "gate:false"},
		{name: "request cancelled mid-decode", model: cancelled, deadline: time.Hour, ctx: func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			go func() { <-cancelled.started; cancel() }()
			return ctx, cancel
		}, want: "gate:true"},
		{name: "request expired mid-decode", model: expired, deadline: time.Hour, ctx: func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 10*time.Millisecond)
		}, want: "gate:true"},
		{name: "critic rejected", model: junkModel{}, critic: true, want: "critic:true,junk:true"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := benchDB(t)
			tr := NewTranslator(db, tc.model)
			tr.Deadline = tc.deadline
			if tc.critic {
				tr.Critic = critic.New(db, critic.Config{Seed: 1})
			}
			hook := &recordingHook{}
			tr.Hook = hook
			ctx, cancel := context.Background(), context.CancelFunc(func() {})
			if tc.ctx != nil {
				ctx, cancel = tc.ctx()
			}
			defer cancel()
			if _, _, err := tr.Translate(ctx, q); err == nil {
				t.Fatal("the tier must fail the question")
			}
			if got := strings.Join(hook.records, ","); got != tc.want {
				t.Fatalf("Record calls = %q, want %q", got, tc.want)
			}
		})
	}
}

// junkModel emits SQL that parses but names no column of the schema,
// so the critic rejects it.
type junkModel struct{}

func (junkModel) Name() string           { return "junk" }
func (junkModel) Train([]models.Example) {}
func (junkModel) Translate(nl, st []string) []string {
	return strings.Fields("SELECT xqzw FROM patients")
}

// gateModel reports each decode's start on started and then blocks
// until gate closes.
type gateModel struct {
	started chan struct{}
	gate    chan struct{}
}

func (*gateModel) Name() string           { return "gate" }
func (*gateModel) Train([]models.Example) {}
func (m *gateModel) Translate(nl, st []string) []string {
	select {
	case m.started <- struct{}{}:
	default:
	}
	<-m.gate
	return nil
}

// adversarialCases are the input shapes a public endpoint sees:
// multi-byte unicode, embedded quotes, control bytes, invalid UTF-8,
// and pathological lengths.
var adversarialCases = []struct {
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

// boundWorkload returns n spider.Workload questions over db's schema
// with every placeholder replaced by a value drawn from its column,
// as a client types them.
func boundWorkload(db *engine.Database, n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var out []string
	for _, q := range spider.Workload(db.Schema, n, seed) {
		toks := strings.Fields(q.NL)
		for i, tok := range toks {
			table, col, ok := strings.Cut(strings.TrimPrefix(tok, "@"), ".")
			if !ok || !strings.HasPrefix(tok, "@") {
				continue
			}
			if vals := db.DistinctValues(strings.ToLower(table), strings.ToLower(col)); len(vals) > 0 {
				toks[i] = vals[rng.Intn(len(vals))].String()
			}
		}
		out = append(out, strings.Join(toks, " "))
	}
	return out
}

// referenceDBs are the databases FuzzAnonymizeMatchesReference
// compares on: the served Patients database and a generated spider
// schema at the served 40 rows.
var referenceDBs = sync.OnceValues(func() ([]*engine.Database, error) {
	pdb, err := patients.Database()
	if err != nil {
		return nil, err
	}
	fdb, err := engine.GenerateData(spider.SchemaByName("flights"), 40, 1)
	if err != nil {
		return nil, err
	}
	return []*engine.Database{pdb, fdb}, nil
})

// FuzzAnonymizeMatchesReference holds Anonymize to the span scan it
// replaced (refAnonymize): the same tokens, bindings and errors for
// every question. The seed corpus is bound spider.Workload questions
// over both handlers' schemas, the 399 Patients-benchmark questions
// and the adversarial inputs.
func FuzzAnonymizeMatchesReference(f *testing.F) {
	dbs, err := referenceDBs()
	if err != nil {
		f.Fatal(err)
	}
	var phs []*ParameterHandler
	for _, db := range dbs {
		phs = append(phs, NewParameterHandler(db))
		for _, q := range boundWorkload(db, 150, 7) {
			f.Add(q)
		}
	}
	for _, c := range patients.Cases() {
		f.Add(c.NL)
	}
	for _, tc := range adversarialCases {
		f.Add(tc.question)
	}
	// Every spelling strconv.ParseFloat accepts, next to words that
	// merely start like one.
	for _, q := range []string{
		"patients aged inf", "age +Inf or -infinity", "age NaN please", "nancy and ingrid",
		"age .5 or -3 or +7", "age 1e3 and 1E-2", "age 0x1p3 or 0x_1p0", "age 1_000 or 08",
		"show the top 3 patients", "first 80", "- + . e",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, question string) {
		for _, ph := range phs {
			got, gerr := ph.Anonymize(question)
			want, werr := refAnonymize(ph, question)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("%q: err = %v, reference %v", question, gerr, werr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%q:\n  got       %+v\n  reference %+v", question, got, want)
			}
		}
	})
}

// BenchmarkAnonymize times the Parameter Handler on bound spider
// questions over the served Patients database, one question per op:
//
//	go test -run '^$' -bench BenchmarkAnonymize ./internal/runtime/
func BenchmarkAnonymize(b *testing.B) {
	db, err := patients.Database()
	if err != nil {
		b.Fatal(err)
	}
	ph := NewParameterHandler(db)
	qs := boundWorkload(db, 200, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ph.Anonymize(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}
