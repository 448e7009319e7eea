package serve

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/critic"
	"repro/internal/models"
	"repro/internal/runtime"
	"repro/internal/sqlast"
)

// newHTTPServer exposes an assembled Server over a test listener.
func newHTTPServer(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// criticServer wires a test server whose translator finalizes through
// a critic with the given sandbox executor (nil = the real engine).
func criticServer(t *testing.T, model models.Translator, cfg Config, exec func(*sqlast.Query, int) error) (*Server, string) {
	t.Helper()
	db := testDB(t)
	tr := runtime.NewTranslator(db, model)
	tr.Critic = critic.New(db, critic.Config{Seed: 1, Exec: exec})
	s := newServer(tr, cfg)
	ts := newHTTPServer(t, s)
	return s, ts
}

// countingModel wraps a model and counts decodes.
type countingModel struct {
	inner models.Translator
	calls atomic.Int64
}

func (m *countingModel) Name() string           { return m.inner.Name() }
func (m *countingModel) Train([]models.Example) {}
func (m *countingModel) Translate(nl, st []string) []string {
	m.calls.Add(1)
	return m.inner.Translate(nl, st)
}

// A beam the critic rejects end to end must surface as the typed
// tier_exhausted 502 carrying the verdicts — not a generic 500 — and
// candidate rejections must not move the critic breaker.
func TestCriticRejectionIsTierExhausted(t *testing.T) {
	execFail := func(q *sqlast.Query, budget int) error {
		return errors.New("synthetic execution failure")
	}
	s, ts := criticServer(t, oracleModel{}, Config{Workers: 2}, execFail)

	var env errorEnvelope
	status := getJSON(t, ts+"/v1/patients/ask?q="+urlQuery(goodQuestion), &env)
	if status != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", status)
	}
	if env.Error.Kind != KindTierExhausted {
		t.Fatalf("kind = %q, want %q", env.Error.Kind, KindTierExhausted)
	}
	if !strings.Contains(env.Error.Message, "exec_failed") {
		t.Fatalf("message = %q, want the critic verdict summary", env.Error.Message)
	}
	if got := s.Snapshot().Tenants["patients"].CriticBreaker; got != "closed" {
		t.Fatalf("critic breaker = %q after candidate rejections, want closed", got)
	}
}

// An engine meltdown under the critic never takes the tenant down:
// every request still answers (unvalidated) while sandbox failures
// accumulate, and once MinSamples failures fill the window the critic
// breaker opens so later requests skip the sandbox entirely.
func TestCriticBreakerMeltdownDegrades(t *testing.T) {
	execPanic := func(q *sqlast.Query, budget int) error {
		panic("injected engine meltdown")
	}
	s, ts := criticServer(t, oracleModel{}, Config{Workers: 1}, execPanic)

	for i := 0; i < 4; i++ {
		var resp map[string]any
		if status := getJSON(t, ts+"/v1/patients/ask?q="+urlQuery(goodQuestion), &resp); status != http.StatusOK {
			t.Fatalf("request %d: status = %d, want 200 via degradation (resp %v)", i, status, resp)
		}
	}
	snap := s.Snapshot().Tenants["patients"]
	if snap.CriticBreaker != "open" {
		t.Fatalf("critic breaker = %q after sustained sandbox failure, want open", snap.CriticBreaker)
	}
	if snap.Critic == nil || snap.Critic.Sandbox < 4 {
		t.Fatalf("critic stats = %+v, want >= 4 sandbox failures", snap.Critic)
	}
	// Breaker open: the sandbox is no longer consulted, answers keep
	// flowing, and the sandbox-failure count stops climbing.
	var resp map[string]any
	if status := getJSON(t, ts+"/v1/patients/ask?q="+urlQuery(goodQuestion), &resp); status != http.StatusOK {
		t.Fatalf("post-trip status = %d, want 200 (resp %v)", status, resp)
	}
	after := s.Snapshot().Tenants["patients"]
	if after.Critic.Sandbox != snap.Critic.Sandbox {
		t.Fatalf("sandbox failures grew %d -> %d with the breaker open; critic was not skipped",
			snap.Critic.Sandbox, after.Critic.Sandbox)
	}
}

// A cache hit whose re-bound constants fail validation falls back to
// exactly one fresh decode instead of failing the request.
func TestCriticCacheStaleFallsBackToFreshDecode(t *testing.T) {
	db := testDB(t)
	model := &countingModel{inner: oracleModel{}}
	tr := runtime.NewTranslator(db, model)
	var failedOnce atomic.Bool
	tr.Critic = critic.New(db, critic.Config{
		Seed: 1,
		Exec: func(q *sqlast.Query, budget int) error {
			// The replayed candidates bind 45; reject them exactly once.
			if strings.Contains(q.String(), "= 45") && failedOnce.CompareAndSwap(false, true) {
				return errors.New("re-bound constants fail validation")
			}
			_, err := db.ExecuteBudget(q, budget)
			return err
		},
	})
	s := newServer(tr, Config{Workers: 2, CacheSize: 32})
	ts := newHTTPServer(t, s)

	// Leader: decodes, validates with constant 80, populates the cache.
	var first map[string]any
	if status := getJSON(t, ts+"/v1/patients/ask?q="+urlQuery(goodQuestion), &first); status != http.StatusOK {
		t.Fatalf("leader status = %d (resp %v)", status, first)
	}
	if model.calls.Load() != 1 {
		t.Fatalf("leader decodes = %d, want 1", model.calls.Load())
	}

	// Same shape, different constant: cache hit, replay fails critic
	// validation, one fresh decode answers.
	var second map[string]any
	status := getJSON(t, ts+"/v1/patients/ask?q="+urlQuery("show the names of all patients with age 45"), &second)
	if status != http.StatusOK {
		t.Fatalf("stale-replay status = %d, want 200 via fresh decode (resp %v)", status, second)
	}
	sql, _ := second["sql"].(string)
	if !strings.Contains(sql, "45") {
		t.Fatalf("answer sql = %q, want the re-bound constant", sql)
	}
	if model.calls.Load() != 2 {
		t.Fatalf("decodes = %d, want exactly one fresh decode after the stale replay", model.calls.Load())
	}
	if !failedOnce.Load() {
		t.Fatal("the injected validation failure never fired; test proved nothing")
	}
}
