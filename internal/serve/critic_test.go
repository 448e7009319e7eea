package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/critic"
	"repro/internal/engine"
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
func criticServer(t *testing.T, model models.Translator, cfg Config, exec func(*sqlast.Query, int) (*engine.Result, error)) (*Server, string) {
	t.Helper()
	db := testDB(t)
	tr := runtime.NewTranslator(db, model)
	tr.Critic = critic.New(db, critic.Config{Seed: 1, Exec: exec})
	s := newServer(tr, cfg)
	ts := newHTTPServer(t, s)
	return s, ts
}

// countingModel wraps a model and counts decodes, beam decodes
// included; only a runtime.KTranslator may be asked for a beam.
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
func (m *countingModel) TranslateK(nl, st []string, k int) [][]string {
	m.calls.Add(1)
	return m.inner.(runtime.KTranslator).TranslateK(nl, st, k)
}

// A beam the critic rejects end to end must surface as the typed
// tier_exhausted 502 carrying the verdicts — not a generic 500 — and
// candidate rejections must not move the critic breaker.
func TestCriticRejectionIsTierExhausted(t *testing.T) {
	execFail := func(q *sqlast.Query, budget int) (*engine.Result, error) {
		return nil, errors.New("synthetic execution failure")
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
	if got := s.Snapshot().Tenants["patients"].Breakers["critic"]; got != "closed" {
		t.Fatalf("critic breaker = %q after candidate rejections, want closed", got)
	}
}

// An engine meltdown under the critic never takes the tenant down:
// every request still answers (unvalidated) while sandbox failures
// accumulate, and once MinSamples failures fill the window the critic
// breaker opens so later requests skip the sandbox entirely.
func TestCriticBreakerMeltdownDegrades(t *testing.T) {
	execPanic := func(q *sqlast.Query, budget int) (*engine.Result, error) {
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
	if got := snap.Breakers["critic"]; got != "open" {
		t.Fatalf("critic breaker = %q after sustained sandbox failure, want open", got)
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
		Exec: func(q *sqlast.Query, budget int) (*engine.Result, error) {
			// The replayed candidates bind 45; reject them exactly once.
			if strings.Contains(q.String(), "= 45") && failedOnce.CompareAndSwap(false, true) {
				return nil, errors.New("re-bound constants fail validation")
			}
			return db.ExecuteBudget(q, budget)
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

// /ask answers with the critic's dry-run result when the dry-run ran
// the query to completion; its rows must be exactly what a fresh
// execute of the answered SQL renders, with and without the cache.
func TestAskReusedRowsMatchFreshExecute(t *testing.T) {
	db := testDB(t)
	for _, cacheSize := range []int{0, 32} {
		tr := runtime.NewTranslator(db, oracleModel{})
		tr.Critic = critic.New(db, critic.Config{Seed: 1})
		ts := newHTTPServer(t, newServer(tr, Config{Workers: 2, CacheSize: cacheSize}))
		for _, v := range db.DistinctValues("patients", "age") {
			var resp askResponse
			if status := getJSON(t, ts+"/v1/patients/ask?q="+urlQuery("show the names of all patients with age "+v.String()), &resp); status != http.StatusOK {
				t.Fatalf("age %s: status %d", v, status)
			}
			fresh, err := db.ExecuteContext(context.Background(), sqlast.MustParse(resp.SQL))
			if err != nil {
				t.Fatal(err)
			}
			want := [][]string(nil)
			for _, row := range fresh.Rows {
				var cells []string
				for _, c := range row {
					cells = append(cells, c.String())
				}
				want = append(want, cells)
			}
			if !reflect.DeepEqual(resp.Columns, fresh.Columns) || !reflect.DeepEqual(resp.Rows, want) {
				t.Fatalf("cache %d, age %s: /ask gave %v %v, fresh execute %v %v", cacheSize, v, resp.Columns, resp.Rows, fresh.Columns, want)
			}
		}
	}
}

// A query whose dry-run the row budget truncated has no reusable
// result: /ask executes it itself, under the request deadline, and
// answers with the full rows. (TestAskRunawayExecuteTimesOut is the
// same path meeting a query that outlives the deadline.)
func TestAskTruncatedDryRunExecutesUnderDeadline(t *testing.T) {
	db := crossJoinDB(t, 20) // 8000 rows in the cross product
	tr := runtime.NewTranslator(db, crossJoinModel{})
	tr.Critic = critic.New(db, critic.Config{RowBudget: 1000})
	h := newServer(tr, Config{Workers: 1, DisableBreakers: true}).Handler()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/wide/ask?timeout_ms=10000&q=how+many+rows", nil))
	var resp askResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || w.Code != http.StatusOK {
		t.Fatalf("status %d body %q: %v", w.Code, w.Body.String(), err)
	}
	if len(resp.Rows) != 1 || len(resp.Rows[0]) != 1 || resp.Rows[0][0] != "8000" {
		t.Fatalf("rows = %v, want the full count 8000", resp.Rows)
	}
}
