package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/boot"
	"repro/internal/engine"
	"repro/internal/models"
	"repro/internal/patients"
	"repro/internal/runtime"
)

func testDB(t *testing.T) *engine.Database {
	t.Helper()
	db, err := patients.Database()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// oracleModel always emits a correct anonymized query, isolating the
// serving stack from model quality.
type oracleModel struct{}

func (oracleModel) Name() string           { return "oracle" }
func (oracleModel) Train([]models.Example) {}
func (oracleModel) Translate(nl, st []string) []string {
	return strings.Fields("SELECT name FROM patients WHERE age = @PATIENTS.AGE")
}

// failModel panics on every question — an infrastructure failure,
// which its tier breaker counts — and counts calls, so tests can prove
// a tripped breaker stops routing to it.
type failModel struct{ calls atomic.Int64 }

func (*failModel) Name() string           { return "fail" }
func (*failModel) Train([]models.Example) {}
func (m *failModel) Translate(nl, st []string) []string {
	m.calls.Add(1)
	panic("failModel always panics")
}

// blockModel parks every Translate call on a gate until the test
// releases it, then answers like the oracle. Calls are counted.
type blockModel struct {
	gate  chan struct{}
	calls atomic.Int64
}

func newBlockModel() *blockModel { return &blockModel{gate: make(chan struct{})} }

func (*blockModel) Name() string           { return "block" }
func (*blockModel) Train([]models.Example) {}
func (m *blockModel) Translate(nl, st []string) []string {
	m.calls.Add(1)
	<-m.gate
	return strings.Fields("SELECT name FROM patients WHERE age = @PATIENTS.AGE")
}

// release opens the gate exactly once.
func (m *blockModel) release() { close(m.gate) }

const goodQuestion = "show the names of all patients with age 80"

// urlQuery escapes a question for the ?q= form.
func urlQuery(q string) string { return url.QueryEscape(q) }

// newServer wires a single-tenant Server around a pre-built
// translator; the tenant is named after its schema.
func newServer(tr *runtime.Translator, cfg Config) *Server {
	return NewMulti([]*boot.Unit{{Schema: tr.DB.Schema, DB: tr.DB, Model: tr.Model, Translator: tr}}, cfg)
}

// newTestServer wires a Server over the patients fixture database.
func newTestServer(t *testing.T, model models.Translator, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	tr := runtime.NewTranslator(testDB(t), model)
	s := newServer(tr, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// getJSON GETs url and decodes the body into out, returning the status.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decoding %s body %q: %v", url, body, err)
		}
	}
	return resp.StatusCode
}

func TestAskEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, oracleModel{}, Config{Workers: 2})
	var resp askResponse
	status := getJSON(t, ts.URL+"/v1/patients/ask?q="+urlQuery(goodQuestion), &resp)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if !strings.Contains(resp.SQL, "age = 80") {
		t.Fatalf("SQL = %q, want the bound constant", resp.SQL)
	}
	if resp.Tier != "oracle" {
		t.Fatalf("Tier = %q, want oracle", resp.Tier)
	}
	if len(resp.Rows) != 3 {
		t.Fatalf("rows = %v, want the 3 patients aged 80", resp.Rows)
	}
	if len(resp.Columns) != 1 || resp.Columns[0] != "name" {
		t.Fatalf("columns = %v, want [name]", resp.Columns)
	}
}

func TestTranslateDoesNotExecute(t *testing.T) {
	_, ts := newTestServer(t, oracleModel{}, Config{Workers: 2})
	var resp askResponse
	status := getJSON(t, ts.URL+"/v1/patients/translate?q="+urlQuery(goodQuestion), &resp)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if resp.SQL == "" {
		t.Fatal("missing SQL")
	}
	if len(resp.Rows) != 0 || len(resp.Columns) != 0 {
		t.Fatalf("translate must not execute; got columns %v rows %v", resp.Columns, resp.Rows)
	}
}

func TestPostAsk(t *testing.T) {
	_, ts := newTestServer(t, oracleModel{}, Config{Workers: 2})
	body := strings.NewReader(fmt.Sprintf(`{"question": %q}`, goodQuestion))
	resp, err := http.Post(ts.URL+"/v1/patients/ask", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var got askResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 3 {
		t.Fatalf("rows = %v, want 3", got.Rows)
	}
}

func TestValidationErrorsAreTyped(t *testing.T) {
	s, ts := newTestServer(t, oracleModel{}, Config{Workers: 2})
	cases := []struct {
		name string
		do   func() (int, errorEnvelope)
	}{
		{"empty question", func() (int, errorEnvelope) {
			var env errorEnvelope
			return getJSON(t, ts.URL+"/v1/patients/ask?q=", &env), env
		}},
		{"bad timeout_ms", func() (int, errorEnvelope) {
			var env errorEnvelope
			return getJSON(t, ts.URL+"/v1/patients/ask?q=hi&timeout_ms=nope", &env), env
		}},
		{"invalid utf-8", func() (int, errorEnvelope) {
			var env errorEnvelope
			return getJSON(t, ts.URL+"/v1/patients/ask?q=%ff%fe", &env), env
		}},
		{"malformed json body", func() (int, errorEnvelope) {
			resp, err := http.Post(ts.URL+"/v1/patients/ask", "application/json", strings.NewReader("{"))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var env errorEnvelope
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatal(err)
			}
			return resp.StatusCode, env
		}},
	}
	for _, tc := range cases {
		status, env := tc.do()
		if status != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", tc.name, status)
		}
		if env.Error.Kind != KindValidation {
			t.Fatalf("%s: kind = %q, want validation", tc.name, env.Error.Kind)
		}
	}
	if got := s.Snapshot().Validation; got < int64(len(cases)) {
		t.Fatalf("validation counter = %d, want >= %d", got, len(cases))
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, oracleModel{}, Config{Workers: 1})
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/patients/ask", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") || !strings.Contains(allow, "POST") {
		t.Fatalf("Allow header = %q", allow)
	}
}

// TestClientTimeoutMapsToTimeoutKind: a tiny timeout_ms against a
// parked model must come back 504/timeout, not hang.
func TestClientTimeoutMapsToTimeoutKind(t *testing.T) {
	block := newBlockModel()
	t.Cleanup(block.release)
	s, ts := newTestServer(t, block, Config{Workers: 2, DisableBreakers: true})
	var env errorEnvelope
	status := getJSON(t, ts.URL+"/v1/patients/ask?timeout_ms=50&q="+urlQuery(goodQuestion), &env)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", status)
	}
	if env.Error.Kind != KindTimeout {
		t.Fatalf("kind = %q, want timeout", env.Error.Kind)
	}
	if !strings.Contains(env.Error.Message, "deadline") {
		t.Fatalf("message = %q, want the tier deadline cause", env.Error.Message)
	}
	if got := s.Snapshot().Timeouts; got != 1 {
		t.Fatalf("timeouts counter = %d, want 1", got)
	}
}

func TestHealthzReadyzStatsz(t *testing.T) {
	_, ts := newTestServer(t, oracleModel{}, Config{Workers: 3, Queue: 5})
	var health map[string]string
	if status := getJSON(t, ts.URL+"/healthz", &health); status != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz = %d %v", status, health)
	}
	var ready map[string]string
	if status := getJSON(t, ts.URL+"/readyz", &ready); status != http.StatusOK || ready["status"] != "ready" {
		t.Fatalf("readyz = %d %v", status, ready)
	}
	if status := getJSON(t, ts.URL+"/v1/patients/ask?q="+urlQuery(goodQuestion), nil); status != http.StatusOK {
		t.Fatalf("ask status = %d", status)
	}
	var stats Stats
	if status := getJSON(t, ts.URL+"/statsz", &stats); status != http.StatusOK {
		t.Fatalf("statsz status = %d", status)
	}
	if stats.Capacity != 3 || stats.QueueCap != 5 {
		t.Fatalf("capacity/queue = %d/%d, want 3/5", stats.Capacity, stats.QueueCap)
	}
	if stats.Completed != 1 || stats.Accepted != 1 {
		t.Fatalf("completed/accepted = %d/%d, want 1/1", stats.Completed, stats.Accepted)
	}
	if stats.Tiers["oracle"] != 1 {
		t.Fatalf("tiers = %v, want oracle:1", stats.Tiers)
	}
	// The per-tenant section: a single-tenant server still carries a
	// row for its one tenant, mirroring the registry lifecycle.
	row, ok := stats.Tenants["patients"]
	if !ok || len(stats.Tenants) != 1 {
		t.Fatalf("tenants section = %+v, want exactly the patients row", stats.Tenants)
	}
	if row.State != "ready" || row.Version != 1 || row.Completed != 1 || row.Tiers["oracle"] != 1 {
		t.Fatalf("patients tenant row = %+v, want ready v1 with the one oracle completion", row)
	}
	if row.Breakers["oracle"] != "closed" {
		t.Fatalf("tenant breakers = %v, want oracle closed", row.Breakers)
	}
	if row.Cache != nil {
		t.Fatalf("cache section must be absent when the cache is off: %+v", row.Cache)
	}
	// Equipment lives only in the tenant rows; the top level carries
	// the cross-tenant sums alone.
	var top map[string]any
	if status := getJSON(t, ts.URL+"/statsz", &top); status != http.StatusOK {
		t.Fatalf("statsz status = %d", status)
	}
	for _, key := range []string{"breakers", "cache", "critic"} {
		if _, ok := top[key]; ok {
			t.Fatalf("top-level /statsz carries a per-tenant %q section", key)
		}
	}

	// With the cache on, /statsz grows a cache section of the
	// documented shape.
	_, ts2 := newTestServer(t, oracleModel{}, Config{CacheSize: 32})
	for _, q := range []string{goodQuestion, goodQuestion} {
		if status := getJSON(t, ts2.URL+"/v1/patients/ask?q="+urlQuery(q), nil); status != http.StatusOK {
			t.Fatalf("ask status = %d", status)
		}
	}
	var hot Stats
	if status := getJSON(t, ts2.URL+"/statsz", &hot); status != http.StatusOK {
		t.Fatalf("statsz status = %d", status)
	}
	hotCache := hot.Tenants["patients"].Cache
	if hotCache == nil {
		t.Fatal("cache section missing")
	}
	if hotCache.Capacity != 32 || hotCache.Misses != 1 || hotCache.Hits != 1 || hotCache.Entries != 1 {
		t.Fatalf("cache section = %+v, want capacity 32 with 1 miss + 1 hit", hotCache)
	}
}
