package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/boot"
	"repro/internal/engine"
	"repro/internal/models"
	"repro/internal/runtime"
	"repro/internal/schema"
)

// shipsSchema is a second tenant domain sharing the patients schema's
// column vocabulary (name, age) so the very same question is valid —
// and must answer differently — on both tenants.
func shipsSchema(t *testing.T) *schema.Schema {
	t.Helper()
	s := &schema.Schema{
		Name: "ships",
		Tables: []*schema.Table{{
			Name: "ships", Readable: "ship",
			Columns: []*schema.Column{
				{Name: "id", Type: schema.Number, PrimaryKey: true},
				{Name: "name", Type: schema.Text},
				{Name: "age", Type: schema.Number, Domain: schema.DomainAge},
			},
		}},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// shipOracle answers every question with the ships-schema query
// (constant-free, so it binds on any input).
type shipOracle struct{}

func (shipOracle) Name() string           { return "ship-oracle" }
func (shipOracle) Train([]models.Example) {}
func (shipOracle) Translate(nl, st []string) []string {
	return strings.Fields("SELECT name FROM ships")
}

// shipsUnit assembles the ships tenant.
func shipsUnit(t *testing.T) *boot.Unit {
	t.Helper()
	s := shipsSchema(t)
	db, err := engine.GenerateData(s, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := shipOracle{}
	return &boot.Unit{Schema: s, DB: db, Model: m, Translator: runtime.NewTranslator(db, m)}
}

// patientsUnit assembles the patients tenant around the given model.
func patientsUnit(t *testing.T, m models.Translator) *boot.Unit {
	t.Helper()
	db := testDB(t)
	return &boot.Unit{Schema: db.Schema, DB: db, Model: m, Translator: runtime.NewTranslator(db, m)}
}

// newMultiServer boots a two-tenant server: patients (default) and
// ships.
func newMultiServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewMulti([]*boot.Unit{patientsUnit(t, oracleModel{}), shipsUnit(t)}, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestMultiTenantRouting: one server, two schemas — every
// /v1/{schema}/ route reaches the named tenant, and the un-prefixed
// routes are gone.
func TestMultiTenantRouting(t *testing.T) {
	_, ts := newMultiServer(t, Config{Workers: 2})
	cases := []struct {
		path     string
		wantFrom string
		schema   string
	}{
		{"/v1/patients/ask?q=", "FROM patients", "patients"},
		{"/v1/ships/ask?q=", "FROM ships", "ships"},
		{"/v1/ships/translate?q=", "FROM ships", "ships"},
		{"/v1/patients/translate?q=", "FROM patients", "patients"},
	}
	for _, tc := range cases {
		var resp askResponse
		if status := getJSON(t, ts.URL+tc.path+urlQuery(goodQuestion), &resp); status != http.StatusOK {
			t.Fatalf("%s: status %d", tc.path, status)
		}
		if !strings.Contains(resp.SQL, tc.wantFrom) {
			t.Fatalf("%s: SQL %q, want it to contain %q", tc.path, resp.SQL, tc.wantFrom)
		}
		if resp.Schema != tc.schema {
			t.Fatalf("%s: schema %q, want %q", tc.path, resp.Schema, tc.schema)
		}
	}
	for _, path := range []string{"/ask?q=", "/translate?schema=ships&q="} {
		resp, err := http.Get(ts.URL + path + urlQuery(goodQuestion))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404 for the removed un-prefixed route", path, resp.StatusCode)
		}
	}
}

// TestCacheKeySeparatesTenants is the cross-tenant cache-poisoning
// regression test: with result caching on, the identical question
// asked on two tenants must produce each tenant's own SQL — the second
// tenant must not be served the first tenant's cached decode. Both
// layers of defense are asserted: runtime.CacheKey qualifies the key
// by schema name, and each tenant's version carries its own cache (so
// the second ask is a per-tenant miss, not a hit).
func TestCacheKeySeparatesTenants(t *testing.T) {
	s, ts := newMultiServer(t, Config{Workers: 2, CacheSize: 32})

	var fromPatients, fromShips askResponse
	if status := getJSON(t, ts.URL+"/v1/patients/translate?q="+urlQuery(goodQuestion), &fromPatients); status != http.StatusOK {
		t.Fatalf("patients translate status %d", status)
	}
	if status := getJSON(t, ts.URL+"/v1/ships/translate?q="+urlQuery(goodQuestion), &fromShips); status != http.StatusOK {
		t.Fatalf("ships translate status %d", status)
	}
	if !strings.Contains(fromPatients.SQL, "FROM patients") {
		t.Fatalf("patients SQL = %q", fromPatients.SQL)
	}
	if !strings.Contains(fromShips.SQL, "FROM ships") {
		t.Fatalf("ships answered %q — the other tenant's cached decode leaked across", fromShips.SQL)
	}

	st := s.Snapshot()
	for _, name := range []string{"patients", "ships"} {
		row, ok := st.Tenants[name]
		if !ok || row.Cache == nil {
			t.Fatalf("tenant %s missing cache stats: %+v", name, row)
		}
		if row.Cache.Misses != 1 || row.Cache.Hits != 0 {
			t.Fatalf("tenant %s cache = %+v, want exactly its own cold miss", name, row.Cache)
		}
	}

	// And the runtime-level invariant directly: identical NL, distinct
	// schemas, distinct keys.
	nl := strings.Fields("show me name")
	kp := s.reg.Lookup("patients").Current().Unit.Translator.CacheKey(nl)
	ks := s.reg.Lookup("ships").Current().Unit.Translator.CacheKey(nl)
	if kp == ks {
		t.Fatalf("CacheKey collision across tenants: %q", kp)
	}
}

// TestUnknownSchemaIs404: requests naming a schema nobody serves get
// the unknown_schema kind, as does a malformed /v1/ path.
func TestUnknownSchemaIs404(t *testing.T) {
	_, ts := newMultiServer(t, Config{Workers: 1})
	for _, path := range []string{
		"/v1/nosuch/ask?q=x",
		"/v1/nosuch/translate?q=x",
		"/v1/patients/frobnicate?q=x",
		"/v1/patients",
	} {
		var env errorEnvelope
		if status := getJSON(t, ts.URL+path, &env); status != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, status)
		}
		if env.Error.Kind != KindNotFound {
			t.Fatalf("%s: kind %q, want %q", path, env.Error.Kind, KindNotFound)
		}
	}
}

// TestOnboardingTenantIs503: a tenant that exists but has no serving
// version yet answers 503 with the onboarding kind (clients poll GET
// /schemas/{name} and retry), without disturbing the ready tenants.
func TestOnboardingTenantIs503(t *testing.T) {
	s, ts := newMultiServer(t, Config{Workers: 1})
	bt := &blockingTrainer{started: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := s.Registry().Onboard(ctx, boot.Spec{
		Schema: "synth:77", Seed: 77, Rows: 3,
		Factory: func(int64) models.Translator { return bt },
	}); err != nil {
		t.Fatal(err)
	}
	<-bt.started

	var env errorEnvelope
	if status := getJSON(t, ts.URL+"/v1/synth77/ask?q="+urlQuery(goodQuestion), &env); status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", status)
	}
	if env.Error.Kind != KindOnboarding {
		t.Fatalf("kind %q, want %q", env.Error.Kind, KindOnboarding)
	}
	var resp askResponse
	if status := getJSON(t, ts.URL+"/v1/patients/ask?q="+urlQuery(goodQuestion), &resp); status != http.StatusOK {
		t.Fatalf("ready tenant disturbed: status %d", status)
	}
	cancel()
	s.Registry().WaitCtx(context.Background())
}

// blockingTrainer blocks in TrainContext until cancelled, parking an
// onboarding mid-build.
type blockingTrainer struct{ started chan struct{} }

func (b *blockingTrainer) Name() string                     { return "blocking" }
func (b *blockingTrainer) Train([]models.Example)           {}
func (b *blockingTrainer) Translate(_, _ []string) []string { return nil }
func (b *blockingTrainer) TrainContext(ctx context.Context, _ []models.Example, _ models.TrainOptions) error {
	close(b.started)
	<-ctx.Done()
	return ctx.Err()
}

// postJSON POSTs a JSON body and decodes the response.
func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestAdminOnboardLifecycle drives the admin API end to end: POST
// /schemas starts a background build (202 + status), GET /schemas and
// GET /schemas/{name} expose its progress through to ready, /statsz
// grows a per-tenant row, the new tenant answers /v1/ requests without
// any restart, and DELETE retires it.
func TestAdminOnboardLifecycle(t *testing.T) {
	s, ts := newMultiServer(t, Config{Workers: 2})

	var accepted map[string]any
	if status := postJSON(t, ts.URL+"/schemas",
		map[string]any{"schema": "synth:21", "model": "nn", "rows": 3, "seed": 21},
		&accepted); status != http.StatusAccepted {
		t.Fatalf("POST /schemas status %d (%v)", status, accepted)
	}
	if accepted["name"] != "synth21" {
		t.Fatalf("accepted status = %v, want tenant synth21", accepted)
	}

	// Poll the per-tenant admin endpoint until the build lands.
	var st map[string]any
	deadline := time.Now().Add(30 * time.Second)
	for {
		if status := getJSON(t, ts.URL+"/schemas/synth21", &st); status != http.StatusOK {
			t.Fatalf("GET /schemas/synth21 status %d", status)
		}
		if st["state"] == "ready" {
			break
		}
		if st["state"] == "failed" || st["state"] == "rolled_back" {
			t.Fatalf("onboarding failed: %v", st)
		}
		if time.Now().After(deadline) {
			t.Fatalf("onboarding never became ready: %v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st["version"] != float64(1) {
		t.Fatalf("ready status = %v, want version 1", st)
	}

	var list struct {
		Schemas []map[string]any `json:"schemas"`
	}
	if status := getJSON(t, ts.URL+"/schemas", &list); status != http.StatusOK || len(list.Schemas) != 3 {
		t.Fatalf("GET /schemas = %d with %d tenants, want 3", status, len(list.Schemas))
	}

	row, ok := s.Snapshot().Tenants["synth21"]
	if !ok || row.State != "ready" || row.Version != 1 {
		t.Fatalf("statsz tenant row = %+v, want ready v1", row)
	}

	// The onboarded tenant serves immediately — the request must route
	// and be admitted (any taxonomy outcome but unknown_schema /
	// onboarding / shed proves the tenant is live).
	resp, err := http.Get(ts.URL + "/v1/synth21/ask?q=" + urlQuery("show the name of all entries"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotFound, http.StatusServiceUnavailable, http.StatusTooManyRequests:
		t.Fatalf("onboarded tenant not serving: status %d", resp.StatusCode)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/schemas/synth21", nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE status %d, want 204", dresp.StatusCode)
	}
	var env errorEnvelope
	if status := getJSON(t, ts.URL+"/v1/synth21/ask?q=x", &env); status != http.StatusNotFound {
		t.Fatalf("deleted tenant still routable: status %d", status)
	}
	s.Registry().WaitCtx(context.Background())
}

// TestAdminValidation: the admin API rejects bad input with the
// validation kind.
func TestAdminValidation(t *testing.T) {
	s, ts := newMultiServer(t, Config{Workers: 1})
	var env errorEnvelope
	if status := postJSON(t, ts.URL+"/schemas", map[string]any{}, &env); status != http.StatusBadRequest {
		t.Fatalf("empty schema: status %d", status)
	}
	if status := postJSON(t, ts.URL+"/schemas", map[string]any{"schema": "nosuch"}, &env); status != http.StatusBadRequest {
		t.Fatalf("unknown schema: status %d, body %+v", status, env)
	}
	s.Drain()
	if status := postJSON(t, ts.URL+"/schemas", map[string]any{"schema": "synth:1"}, &env); status != http.StatusServiceUnavailable {
		t.Fatalf("draining onboard: status %d", status)
	}
	if env.Error.Kind != KindDraining {
		t.Fatalf("draining kind = %q", env.Error.Kind)
	}
}

// TestOnboardCriticOverride: a POST /schemas "critic": false override
// reaches the onboarded tenant even when the server's critic setting
// is on, while a tenant onboarded without the field inherits the
// server's critic — with its sandbox breaker wired around it.
func TestOnboardCriticOverride(t *testing.T) {
	s, ts := newMultiServer(t, Config{Workers: 1, Spec: boot.Spec{Critic: true}})
	for _, body := range []map[string]any{
		{"schema": "synth:21", "model": "nn", "rows": 3, "seed": 21, "critic": false},
		{"schema": "synth:22", "model": "nn", "rows": 3, "seed": 22},
	} {
		if status := postJSON(t, ts.URL+"/schemas", body, nil); status != http.StatusAccepted {
			t.Fatalf("POST /schemas %v: status %d", body, status)
		}
	}
	s.Registry().WaitCtx(context.Background())

	translator := func(name string) *runtime.Translator {
		t.Helper()
		v := s.Registry().Lookup(name).Current()
		if v == nil {
			t.Fatalf("tenant %s never became ready: %+v", name, s.Registry().Lookup(name).Status())
		}
		return v.Unit.Translator
	}
	if tr := translator("synth21"); tr.Critic != nil {
		t.Fatal(`tenant onboarded with "critic": false got a critic anyway`)
	}
	if tr := translator("synth22"); tr.Critic == nil || tr.Hook == nil {
		t.Fatal("tenant onboarded without an override must inherit the server's critic and its breakers")
	}
	// One ask consults the critic's breaker, which shows up closed.
	getJSON(t, ts.URL+"/v1/synth22/translate?q="+urlQuery("show all of them"), nil)
	if row := s.Snapshot().Tenants["synth22"]; row.Breakers["critic"] != "closed" {
		t.Fatalf("synth22 breakers = %v, want the critic's closed", row.Breakers)
	}
}

// TestOnboardInheritsServerSpec: a tenant onboarded through POST
// /schemas is built with the server's build template — the model and
// the per-tier deadline here — whether or not the request overrides
// other fields.
func TestOnboardInheritsServerSpec(t *testing.T) {
	const deadline = 750 * time.Millisecond
	s, ts := newMultiServer(t, Config{Workers: 1, Spec: boot.Spec{
		Model: "nn", Rows: 3, Seed: 5, Deadline: deadline,
	}})
	for _, body := range []map[string]any{
		{"schema": "synth:23"},
		{"schema": "synth:24", "seed": 24, "rows": 4},
	} {
		if status := postJSON(t, ts.URL+"/schemas", body, nil); status != http.StatusAccepted {
			t.Fatalf("POST /schemas %v: status %d", body, status)
		}
	}
	s.Registry().WaitCtx(context.Background())

	for _, name := range []string{"synth23", "synth24"} {
		v := s.Registry().Lookup(name).Current()
		if v == nil {
			t.Fatalf("tenant %s never became ready: %+v", name, s.Registry().Lookup(name).Status())
		}
		if got := v.Unit.Translator.Deadline; got != deadline {
			t.Errorf("%s: onboarded Translator.Deadline = %v, want the server's %v", name, got, deadline)
		}
		if got := v.Unit.Model.Name(); got != "template-nn" {
			t.Errorf("%s: onboarded model = %q, want the server's nn", name, got)
		}
	}
}
