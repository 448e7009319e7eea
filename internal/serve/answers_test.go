package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/boot"
	"repro/internal/patients"
	"repro/internal/registry"
)

// wireResponse is everything a client receives for one request.
type wireResponse struct {
	Status int
	Header http.Header
	Body   []byte
}

// sendVia sends question to /v1/patients/{op} through h in process,
// as ?q= on GET and as a JSON body on POST.
func sendVia(t *testing.T, h http.Handler, op, method, question string) wireResponse {
	t.Helper()
	req := httptest.NewRequest(method, "/v1/patients/"+op+"?q="+urlQuery(question), nil)
	if method == http.MethodPost {
		body, err := json.Marshal(askRequest{Question: question})
		if err != nil {
			t.Fatal(err)
		}
		req = httptest.NewRequest(method, "/v1/patients/"+op, bytes.NewReader(body))
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return wireResponse{Status: rec.Code, Header: rec.Header(), Body: rec.Body.Bytes()}
}

// TestAnswerReplayBytesMatchUncached: the 399 Patients-benchmark
// questions, sent three passes through /ask and /translate by GET and
// by POST, get on every pass the status, headers and body bytes a
// server with no cache writes. Pass 1 records each response once a
// shape is cached; pass 3 replays every one and decodes nothing.
func TestAnswerReplayBytesMatchUncached(t *testing.T) {
	cases := patients.Cases()
	off, _ := sketchServer(t, 0)
	on, model := sketchServer(t, 1024)
	routes := []struct{ op, method string }{
		{"ask", http.MethodGet}, {"ask", http.MethodPost},
		{"translate", http.MethodGet}, {"translate", http.MethodPost},
	}

	want := make([][]wireResponse, len(cases))
	failed := 0
	for i, c := range cases {
		for _, r := range routes {
			w := sendVia(t, off.Handler(), r.op, r.method, c.NL)
			want[i] = append(want[i], w)
			if w.Status != http.StatusOK {
				failed++
			}
		}
	}
	if failed == 0 {
		t.Fatal("fixture: every ask answered, so no failure is ever replayed")
	}
	for pass := 1; pass <= 3; pass++ {
		decodes := model.calls.Load()
		before := on.Snapshot().Tenants["patients"].Cache
		for i, c := range cases {
			for k, r := range routes {
				got := sendVia(t, on.Handler(), r.op, r.method, c.NL)
				if !reflect.DeepEqual(got, want[i][k]) {
					t.Errorf("pass %d, %s %s %s %q:\n  cached:   %d %v %s\n  no cache: %d %v %s", pass, r.method, r.op, c.ID, c.NL,
						got.Status, got.Header, got.Body, want[i][k].Status, want[i][k].Header, want[i][k].Body)
				}
			}
		}
		if pass < 3 {
			continue
		}
		if n := model.calls.Load() - decodes; n != 0 {
			t.Errorf("pass 3 decoded %d times; every response should replay", n)
		}
		after := on.Snapshot().Tenants["patients"].Cache
		replays := after.VerdictAnswers + after.VerdictFailures - before.VerdictAnswers - before.VerdictFailures
		if want := int64(len(cases) * len(routes)); replays != want || after.Hits-before.Hits != want {
			t.Errorf("pass 3 replayed %d of %d requests and counted %d hits", replays, want, after.Hits-before.Hits)
		}
	}
}

// TestAnswerIndexBounded: the question index holds at most the cache
// size, evicts its least recently used response, counts what it
// evicted, and starts empty on every new version of the tenant.
func TestAnswerIndexBounded(t *testing.T) {
	model := &countingOracle{}
	s, _ := newTestServer(t, model, Config{CacheSize: 2, EvalQuestions: -1})
	h := s.Handler()
	question := func(age string) string { return "show the names of all patients with age " + age }
	answers := func() (AnswerStats, int64) {
		cs := s.Snapshot().Tenants["patients"].Cache
		return cs.Answers, cs.VerdictAnswers
	}
	ask := func(age string) {
		t.Helper()
		if got := askVia(t, h, question(age)); got.Status != http.StatusOK {
			t.Fatalf("age %s: %s", age, got)
		}
	}
	check := func(step string, wantIdx AnswerStats, wantReplays int64) {
		t.Helper()
		if idx, replays := answers(); idx != wantIdx || replays != wantReplays {
			t.Fatalf("%s: index %+v with %d replays, want %+v with %d", step, idx, replays, wantIdx, wantReplays)
		}
	}

	ask("80") // a miss: its answer is not recorded
	check("after a miss", AnswerStats{}, 0)
	ask("80") // a hit: recorded
	ask("45") // a hit on the same shape: recorded
	check("after two hits", AnswerStats{Entries: 2}, 0)
	ask("80") // a replay, which makes 45 the least recently used
	check("after a replay", AnswerStats{Entries: 2}, 1)
	ask("67") // recorded, evicting 45
	check("past capacity", AnswerStats{Entries: 2, Evictions: 1}, 1)
	ask("80")
	ask("67")
	check("replaying the survivors", AnswerStats{Entries: 2, Evictions: 1}, 3)
	ask("45") // evicted: finalized and recorded again, evicting 80
	check("after the evicted ask", AnswerStats{Entries: 2, Evictions: 2}, 3)
	if d := model.decodes.Load(); d != 1 {
		t.Fatalf("%d decodes, want the first miss's only", d)
	}

	// A re-onboarded version serves from an index of its own, empty
	// while the replaced version's still holds two responses.
	old := s.Registry().Lookup("patients").Current()
	if _, err := s.Registry().Onboard(context.Background(), boot.Spec{Schema: "patients", Model: "nn", Rows: 3}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Registry().WaitCtx(context.Background()) })
	var cur *registry.Version
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if cur = s.Registry().Lookup("patients").Current(); cur != old {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("re-onboarding never swapped in: %+v", s.Registry().Lookup("patients").Status())
		}
	}
	if n := old.Answers.Len(); n != 2 {
		t.Fatalf("the replaced version's index holds %d responses, want 2", n)
	}
	check("on the new version", AnswerStats{}, 0)
	for i := 0; i < 2; i++ {
		askVia(t, h, question("80"))
	}
	if cur.Answers.Len() != 1 || old.Answers.Len() != 2 {
		t.Fatalf("after a repeated ask the new index holds %d responses and the old %d, want 1 and 2",
			cur.Answers.Len(), old.Answers.Len())
	}
}
