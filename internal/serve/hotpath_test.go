package serve

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/models"
)

// countingOracle answers like the oracle and counts its decodes, so
// tests can tell a cache hit from a decode.
type countingOracle struct {
	decodes atomic.Int64
}

func (*countingOracle) Name() string           { return "oracle" }
func (*countingOracle) Train([]models.Example) {}
func (m *countingOracle) Translate(nl, st []string) []string {
	m.decodes.Add(1)
	return strings.Fields("SELECT name FROM patients WHERE age = @PATIENTS.AGE")
}

// TestCacheServesConstantVariations: the tentpole property end to
// end — after one decode, every constant variation of the question
// shape is a cache hit that still carries its own constant in the
// final SQL, and the model is never consulted again.
func TestCacheServesConstantVariations(t *testing.T) {
	model := &countingOracle{}
	s, ts := newTestServer(t, model, Config{CacheSize: 64})

	var first askResponse
	if code := getJSON(t, ts.URL+"/v1/patients/ask?q="+urlQuery(goodQuestion), &first); code != http.StatusOK {
		t.Fatalf("cold ask = %d", code)
	}
	if !strings.Contains(first.SQL, "80") {
		t.Fatalf("cold SQL = %q", first.SQL)
	}
	decodes := model.decodes.Load()

	// Same shape, different constant: must hit, must restore 45.
	var warm askResponse
	if code := getJSON(t, ts.URL+"/v1/patients/ask?q="+urlQuery("show the names of all patients with age 45"), &warm); code != http.StatusOK {
		t.Fatalf("warm ask = %d", code)
	}
	if !strings.Contains(warm.SQL, "45") {
		t.Fatalf("warm SQL must carry the new constant: %q", warm.SQL)
	}
	if got := model.decodes.Load(); got != decodes {
		t.Fatalf("cache hit still decoded: %d → %d model calls", decodes, got)
	}
	if c := s.Snapshot().Tenants["patients"].Cache; c == nil || c.Hits < 1 || c.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 1 miss then hits", c)
	}
}

// TestCacheCoalescesConcurrentMisses: N concurrent requests for one
// cold key pay exactly one model call (singleflight through the full
// HTTP stack).
func TestCacheCoalescesConcurrentMisses(t *testing.T) {
	model := newBlockModel()
	s, ts := newTestServer(t, model, Config{CacheSize: 64, Workers: 8, Queue: 16})

	const n = 6
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = getJSON(t, ts.URL+"/v1/patients/ask?q="+urlQuery(goodQuestion), nil)
		}(i)
	}
	// Wait until the leader is inside the model, then let it finish.
	deadline := time.Now().Add(2 * time.Second)
	for model.calls.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	model.release()
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d = %d", i, code)
		}
	}
	if got := model.calls.Load(); got != 1 {
		t.Fatalf("model decoded %d times for %d concurrent identical questions, want 1", got, n)
	}
	if c := s.Snapshot().Tenants["patients"].Cache; c.Misses != 1 || c.Coalesced+c.Hits != n-1 {
		t.Fatalf("cache stats = %+v, want 1 miss and %d shared", c, n-1)
	}
}

// panicTranslator panics on every decode.
type panicTranslator struct{}

func (panicTranslator) Name() string           { return "panic" }
func (panicTranslator) Train([]models.Example) {}
func (panicTranslator) Translate(nl, st []string) []string {
	panic("poisoned decode")
}

// TestServerModelPanicContained: a panicking model fails its request
// with a typed error instead of killing the server, and the next
// request is served the same way.
func TestServerModelPanicContained(t *testing.T) {
	_, ts := newTestServer(t, panicTranslator{}, Config{DisableBreakers: true})
	for i := 0; i < 2; i++ {
		var body errorEnvelope
		code := getJSON(t, ts.URL+"/v1/patients/ask?q="+urlQuery(goodQuestion), &body)
		if code < 500 || !strings.Contains(body.Error.Message, "panicked") {
			t.Fatalf("request %d = %d %+v, want a 5xx naming the contained panic", i, code, body)
		}
	}
}

// TestServerDecodesDistinctQuestions: concurrent distinct questions
// each pay exactly one decode of their own: the cache coalesces only
// identical keys, and a miss decodes at once, with no batch wait.
func TestServerDecodesDistinctQuestions(t *testing.T) {
	model := &countingOracle{}
	s, ts := newTestServer(t, model, Config{CacheSize: 64, Workers: 8, Queue: 16})
	// Distinct question *shapes*: constant variations alone would share
	// an anonymized cache key and coalesce.
	questions := []string{
		"show the names of all patients with age 80",
		"show the diagnosis of all patients with age 80",
		"show the gender of all patients with age 80",
	}
	var wg sync.WaitGroup
	for _, q := range questions {
		wg.Add(1)
		go func(q string) {
			defer wg.Done()
			var resp askResponse
			if code := getJSON(t, ts.URL+"/v1/patients/ask?q="+urlQuery(q), &resp); code != http.StatusOK {
				t.Errorf("ask(%q) = %d", q, code)
			}
		}(q)
	}
	wg.Wait()
	if got := model.decodes.Load(); got != 3 {
		t.Fatalf("model decoded %d times for 3 distinct questions, want 3", got)
	}
	if c := s.Snapshot().Tenants["patients"].Cache; c.Misses != 3 {
		t.Fatalf("cache misses = %d, want 3 distinct keys", c.Misses)
	}
}

// TestTranslateTraceCacheField: /translate reports the cache outcome
// in its trace-backed response... the Trace.Cache field feeds the
// tier trace; verify via a direct translate call.
func TestTranslateTraceCacheField(t *testing.T) {
	model := &countingOracle{}
	s, _ := newTestServer(t, model, Config{CacheSize: 64})
	v := s.Registry().Lookup("patients").Current()
	_, trace, _, err := s.translate(context.Background(), v, goodQuestion)
	if err != nil {
		t.Fatal(err)
	}
	if trace.Cache != cache.Miss.String() {
		t.Fatalf("cold trace.Cache = %q, want miss", trace.Cache)
	}
	_, trace, _, err = s.translate(context.Background(), v, goodQuestion)
	if err != nil || trace.Cache != cache.Hit.String() {
		t.Fatalf("warm trace.Cache = %q (err %v), want hit", trace.Cache, err)
	}
	if !strings.Contains(trace.String(), "cache:      hit") {
		t.Fatalf("trace rendering missing cache line:\n%s", trace.String())
	}
}
