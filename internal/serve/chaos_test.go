package serve

// Chaos tests for the serving layer: the three deterministic
// demonstrations the robustness contract requires.
//
//	(a) overload sheds with 429 + Retry-After while admitted requests
//	    complete;
//	(b) a primary tier whose model panics trips its breaker and later
//	    requests are answered by the fallback tier without the primary
//	    running (and so without paying its deadline);
//	(c) drain + shutdown finishes in-flight requests and leaks zero
//	    goroutines;
//	(d) a runaway final execute ends at the request deadline and frees
//	    its slot.
//
// Determinism comes from gates (channels), call counters, and fake
// clocks — never from sleeping and hoping.

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	goruntime "runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/critic"
	"repro/internal/engine"
	"repro/internal/models"
	"repro/internal/runtime"
	"repro/internal/schema"
)

// decodeBody reads, closes, and unmarshals an http.Response body.
func decodeBody(resp *http.Response, out any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, out)
}

// waitForGoroutines retries until the goroutine count drops to the
// baseline, failing with a full stack dump if it never does — the
// stdlib-only goleak check (same pattern as internal/fault).
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	for i := 0; i < 100; i++ {
		if goruntime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := goruntime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d > baseline %d\n%s", goruntime.NumGoroutine(), baseline, buf[:n])
}

// waitForSnapshot polls the stats snapshot until cond holds.
func waitForSnapshot(t *testing.T, s *Server, what string, cond func(Stats) bool) {
	t.Helper()
	for i := 0; i < 250; i++ {
		if cond(s.Snapshot()) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("server never reached state %q; stats: %+v", what, s.Snapshot())
}

// TestOverloadShedsWhileInFlightCompletes: with 2 workers and a
// 1-slot waiting room, requests 1-3 occupy every slot; request 4 is
// shed with 429 + Retry-After while the first three, once the model
// gate opens, all complete with 200.
func TestOverloadShedsWhileInFlightCompletes(t *testing.T) {
	block := newBlockModel()
	s, ts := newTestServer(t, block, Config{Workers: 2, Queue: 1, DisableBreakers: true})

	type result struct {
		status int
		rows   int
	}
	results := make(chan result, 3)
	for i := 0; i < 3; i++ {
		go func() {
			var resp askResponse
			status := getJSON(t, ts.URL+"/v1/patients/ask?q="+urlQuery(goodQuestion), &resp)
			results <- result{status, len(resp.Rows)}
		}()
	}

	// Deterministic overload: wait until both slots are taken and the
	// waiting room holds the third request.
	waitForSnapshot(t, s, "2 in flight + 1 queued", func(st Stats) bool {
		return st.InFlight == 2 && st.QueueDepth == 1
	})

	// The fourth request finds no slot and a full waiting room: shed.
	resp, err := http.Get(ts.URL + "/v1/patients/ask?q=" + urlQuery(goodQuestion))
	if err != nil {
		t.Fatal(err)
	}
	var env errorEnvelope
	if derr := decodeBody(resp, &env); derr != nil {
		t.Fatal(derr)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if env.Error.Kind != KindShed {
		t.Fatalf("kind = %q, want shed", env.Error.Kind)
	}

	// Open the gate: every admitted request must still complete.
	block.release()
	for i := 0; i < 3; i++ {
		r := <-results
		if r.status != http.StatusOK || r.rows != 3 {
			t.Fatalf("admitted request %d finished %d with %d rows, want 200 with 3", i, r.status, r.rows)
		}
	}
	st := s.Snapshot()
	if st.Shed != 1 || st.Completed != 3 || st.InFlight != 0 || st.QueueDepth != 0 {
		t.Fatalf("final stats %+v, want shed=1 completed=3 and empty occupancy", st)
	}
}

// TestBreakerTripsAndFallbackKeepsAnswering: a panicking primary
// feeds its breaker until it opens; from then on the chain skips the
// primary entirely — its call counter freezes — while every request
// keeps getting answered by the fallback tier.
func TestBreakerTripsAndFallbackKeepsAnswering(t *testing.T) {
	fail := &failModel{}
	clk := newFakeClock()
	tr := runtime.NewTranslator(testDB(t), fail)
	tr.Fallbacks = []models.Translator{oracleModel{}}
	s := newServer(tr, Config{Workers: 2, Breaker: BreakerConfig{
		Window: 4, MinSamples: 2, FailureRate: 0.5, Cooldown: time.Hour, Now: clk.Now,
	}})

	ask := func() askResponse {
		t.Helper()
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/v1/patients/ask?q="+urlQuery(goodQuestion), nil)
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d body %s", rec.Code, rec.Body.String())
		}
		var resp askResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Two failures reach MinSamples at 100% failure rate: trip.
	for i := 0; i < 2; i++ {
		if resp := ask(); resp.Tier != "oracle" {
			t.Fatalf("request %d answered by %q, want the oracle fallback", i, resp.Tier)
		}
	}
	if calls := fail.calls.Load(); calls != 2 {
		t.Fatalf("primary calls = %d, want 2 before the trip", calls)
	}
	if st := s.Snapshot().Tenants["patients"].Breakers["fail"]; st != "open" {
		t.Fatalf("primary breaker = %q, want open", st)
	}

	// Post-trip: the primary is skipped, not re-run.
	for i := 0; i < 5; i++ {
		resp := ask()
		if resp.Tier != "oracle" {
			t.Fatalf("post-trip request answered by %q", resp.Tier)
		}
		if !containsSkip(resp.TierErrors) {
			t.Fatalf("post-trip trace lacks the skip note: %v", resp.TierErrors)
		}
	}
	if calls := fail.calls.Load(); calls != 2 {
		t.Fatalf("primary calls grew to %d after the trip", calls)
	}
	if st := s.Snapshot(); st.Tiers["oracle"] != 7 || st.Completed != 7 {
		t.Fatalf("stats %+v, want all 7 answered by oracle", st)
	}

	// After the cooldown the breaker half-opens and the probe request
	// reaches the primary again.
	clk.Advance(2 * time.Hour)
	_ = ask()
	if calls := fail.calls.Load(); calls != 3 {
		t.Fatalf("primary calls = %d after cooldown, want the half-open probe", calls)
	}
	if st := s.Snapshot().Tenants["patients"].Breakers["fail"]; st != "open" {
		t.Fatalf("breaker after failed probe = %q, want open again", st)
	}
}

// TestOpenBreakerSkipsSlowTierWithoutPayingDeadline: the primary tier
// hangs and the translator's per-tier deadline is far beyond the test
// timeout. With the primary's breaker pre-tripped, a request must be
// answered by the fallback without the primary ever running — the
// open circuit saves the whole deadline, not just part of it.
func TestOpenBreakerSkipsSlowTierWithoutPayingDeadline(t *testing.T) {
	block := newBlockModel()
	t.Cleanup(block.release)
	clk := newFakeClock()
	tr := runtime.NewTranslator(testDB(t), block)
	tr.Fallbacks = []models.Translator{oracleModel{}}
	tr.Deadline = time.Hour // hanging tier would eat this without the breaker
	s := newServer(tr, Config{Workers: 1, Breaker: BreakerConfig{
		Window: 4, MinSamples: 2, FailureRate: 0.5, Cooldown: time.Hour, Now: clk.Now,
	}})

	// Trip the primary's breaker directly (deterministic setup: no
	// request ever has to wait out the hanging tier). Breakers live on
	// the serving version, so reach them through it.
	brk := versionBreakers(s.Registry().Lookup("patients").Current())
	brk.Record("block", errTier)
	brk.Record("block", errTier)
	if st := brk.States()["block"]; st != "open" {
		t.Fatalf("setup: breaker = %q, want open", st)
	}

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/v1/patients/ask?q="+urlQuery(goodQuestion), nil)
	s.Handler().ServeHTTP(rec, req) // would block ~1h if the tier ran
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body %s", rec.Code, rec.Body.String())
	}
	var resp askResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Tier != "oracle" {
		t.Fatalf("tier = %q, want the fallback", resp.Tier)
	}
	if block.calls.Load() != 0 {
		t.Fatal("hanging primary was invoked despite the open breaker")
	}
	if !containsSkip(resp.TierErrors) {
		t.Fatalf("trace lacks the skip note: %v", resp.TierErrors)
	}
}

// TestUnanswerableQuestionTripsNoBreaker: a question every tier fails
// on its own terms — the primary produces nothing for it, the fallback
// produces SQL the critic rejects — is a verdict on that question, not
// a fault in either tier. Asked three breaker windows over, it must
// leave every breaker closed, so the next question is still answered
// by the primary.
func TestUnanswerableQuestionTripsNoBreaker(t *testing.T) {
	const unanswerable = "show the zebras of all patients"
	db := testDB(t)
	tr := runtime.NewTranslator(db, pickyModel{name: "primary"})
	tr.Fallbacks = []models.Translator{pickyModel{name: "fallback", junk: true}}
	tr.Critic = critic.New(db, critic.Config{Seed: 1})
	const window = 4
	s := newServer(tr, Config{Workers: 1, Breaker: BreakerConfig{
		Window: window, MinSamples: 2, FailureRate: 0.5, Cooldown: time.Hour, Now: newFakeClock().Now,
	}})
	ts := newHTTPServer(t, s)

	for i := 0; i < 3*window; i++ {
		var env errorEnvelope
		if status := getJSON(t, ts+"/v1/patients/ask?q="+urlQuery(unanswerable), &env); status != http.StatusBadGateway {
			t.Fatalf("ask %d of the unanswerable question: status %d, want 502 (%+v)", i, status, env)
		}
	}
	var resp askResponse
	if status := getJSON(t, ts+"/v1/patients/ask?q="+urlQuery(goodQuestion), &resp); status != http.StatusOK || resp.Tier != "primary" {
		t.Fatalf("next question: status %d tier %q (tier errors %v), want 200 from the primary", status, resp.Tier, resp.TierErrors)
	}
	var st Stats
	if status := getJSON(t, ts+"/statsz", &st); status != http.StatusOK {
		t.Fatalf("statsz status = %d", status)
	}
	breakers := st.Tenants["patients"].Breakers
	for _, name := range []string{"primary", "fallback", runtime.CriticStage} {
		if breakers[name] != "closed" {
			t.Fatalf("breakers = %v, want %s closed", breakers, name)
		}
	}
}

// pickyModel answers like the oracle except for questions about
// zebras, where it produces nothing or, with junk, SQL naming a column
// the schema does not have (the critic rejects it).
type pickyModel struct {
	name string
	junk bool
}

func (m pickyModel) Name() string         { return m.name }
func (pickyModel) Train([]models.Example) {}
func (m pickyModel) Translate(nl, st []string) []string {
	if !slices.Contains(nl, "zebra") {
		return strings.Fields("SELECT name FROM patients WHERE age = @PATIENTS.AGE")
	}
	if m.junk {
		return strings.Fields("SELECT zebra FROM patients")
	}
	return nil
}

// TestDrainFinishesInFlightAndLeaksNothing: with a request parked
// mid-translation, Drain flips /readyz to 503 and rejects new work;
// Shutdown then completes once the in-flight request finishes with
// 200, the Serve loop exits with ErrServerClosed, and the goroutine
// count returns to its pre-server baseline.
func TestDrainFinishesInFlightAndLeaksNothing(t *testing.T) {
	baseline := goruntime.NumGoroutine()

	block := newBlockModel()
	tr := runtime.NewTranslator(testDB(t), block)
	s := newServer(tr, Config{Workers: 2, DisableBreakers: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := s.Start(ln)
	base := "http://" + ln.Addr().String()
	client := &http.Client{Transport: &http.Transport{}}

	// Park one request inside the translator.
	inFlight := make(chan result1, 1)
	go func() {
		resp, err := client.Get(base + "/v1/patients/ask?q=" + urlQuery(goodQuestion))
		if err != nil {
			inFlight <- result1{err: err}
			return
		}
		var body askResponse
		derr := decodeBody(resp, &body)
		inFlight <- result1{status: resp.StatusCode, rows: len(body.Rows), err: derr}
	}()
	waitForSnapshot(t, s, "1 in flight", func(st Stats) bool { return st.InFlight == 1 })

	// Drain: readiness flips, new work is refused, liveness stays up.
	s.Drain()
	if resp, err := client.Get(base + "/readyz"); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
	if resp, err := client.Get(base + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after drain: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
	resp, err := client.Get(base + "/v1/patients/ask?q=" + urlQuery(goodQuestion))
	if err != nil {
		t.Fatal(err)
	}
	var env errorEnvelope
	if derr := decodeBody(resp, &env); derr != nil {
		t.Fatal(derr)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Kind != KindDraining {
		t.Fatalf("new work during drain: %d %q, want 503 draining", resp.StatusCode, env.Error.Kind)
	}

	// Release the parked request and shut down; both must finish clean.
	block.release()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	r := <-inFlight
	if r.err != nil || r.status != http.StatusOK || r.rows != 3 {
		t.Fatalf("in-flight request after drain: %+v, want 200 with 3 rows", r)
	}
	if serr := <-serveErr; serr != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", serr)
	}

	client.CloseIdleConnections()
	waitForGoroutines(t, baseline)

	st := s.Snapshot()
	if !st.Draining || st.Completed != 1 || st.InFlight != 0 {
		t.Fatalf("final stats %+v, want draining with the one completion", st)
	}
}

// result1 carries one drained request's outcome.
type result1 struct {
	status int
	rows   int
	err    error
}

// containsSkip reports whether a trace's tier errors include a
// breaker skip note.
func containsSkip(tierErrors []string) bool {
	for _, e := range tierErrors {
		if strings.Contains(e, "skipped") && strings.Contains(e, "circuit open") {
			return true
		}
	}
	return false
}

// crossJoinModel answers every question with a three-way cross join.
type crossJoinModel struct{}

func (crossJoinModel) Name() string           { return "crossjoin" }
func (crossJoinModel) Train([]models.Example) {}
func (crossJoinModel) Translate(nl, st []string) []string {
	return strings.Fields("SELECT COUNT ( * ) FROM a , b , c")
}

// crossJoinDB has tables a, b and c of n rows each.
func crossJoinDB(t *testing.T, n int) *engine.Database {
	t.Helper()
	s := &schema.Schema{Name: "wide"}
	for _, name := range []string{"a", "b", "c"} {
		s.Tables = append(s.Tables, &schema.Table{Name: name, Readable: name, Columns: []*schema.Column{{Name: "x", Type: schema.Number}}})
	}
	db := engine.NewDatabase(s)
	for _, name := range []string{"a", "b", "c"} {
		for i := 0; i < n; i++ {
			if err := db.Insert(name, engine.Row{engine.Num(float64(i))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// TestAskRunawayExecuteTimesOut: the critic passes a candidate
// unverified when its dry-run runs out of row budget, so the final
// execute can meet a runaway query — here 8e9 rows. It runs under the
// request deadline: a 50 ms ask returns the typed timeout promptly,
// frees its slot for the next request, and leaves no goroutine
// behind.
func TestAskRunawayExecuteTimesOut(t *testing.T) {
	baseline := goruntime.NumGoroutine()
	db := crossJoinDB(t, 2000)
	tr := runtime.NewTranslator(db, crossJoinModel{})
	tr.Critic = critic.New(db, critic.Config{RowBudget: 1000})
	s := newServer(tr, Config{Workers: 1, Queue: -1, DisableBreakers: true})
	h := s.Handler()
	for i := 0; i < 2; i++ {
		w := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/wide/ask?timeout_ms=50&q=how+many+rows", nil))
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("ask %d returned after %v; its deadline was 50ms", i, elapsed)
		}
		var env errorEnvelope
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
			t.Fatalf("ask %d body %q: %v", i, w.Body.String(), err)
		}
		// The second ask finding the one slot free proves the first
		// released it (there is no waiting room: a held slot sheds).
		if w.Code != http.StatusGatewayTimeout || env.Error.Kind != KindTimeout || !strings.Contains(env.Error.Message, "executing") {
			t.Fatalf("ask %d = %d %+v, want the execute's typed timeout", i, w.Code, env)
		}
	}
	if got := s.Snapshot().Timeouts; got != 2 {
		t.Fatalf("timeouts counter = %d, want 2", got)
	}
	waitForGoroutines(t, baseline)
}
