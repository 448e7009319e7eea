package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/boot"
	"repro/internal/critic"
	"repro/internal/engine"
	"repro/internal/models"
	"repro/internal/patients"
	"repro/internal/registry"
	"repro/internal/runtime"
	"repro/internal/sqlast"
)

var (
	sketchFixtureOnce sync.Once
	sketchFixtureM    *models.Sketch
)

// sketchFixture trains a small sketch model on the Patients corpus
// once per test binary.
func sketchFixture(t *testing.T) *models.Sketch {
	t.Helper()
	sketchFixtureOnce.Do(func() {
		s := patients.Schema()
		pairs, err := boot.Pairs(context.Background(), s, boot.Spec{}.ParamsOrDefault(), 1)
		if err != nil {
			return
		}
		exs := models.PairExamples(pairs, s)
		cfg := models.DefaultSketchConfig()
		cfg.Epochs, cfg.SampleCap = 1, 600
		m := models.NewSketch(cfg)
		m.Train(exs)
		sketchFixtureM = m
	})
	if sketchFixtureM == nil {
		t.Fatal("building the Patients corpus for the sketch fixture failed")
	}
	return sketchFixtureM
}

// sketchServer serves the sketch fixture over the patients database
// the way dbpal-serve ships it: critic on, with the beam boot gives
// it and no fallback tier, and a dry-run deadline generous enough that
// no verdict depends on timing. The model counts its decodes.
func sketchServer(t *testing.T, cacheSize int) (*Server, *countingModel) {
	t.Helper()
	db := testDB(t)
	u := boot.Assemble(boot.Spec{Schema: "patients", Critic: true}, db.Schema, db, sketchFixture(t), 0)
	tr := u.Translator
	tr.Critic = critic.New(db, critic.Config{Seed: 1, Timeout: time.Minute})
	model := &countingModel{inner: tr.Model}
	tr.Model = model
	return NewMulti([]*boot.Unit{u}, Config{Workers: 2, CacheSize: cacheSize}), model
}

// askOutcome is everything a client sees of one /ask.
type askOutcome struct {
	Status     int
	SQL        string
	Tier       string
	TierErrors []string
	Columns    []string
	Rows       [][]string
	ErrKind    ErrorKind
	ErrMsg     string
}

// askVia sends q to /v1/patients/ask through h in process.
func askVia(t *testing.T, h http.Handler, q string) askOutcome {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/patients/ask?q="+urlQuery(q), nil))
	out := askOutcome{Status: rec.Code}
	if rec.Code == http.StatusOK {
		var r askResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
			t.Fatalf("decoding %q: %v", rec.Body.String(), err)
		}
		out.SQL, out.Tier, out.TierErrors, out.Columns, out.Rows = r.SQL, r.Tier, r.TierErrors, r.Columns, r.Rows
		return out
	}
	var e errorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("decoding %q: %v", rec.Body.String(), err)
	}
	out.ErrKind, out.ErrMsg = e.Error.Kind, e.Error.Message
	return out
}

func (o askOutcome) String() string {
	if o.Status != http.StatusOK {
		return fmt.Sprintf("%d %s: %s", o.Status, o.ErrKind, o.ErrMsg)
	}
	return fmt.Sprintf("200 %s [%s] tier_errors=%q columns=%v rows=%v", o.SQL, o.Tier, o.TierErrors, o.Columns, o.Rows)
}

// TestVerdictReplayMatchesFirstAnswer: the 399 Patients-benchmark
// questions, sent three times through one cached server, get on every
// pass exactly the answer or error pass 1 got and a server with no
// cache gives. By pass 2 every question that first missed its shape
// finalizes the cached decode and records its response; pass 3
// replays recorded answers and failures alike.
func TestVerdictReplayMatchesFirstAnswer(t *testing.T) {
	cases := patients.Cases()
	off, _ := sketchServer(t, 0)
	on, model := sketchServer(t, 1024)

	want := make([]askOutcome, len(cases))
	wantFailed := 0
	for i, c := range cases {
		want[i] = askVia(t, off.Handler(), c.NL)
		if want[i].Status == http.StatusBadGateway {
			wantFailed++
		}
	}
	if wantFailed == 0 {
		t.Fatal("fixture: no question fails every tier, so no failure is ever replayed")
	}
	var first []askOutcome
	for pass := 1; pass <= 3; pass++ {
		decodes := model.calls.Load()
		failed := 0
		got := make([]askOutcome, len(cases))
		for i, c := range cases {
			got[i] = askVia(t, on.Handler(), c.NL)
			if got[i].Status == http.StatusBadGateway {
				failed++
			}
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("pass %d, %s %q:\n  cached:   %s\n  no cache: %s", pass, c.ID, c.NL, got[i], want[i])
			} else if first != nil && !reflect.DeepEqual(got[i], first[i]) {
				t.Errorf("pass %d, %s %q:\n  got:    %s\n  pass 1: %s", pass, c.ID, c.NL, got[i], first[i])
			}
		}
		if failed != wantFailed {
			t.Errorf("pass %d: %d asks failed, the uncached server failed %d", pass, failed, wantFailed)
		}
		if first == nil {
			first = got
		}
		if n := model.calls.Load() - decodes; pass == 3 && n != 0 {
			t.Errorf("pass 3 decoded %d times; every shape's verdict should replay", n)
		}
	}
	cs := on.Snapshot().Tenants["patients"].Cache
	if cs == nil || cs.VerdictAnswers == 0 || cs.VerdictFailures == 0 {
		t.Fatalf("cache section %+v: want replayed answers and failures", cs)
	}
	if cs.VerdictFailures < int64(wantFailed) {
		t.Errorf("verdict_failures = %d, want at least pass 3's %d failed asks", cs.VerdictFailures, wantFailed)
	}
	// A replayed answer counts under the tier that first produced it.
	if got, want := on.Snapshot().Tiers, off.Snapshot().Tiers; !reflect.DeepEqual(got, scaled(want, 3)) {
		t.Errorf("tiers after three passes = %v, want three times the uncached %v", got, want)
	}
}

// scaled multiplies every count by k.
func scaled(m map[string]int64, k int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for name, n := range m {
		out[name] = n * k
	}
	return out
}

// TestVerdictReplayConcurrentConstants: asks of one shape with two
// constant sets race through the handler, replaying both questions'
// recorded responses. Each answer carries its own constant and rows,
// and the bytes a replay shares are never written (run under -race).
func TestVerdictReplayConcurrentConstants(t *testing.T) {
	db := testDB(t)
	tr := runtime.NewTranslator(db, oracleModel{})
	tr.Critic = critic.New(db, critic.Config{Seed: 1, Timeout: time.Minute})
	s := newServer(tr, Config{Workers: 8, Queue: 64, CacheSize: 32})
	ages := []string{"80", "45"}
	question := func(age string) string { return "show the names of all patients with age " + age }
	want := map[string]askOutcome{}
	for _, age := range ages {
		res, err := db.Execute(sqlast.MustParse("SELECT name FROM patients WHERE age = " + age))
		if err != nil {
			t.Fatal(err)
		}
		want[age] = askOutcome{Status: http.StatusOK, SQL: "SELECT name FROM patients WHERE age = " + age,
			Tier: "oracle", Columns: res.Columns, Rows: renderRows(res)}
	}

	// Two asks of each age leave each question's response recorded
	// (age 80 misses, then hits; age 45 hits at once): keep what the
	// replays share to check it afterwards.
	for _, age := range ages {
		for i := 0; i < 2; i++ {
			if got := askVia(t, s.Handler(), question(age)); !reflect.DeepEqual(got, want[age]) {
				t.Fatalf("age %s, ask %d:\n  got  %s\n  want %s", age, i+1, got, want[age])
			}
		}
	}
	v := s.Registry().Lookup("patients").Current()
	recorded := map[string]*registry.Answer{}
	shared := map[string][]byte{}
	for _, age := range ages {
		a, ok := v.Answers.Get("ask " + question(age))
		if !ok {
			t.Fatalf("age %s: no response recorded after a hit", age)
		}
		recorded[age], shared[age] = a, bytes.Clone(a.Body)
	}

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan string, clients) // each client reports at most once
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				age := ages[(g+i)%2]
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/patients/ask?q="+urlQuery(question(age)), nil))
				if !bytes.Equal(rec.Body.Bytes(), shared[age]) {
					errs <- fmt.Sprintf("age %s: %d %s, want the recorded %s", age, rec.Code, rec.Body.String(), shared[age])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	for _, age := range ages {
		a, _ := v.Answers.Get("ask " + question(age))
		if a != recorded[age] || !bytes.Equal(a.Body, shared[age]) {
			t.Fatalf("age %s: the recorded response changed: %s, was %s", age, a.Body, shared[age])
		}
	}
	if cs := s.Snapshot().Tenants["patients"].Cache; cs.VerdictAnswers < clients*100 {
		t.Fatalf("cache section %+v: want all %d concurrent asks replayed", cs, clients*100)
	}
}

// renderRows renders a result's cells the way /ask does.
func renderRows(res *engine.Result) [][]string {
	var out [][]string
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		out = append(out, cells)
	}
	return out
}

// faultyModel answers like the oracle and counts its decodes; while
// fault is set, a decode runs it instead.
type faultyModel struct {
	calls atomic.Int64
	fault atomic.Pointer[func()]
}

func (*faultyModel) Name() string           { return "faulty" }
func (*faultyModel) Train([]models.Example) {}
func (m *faultyModel) Translate(nl, st []string) []string {
	m.calls.Add(1)
	if f := m.fault.Load(); f != nil {
		(*f)()
	}
	return strings.Fields("SELECT name FROM patients WHERE age = @PATIENTS.AGE")
}

// inject makes the model's decodes run f until the returned func
// clears it.
func (m *faultyModel) inject(f func()) (clear func()) {
	m.fault.Store(&f)
	return func() { m.fault.Store(nil) }
}

// TestVerdictSkipsInfraFailures: an ask whose outcome a fault shaped
// rather than the question — a tier panic, a tier hung past its
// deadline, a critic sandbox timeout, an open breaker, a leader whose
// request ended — leaves nothing the next identical ask replays: it
// reaches the faulty tier (or the critic's sandbox) again, and gets
// the primary's validated answer once the fault is gone.
func TestVerdictSkipsInfraFailures(t *testing.T) {
	const q = goodQuestion
	// setup builds a cached server whose primary is a faultyModel, with
	// the oracle as fallback and a critic whose sandbox runs exec.
	setup := func(t *testing.T, cfg Config, exec func(*sqlast.Query, int) (*engine.Result, error)) (*Server, *faultyModel) {
		db := testDB(t)
		m := &faultyModel{}
		tr := runtime.NewTranslator(db, m)
		tr.Fallbacks = []models.Translator{oracleModel{}}
		tr.Critic = critic.New(db, critic.Config{Seed: 1, Timeout: 50 * time.Millisecond, Exec: exec})
		cfg.CacheSize = 32
		return newServer(tr, cfg), m
	}
	// retried asks q again after the fault and wants the primary to
	// decode it afresh and answer, with nothing replayed.
	retried := func(t *testing.T, s *Server, m *faultyModel) {
		t.Helper()
		before := m.calls.Load()
		got := askVia(t, s.Handler(), q)
		if got.Status != http.StatusOK || got.Tier != "faulty" || len(got.TierErrors) != 0 {
			t.Fatalf("next ask: %s, want the primary's answer", got)
		}
		if m.calls.Load() != before+1 {
			t.Fatalf("next ask decoded %d times, want 1", m.calls.Load()-before)
		}
		if cs := s.Snapshot().Tenants["patients"].Cache; cs.VerdictAnswers+cs.VerdictFailures != 0 {
			t.Fatalf("cache section %+v: a fault's outcome was replayed", cs)
		}
	}

	t.Run("tier panic", func(t *testing.T) {
		s, m := setup(t, Config{Workers: 2}, nil)
		clear := m.inject(func() { panic("injected") })
		if got := askVia(t, s.Handler(), q); got.Tier != "oracle" {
			t.Fatalf("faulted ask: %s, want the fallback's answer", got)
		}
		clear()
		retried(t, s, m)
	})

	t.Run("hung tier past its deadline", func(t *testing.T) {
		s, m := setup(t, Config{Workers: 2, Timeout: 200 * time.Millisecond}, nil)
		gate := make(chan struct{})
		t.Cleanup(func() { close(gate) })
		clear := m.inject(func() { <-gate })
		if got := askVia(t, s.Handler(), q); got.Tier != "oracle" {
			t.Fatalf("faulted ask: %s, want the fallback's answer", got)
		}
		clear()
		retried(t, s, m)
	})

	t.Run("critic sandbox timeout", func(t *testing.T) {
		var hang atomic.Bool
		var dryRuns atomic.Int64
		gate := make(chan struct{})
		t.Cleanup(func() { close(gate) })
		sandbox := testDB(t)
		exec := func(sq *sqlast.Query, budget int) (*engine.Result, error) {
			dryRuns.Add(1)
			if hang.Load() {
				<-gate
			}
			return sandbox.ExecuteBudget(sq, budget)
		}
		// Breakers that never trip keep the critic in the path: an
		// open critic breaker would skip the dry-runs counted below.
		s, m := setup(t, Config{Workers: 2, Breaker: BreakerConfig{Window: 64, MinSamples: 64}}, exec)
		// On the miss: the answer goes out unvalidated, and the shape
		// keeps no decode.
		hang.Store(true)
		if got := askVia(t, s.Handler(), q); got.Status != http.StatusOK {
			t.Fatalf("faulted ask: %s, want an unvalidated answer", got)
		}
		hang.Store(false)
		retried(t, s, m)
		// On a hit: a question with no recorded answer yet finalizes
		// the cached decode, times out in the sandbox, and records
		// nothing, so its next ask reviews the candidate again.
		const q45 = "show the names of all patients with age 45"
		hang.Store(true)
		if got := askVia(t, s.Handler(), q45); got.Status != http.StatusOK {
			t.Fatalf("faulted hit: %s, want an unvalidated answer", got)
		}
		hang.Store(false)
		before := dryRuns.Load()
		if got := askVia(t, s.Handler(), q45); got.Status != http.StatusOK {
			t.Fatalf("next hit: %s", got)
		}
		if dryRuns.Load() == before {
			t.Fatal("the hit after a sandbox timeout replayed instead of dry-running")
		}
	})

	t.Run("open breaker", func(t *testing.T) {
		clk := newFakeClock()
		s, m := setup(t, Config{Workers: 2, Breaker: BreakerConfig{
			Window: 4, MinSamples: 2, FailureRate: 0.5, Cooldown: time.Minute, Now: clk.Now,
		}}, nil)
		brk := versionBreakers(s.Registry().Lookup("patients").Current())
		brk.Record("faulty", errTier)
		brk.Record("faulty", errTier)
		if got := askVia(t, s.Handler(), q); got.Tier != "oracle" || !containsSkip(got.TierErrors) {
			t.Fatalf("ask past an open breaker: %s, want the fallback's answer and the skip", got)
		}
		if m.calls.Load() != 0 {
			t.Fatal("the open breaker's tier ran")
		}
		clk.Advance(2 * time.Minute)
		retried(t, s, m)
	})

	t.Run("cancelled leader", func(t *testing.T) {
		s, m := setup(t, Config{Workers: 2}, nil)
		gate, started := make(chan struct{}), make(chan struct{})
		release := sync.OnceFunc(func() { close(gate) })
		t.Cleanup(release)
		clear := m.inject(func() { close(started); <-gate })
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan int)
		go func() {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/patients/ask?q="+urlQuery(q), nil).WithContext(ctx))
			done <- rec.Code
		}()
		<-started
		cancel()
		if code := <-done; code != http.StatusGatewayTimeout {
			t.Fatalf("cancelled leader answered %d, want 504", code)
		}
		clear()
		release()
		retried(t, s, m)
	})
}
