package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	goruntime "runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/critic"
	"repro/internal/models"
	"repro/internal/patients"
	"repro/internal/runtime"
)

// ---------------------------------------------------------------------
// Fixture: a tiny trained seq2seq over the patients schema. Training
// uses the real serving-time schema serialization so decode inputs at
// bench time match training exactly.
// ---------------------------------------------------------------------

func benchExamples() []models.Example {
	st := models.SchemaTokens(patients.Schema())
	mk := func(nl, sql string) models.Example {
		return models.Example{NL: strings.Fields(nl), SQL: strings.Fields(sql), Schema: st}
	}
	return []models.Example{
		mk("show the name of patient with age @PATIENTS.AGE", "SELECT name FROM patients WHERE age = @PATIENTS.AGE"),
		mk("show the diagnosis of patient with age @PATIENTS.AGE", "SELECT diagnosis FROM patients WHERE age = @PATIENTS.AGE"),
		mk("how many patient be there", "SELECT COUNT ( * ) FROM patients"),
		mk("what be the average age of patient", "SELECT AVG ( age ) FROM patients"),
		mk("list patient with diagnosis @PATIENTS.DIAGNOSIS", "SELECT * FROM patients WHERE diagnosis = @PATIENTS.DIAGNOSIS"),
	}
}

var (
	benchModelOnce sync.Once
	benchModelVal  *models.Seq2Seq
)

// benchSeq2Seq trains the fixture model once per test binary.
func benchSeq2Seq() *models.Seq2Seq {
	benchModelOnce.Do(func() {
		cfg := models.DefaultSeq2SeqConfig()
		cfg.Epochs = 150
		cfg.EmbDim = 24
		cfg.HidDim = 48
		m := models.NewSeq2Seq(cfg)
		m.Train(benchExamples())
		benchModelVal = m
	})
	return benchModelVal
}

// benchWorkload mixes the trained shapes with many constant
// variations: with the cache on, each shape decodes once and every
// variation after that is a hit.
func benchWorkload() []string {
	ages := []int{80, 34, 45, 67, 72, 29, 55, 61}
	var qs []string
	for _, a := range ages {
		qs = append(qs,
			fmt.Sprintf("show the name of patient with age %d", a),
			fmt.Sprintf("show the diagnosis of patient with age %d", a))
	}
	qs = append(qs, "how many patient be there", "what be the average age of patient")
	return qs
}

// ---------------------------------------------------------------------
// Measurement core: drive the handler in-process (no sockets), record
// per-request latency, summarize.
// ---------------------------------------------------------------------

type hotMetrics struct {
	P50NS  float64 `json:"p50_ns"`
	P99NS  float64 `json:"p99_ns"`
	QPS    float64 `json:"qps"`
	Failed int     `json:"-"`
}

// benchHandler wires a fresh single-tenant server over the fixture DB,
// finalizing through a default-config critic when withCritic is set
// (as dbpal-serve ships). Each server gets its own runtime.Translator
// because NewMulti wires hooks into it.
func benchHandler(tb testing.TB, model models.Translator, cfg Config, withCritic bool) http.Handler {
	tb.Helper()
	db, err := patients.Database()
	if err != nil {
		tb.Fatal(err)
	}
	tr := runtime.NewTranslator(db, model)
	if withCritic {
		tr.Critic = critic.New(db, critic.Config{})
	}
	return newServer(tr, cfg).Handler()
}

// measureServe issues total /translate requests from `clients`
// concurrent goroutines against a fresh server over the fixture DB
// and returns the latency/throughput summary.
func measureServe(tb testing.TB, model models.Translator, cfg Config, withCritic bool, questions []string, total, clients int) hotMetrics {
	tb.Helper()
	h := benchHandler(tb, model, cfg, withCritic)

	do := func(q string) (time.Duration, int) {
		req := httptest.NewRequest(http.MethodGet, "/v1/patients/translate?q="+urlQuery(q), nil)
		w := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(w, req)
		return time.Since(t0), w.Code
	}
	// Warm: one request per distinct question, so a cache-on run
	// measures the steady state and a cache-off run is unaffected
	// (every request decodes regardless).
	for _, q := range questions {
		if _, code := do(q); code != http.StatusOK {
			tb.Fatalf("warmup %q = %d", q, code)
		}
	}

	durations := make([]time.Duration, total)
	var failed atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(total) {
					return
				}
				d, code := do(questions[i%int64(len(questions))])
				durations[i] = d
				if code != http.StatusOK {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(durations, func(a, b int) bool { return durations[a] < durations[b] })
	pct := func(p float64) float64 {
		i := int(p * float64(total-1))
		return float64(durations[i].Nanoseconds())
	}
	return hotMetrics{
		P50NS:  pct(0.50),
		P99NS:  pct(0.99),
		QPS:    float64(total) / elapsed.Seconds(),
		Failed: int(failed.Load()),
	}
}

// coldAskAllocKiB is the heap allocated per cold /ask — no cache, the
// critic on, as dbpal-serve ships — averaged over n asks after one
// warm pass over the questions. Allocation volume, unlike latency, does
// not depend on the machine.
func coldAskAllocKiB(tb testing.TB, model models.Translator, questions []string, n int) float64 {
	tb.Helper()
	h := benchHandler(tb, model, Config{Workers: 8, Queue: 1 << 16}, true)
	ask := func(q string) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/patients/ask?q="+urlQuery(q), nil))
		if w.Code != http.StatusOK {
			tb.Fatalf("ask(%q) = %d", q, w.Code)
		}
	}
	for _, q := range questions {
		ask(q)
	}
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		ask(questions[i%len(questions)])
	}
	goruntime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n) / 1024
}

// benchVariants is the cache × critic sweep shared by the benchmark
// and the regression gate.
func benchVariants() []struct {
	Name   string
	Cfg    Config
	Critic bool
} {
	base := Config{Workers: 8, Queue: 1 << 16}
	cached := base
	cached.CacheSize = 1024
	return []struct {
		Name   string
		Cfg    Config
		Critic bool
	}{
		{"cache=off", base, false},
		{"cache=on", cached, false},
		{"cache=off/critic=on", base, true},
		{"cache=on/critic=on", cached, true},
	}
}

// BenchmarkServe sweeps the inference hot path: cache on/off × critic
// on/off × client concurrency, reporting QPS and latency percentiles.
// This is the source of BENCH_serve.json:
//
//	go test -bench BenchmarkServe -benchtime 300x -run '^$' ./internal/serve/
func BenchmarkServe(b *testing.B) {
	model := benchSeq2Seq()
	questions := benchWorkload()
	for _, v := range benchVariants() {
		for _, clients := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/clients=%d", v.Name, clients), func(b *testing.B) {
				m := measureServe(b, model, v.Cfg, v.Critic, questions, b.N, clients)
				if m.Failed > 0 {
					b.Fatalf("%d/%d requests failed", m.Failed, b.N)
				}
				b.ReportMetric(m.QPS, "qps")
				b.ReportMetric(m.P50NS, "p50-ns")
				b.ReportMetric(m.P99NS, "p99-ns")
			})
		}
	}
}

// ---------------------------------------------------------------------
// Regression gate.
// ---------------------------------------------------------------------

// benchBaseline mirrors BENCH_serve.json.
type benchBaseline struct {
	Gates struct {
		// CacheHitSpeedupMin is the floor on cold-p50 / warm-hit-p50.
		CacheHitSpeedupMin float64 `json:"cache_hit_speedup_min"`
		// ColdAskAllocKiBMax is the ceiling on heap KiB allocated per
		// cold /ask (coldAskAllocKiB).
		ColdAskAllocKiBMax float64 `json:"cold_ask_alloc_kib_max"`
		// CriticP50OverheadMax is the ceiling on critic-on cold p50 /
		// critic-off cold p50: how much latency the execution-guided
		// validation layer may add to an uncached decode.
		CriticP50OverheadMax float64 `json:"critic_p50_overhead_max"`
		// ToleranceFrac is the +-fraction applied to the floors, per
		// the serving bench contract.
		ToleranceFrac float64 `json:"tolerance_frac"`
	} `json:"gates"`
}

// TestServeBenchGate is the CI serve-bench gate: a short-form
// measurement of the hot path compared against the floors checked in
// to BENCH_serve.json (with its tolerance). Machine-independent
// ratios, not wall-clock, are gated. Opt in with DBPAL_BENCH_GATE=1 —
// it measures latency distributions and would be noise under -race or
// a loaded laptop.
func TestServeBenchGate(t *testing.T) {
	if os.Getenv("DBPAL_BENCH_GATE") != "1" {
		t.Skip("set DBPAL_BENCH_GATE=1 to run the serve bench gate")
	}
	raw, err := os.ReadFile("../../BENCH_serve.json")
	if err != nil {
		t.Fatalf("baseline missing: %v", err)
	}
	var base benchBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("baseline unreadable: %v", err)
	}
	tol := base.Gates.ToleranceFrac
	if tol <= 0 || tol >= 1 {
		t.Fatalf("baseline tolerance_frac = %v, want (0,1)", tol)
	}
	model := benchSeq2Seq()
	questions := benchWorkload()

	// Cold decode p50: no cache, serial clients.
	cold := measureServe(t, model, Config{Workers: 8, Queue: 1 << 16}, false, questions, 120, 1)
	// Warm hit p50: cache on (measureServe pre-warms every key).
	warm := measureServe(t, model, Config{Workers: 8, Queue: 1 << 16, CacheSize: 1024}, false, questions, 2000, 1)
	if cold.Failed+warm.Failed > 0 {
		t.Fatalf("failed requests: cold=%d warm=%d", cold.Failed, warm.Failed)
	}
	speedup := cold.P50NS / warm.P50NS
	if floor := base.Gates.CacheHitSpeedupMin * (1 - tol); speedup < floor {
		t.Errorf("cache-hit speedup = %.1fx (cold p50 %.0fns / hit p50 %.0fns), below gate %.1fx",
			speedup, cold.P50NS, warm.P50NS, floor)
	}

	// Critic overhead: every cold decode additionally pays the static
	// checks and a sandboxed dry-run. The ratio over the critic-off
	// cold p50 is gated so the validation layer cannot quietly eat
	// the hot path.
	criticCold := measureServe(t, model, Config{Workers: 8, Queue: 1 << 16}, true, questions, 120, 1)
	if criticCold.Failed > 0 {
		t.Fatalf("failed requests with critic on: %d", criticCold.Failed)
	}
	overhead := criticCold.P50NS / cold.P50NS
	if ceil := base.Gates.CriticP50OverheadMax * (1 + tol); overhead > ceil {
		t.Errorf("critic p50 overhead = %.2fx (on %.0fns / off %.0fns), above gate %.2fx",
			overhead, criticCold.P50NS, cold.P50NS, ceil)
	}

	// Cold-ask allocation: what a cache miss costs the garbage
	// collector, which on a busy single CPU is what decides the heap
	// goal and so the process's RSS.
	kib := coldAskAllocKiB(t, model, questions, 200)
	if ceil := base.Gates.ColdAskAllocKiBMax * (1 + tol); kib > ceil {
		t.Errorf("cold ask allocates %.1f KiB, above gate %.1f KiB", kib, ceil)
	}
	t.Logf("cache-hit speedup %.1fx (cold p50 %.0fns, hit p50 %.0fns); critic p50 overhead %.2fx; cold ask %.1f KiB",
		speedup, cold.P50NS, warm.P50NS, overhead, kib)
}
