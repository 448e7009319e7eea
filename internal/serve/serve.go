// Package serve is the hardened concurrent serving layer over the
// runtime phase: it exposes a registry of runtime.Translator tenants
// as a long-lived net/http service that stays correct and responsive
// under overload, slow models, and injected faults. The robustness
// stack, outside-in:
//
//   - Admission control: a per-tenant concurrency limiter
//     (par.Limiter) sized to the worker count plus a bounded waiting
//     room. When both are full, the request is shed with 429 +
//     Retry-After instead of queueing unboundedly — under overload,
//     latency stays bounded, the queue never grows past its cap, and
//     one tenant's stampede cannot starve another's slots.
//   - Per-request deadlines: every admitted request runs under a
//     context deadline that propagates into the translator's
//     Deadline/Fallbacks chain; expiry is a typed timeout response,
//     and the abandoned tier costs at most a goroutine, never a slot.
//   - Circuit breakers: one Breaker per translator tier, and one for
//     the critic's sandbox, per model version, plugged in as the
//     translator's runtime.Hook. Only infrastructure failures count: a
//     tier whose model panics or overruns its deadline trips open and
//     is skipped without paying that deadline, and a sandbox that
//     keeps failing is skipped (answers go out unvalidated). A
//     question the model cannot translate is a verdict on that
//     question and trips nothing. After a cooldown a half-open probe
//     decides recovery. A version swap starts the new model with
//     fresh, closed breakers. A failed ask answers with its typed
//     error on the first attempt; a shed one carries Retry-After.
//   - Graceful drain: Drain flips /readyz to 503 so load balancers
//     stop routing; Shutdown then cancels background onboarding
//     (leaving resumable checkpoints), stops accepting, and lets
//     in-flight requests finish under the caller's drain deadline.
//
// Tenant endpoints: /v1/{schema}/ask (translate + execute) and
// /v1/{schema}/translate (translate only). Admin: POST /schemas
// onboards a new schema in the background (generate→train→eval→swap,
// with onboarding status), GET /schemas lists tenants, GET/DELETE
// /schemas/{name} inspects or removes one.
// Probes: /healthz (liveness), /readyz (readiness, drain-aware),
// /statsz (JSON Stats snapshot with a per-tenant section). Failures
// use the ErrorKind taxonomy in errors.go.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/boot"
	"repro/internal/cache"
	"repro/internal/par"
	"repro/internal/registry"
	"repro/internal/runtime"
	"repro/internal/sqlast"
)

// Config sizes the robustness stack. The zero value gets defaults
// suitable for tests and small deployments.
type Config struct {
	// Workers bounds concurrent translations per tenant (0 = NumCPU).
	Workers int
	// Queue is the per-tenant waiting-room size: requests beyond
	// Workers that may wait for a slot before shedding starts (0 =
	// 2×Workers, negative = no waiting room).
	Queue int
	// Timeout is the default per-request deadline (0 = 10s). Clients
	// may lower it per request with timeout_ms, never raise it.
	Timeout time.Duration
	// Breaker parameterizes the tier and critic circuit breakers; set
	// DisableBreakers to run without them.
	Breaker         BreakerConfig
	DisableBreakers bool
	// CacheSize enables, with this many entries each per model
	// version, the anonymization-keyed result cache and the question
	// index (0 = neither). Result-cache keys are the schema name plus
	// the lemmatized anonymized question, so every constant variation
	// of a query shape shares one cached decode and no two tenants can
	// ever share an entry. The question index keys the exact question
	// text per route, and a repeat replays the response recorded for
	// it before any preprocessing.
	CacheSize int
	// Spec is the build template for tenants onboarded through POST
	// /schemas: the same settings the boot-time tenants were built
	// with (model, seed, rows, per-tier deadline, critic).
	// A zero per-tier deadline, here or on a pre-built tenant, becomes
	// half of Timeout.
	// The request's schema replaces Spec.Schema, its other fields
	// override their counterparts when set, and LoadPath is ignored
	// (saved weights belong to the schema they were trained on).
	// Tenants passed to NewMulti keep whatever boot.Assemble gave them;
	// the server only wires breakers around their tiers and critic.
	Spec boot.Spec
	// MinAccuracy is the onboarding eval gate: a candidate model
	// scoring below it on the per-schema workload is rejected and the
	// prior version keeps serving (0 disables the gate).
	MinAccuracy float64
	// EvalQuestions sizes the gate workload (0 = the registry default,
	// negative skips evaluation).
	EvalQuestions int
	// CheckpointDir makes onboarding restartable: training checkpoints
	// land in <dir>/<tenant>.ckpt every CheckpointEvery steps and a
	// re-onboard resumes from them.
	CheckpointDir   string
	CheckpointEvery int
	// Logf, when non-nil, receives onboarding progress lines.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	c.Workers = par.Count(c.Workers)
	if c.Queue == 0 {
		c.Queue = 2 * c.Workers
	}
	if c.Queue < 0 {
		c.Queue = 0
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	return c
}

// Server fronts a tenant registry with the robustness stack. Create it
// with NewMulti, mount Handler (or Start/Shutdown for a managed
// listener), and it is safe for any number of concurrent requests.
type Server struct {
	reg  *registry.Registry
	cfg  Config
	mux  *http.ServeMux
	http *http.Server

	// onboardCtx parents every background onboarding; Shutdown cancels
	// it so training checkpoints and the goroutines drain.
	onboardCtx    context.Context
	onboardCancel context.CancelFunc

	mu      sync.Mutex
	tenants map[string]*tenantState

	draining atomic.Bool
}

// tenantState is the serving-side per-tenant state: admission
// telemetry. The model slot, cache, and breakers live on the
// registry's Version so they swap atomically with the model.
type tenantState struct {
	name    string
	tenant  *registry.Tenant
	stats   *counters
	waiting atomic.Int64
}

// NewMulti wires the stack around any number of pre-built tenants,
// each named after its schema. More tenants onboard live through POST
// /schemas.
func NewMulti(units []*boot.Unit, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		tenants: map[string]*tenantState{},
		mux:     http.NewServeMux(),
	}
	s.onboardCtx, s.onboardCancel = context.WithCancel(context.Background())
	s.reg = registry.New(registry.Config{
		Workers:         cfg.Workers,
		CacheSize:       cfg.CacheSize,
		MinAccuracy:     cfg.MinAccuracy,
		EvalQuestions:   cfg.EvalQuestions,
		CheckpointDir:   cfg.CheckpointDir,
		CheckpointEvery: cfg.CheckpointEvery,
		Equip:           s.equip,
		Logf:            cfg.Logf,
	})
	for _, u := range units {
		s.reg.Install(u.Schema.Name, u)
	}
	s.mux.HandleFunc("/v1/", s.handleV1)
	s.mux.HandleFunc("/schemas", s.handleSchemas)
	s.mux.HandleFunc("/schemas/", s.handleSchema)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/statsz", s.handleStatsz)
	s.http = &http.Server{Handler: s.mux}
	return s
}

// Registry exposes the tenant registry.
//
//lint:allow deadcode test hook: serve tests onboard and inspect tenants through it
func (s *Server) Registry() *registry.Registry { return s.reg }

// equip prepares a version, boot-time or onboarded, before the
// registry makes it visible. A tier with no deadline of its own gets
// half the request timeout: a hung tier then overruns its deadline
// while the request is still live, which charges its breaker and
// leaves the other half to the fallback tiers; ended by the request's
// own timeout, it would be charged nothing. Then it attaches the
// version's equipment: a fresh breaker set — one breaker per tier, and
// one for the critic when the unit was assembled with one — and
// zeroed replay counters.
func (s *Server) equip(_ string, v *registry.Version) {
	if v.Unit.Translator.Deadline == 0 {
		v.Unit.Translator.Deadline = s.cfg.Timeout / 2
	}
	e := &equipment{}
	v.Equipment = e
	if s.cfg.DisableBreakers {
		return
	}
	e.breakers = NewBreakers(s.cfg.Breaker)
	v.Unit.Translator.Hook = e.breakers
}

// equipment is the serving layer's per-version state, swapped in and
// out with the model: the breakers (nil when disabled) and how many
// asks the question index answered with a recorded answer or failure.
type equipment struct {
	breakers                        *Breakers
	verdictAnswers, verdictFailures atomic.Int64
}

// versionEquipment returns what equip attached (nil-safe).
func versionEquipment(v *registry.Version) *equipment {
	if v == nil {
		return nil
	}
	e, _ := v.Equipment.(*equipment)
	return e
}

// versionBreakers returns the breaker set equip attached (nil-safe).
func versionBreakers(v *registry.Version) *Breakers {
	if e := versionEquipment(v); e != nil {
		return e.breakers
	}
	return nil
}

// state returns the serving-side state for a tenant, creating it on
// first use.
func (s *Server) state(t *registry.Tenant) *tenantState {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts := s.tenants[t.Name]
	if ts == nil {
		ts = &tenantState{name: t.Name, tenant: t, stats: newCounters()}
		s.tenants[t.Name] = ts
	}
	return ts
}

// Handler returns the routed handler.
//
//lint:allow deadcode test hook: serve tests drive the routes through httptest with it
func (s *Server) Handler() http.Handler { return s.mux }

// Start serves on ln in the background and returns the channel that
// yields http.Server.Serve's error when the listener closes
// (http.ErrServerClosed after a clean Shutdown).
func (s *Server) Start(ln net.Listener) <-chan error {
	errc := make(chan error, 1)
	//lint:allow rawgo the accept loop must run beside the signal handler; net/http owns the per-connection concurrency
	go func() { errc <- s.http.Serve(ln) }()
	return errc
}

// Drain flips the server to draining: /readyz answers 503 and new
// work is rejected with the draining error, while requests already
// admitted keep running. Load balancers watch /readyz, so calling
// Drain before Shutdown gives them time to stop routing here.
func (s *Server) Drain() { s.draining.Store(true) }

// Shutdown drains, cancels in-flight onboarding (its training writes a
// final checkpoint, so a later process resumes where it stopped), and
// then stops the listener started by Start, waiting for in-flight
// requests to finish until ctx expires. The onboarding join is
// bounded by the same ctx — a tenant whose model ignores
// cancellation costs at most a goroutine at exit, never a hung
// SIGTERM — and the HTTP listener is stopped regardless, so the
// drain deadline is honored end to end.
func (s *Server) Shutdown(ctx context.Context) error {
	s.Drain()
	s.onboardCancel()
	waitErr := s.reg.WaitCtx(ctx)
	if err := s.http.Shutdown(ctx); err != nil {
		return err
	}
	return waitErr
}

// ---------------------------------------------------------------------
// Request handling.
// ---------------------------------------------------------------------

// askRequest is the POST body of the ask/translate endpoints; GET
// requests use ?q= and ?timeout_ms= instead.
type askRequest struct {
	Question  string `json:"question"`
	TimeoutMS int    `json:"timeout_ms"`
}

// askResponse is the success body.
type askResponse struct {
	Question string `json:"question"`
	// Schema names the tenant that answered.
	Schema string `json:"schema"`
	SQL    string `json:"sql"`
	// Tier names the translator tier that answered.
	Tier string `json:"tier"`
	// TierErrors lists the failed tiers ahead of the answering one.
	TierErrors []string `json:"tier_errors,omitempty"`
	// Columns/Rows carry the execution result on ask (absent on
	// translate).
	Columns []string   `json:"columns,omitempty"`
	Rows    [][]string `json:"rows,omitempty"`
}

// handleV1 routes /v1/{schema}/ask and /v1/{schema}/translate.
func (s *Server) handleV1(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/")
	name, op, ok := strings.Cut(rest, "/")
	if !ok || name == "" || (op != "ask" && op != "translate") {
		writeError(w, KindNotFound, 0, "no route %s; want /v1/{schema}/ask or /v1/{schema}/translate", r.URL.Path)
		return
	}
	s.answer(w, r, name, op)
}

// resolveTenant maps a request's schema name to the tenant and its
// serving version, writing the typed error itself when resolution
// fails.
func (s *Server) resolveTenant(w http.ResponseWriter, name string) (*tenantState, *registry.Version, bool) {
	t := s.reg.Lookup(name)
	if t == nil {
		writeError(w, KindNotFound, 0, "unknown schema %q; GET /schemas lists tenants", name)
		return nil, nil, false
	}
	v := t.Current()
	if v == nil {
		st := t.Status()
		msg := "schema %q has no serving model yet (state %s)"
		if st.Error != "" {
			msg += ": " + st.Error
		}
		writeError(w, KindOnboarding, 2, msg, t.Name, st.State)
		return nil, nil, false
	}
	return s.state(t), v, true
}

// answer is the shared ask and translate handler (op names the
// route). After admission it looks the exact question up in the
// version's question index, and a hit writes the recorded response:
// no request deadline, preprocessing, cache lookup or encoding runs
// for it. Otherwise the question is translated (and, on ask,
// executed), and the response is recorded when translate reports a
// settled verdict: an answer from a cache hit or coalesced wait, or a
// failure. A question's first answer comes from a miss and is not
// recorded, so a question asked once costs no index entry; its repeat
// finalizes the cached decode and records the response.
func (s *Server) answer(w http.ResponseWriter, r *http.Request, schemaName, op string) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		w.Header().Set("Allow", "GET, POST")
		writeError(w, KindValidation, 0, "method %s not allowed; use GET or POST", r.Method)
		return
	}
	if s.draining.Load() {
		writeError(w, KindDraining, 0, "server is draining")
		return
	}
	ts, v, ok := s.resolveTenant(w, schemaName)
	if !ok {
		return
	}
	req, err := parseAsk(r)
	if err != nil {
		ts.stats.validation.Add(1)
		writeError(w, KindValidation, 0, "%v", err)
		return
	}

	// Admission control: take a tenant slot immediately if one is
	// free; else join the tenant's bounded waiting room or shed.
	limiter := ts.tenant.Limiter
	if !limiter.TryAcquire() {
		if ts.waiting.Add(1) > int64(s.cfg.Queue) {
			ts.waiting.Add(-1)
			ts.stats.shed.Add(1)
			writeError(w, KindShed, 1, "schema %q at capacity (%d in flight, %d queued); retry later",
				ts.name, s.cfg.Workers, s.cfg.Queue)
			return
		}
		werr := limiter.Acquire(r.Context())
		ts.waiting.Add(-1)
		if werr != nil {
			// The client went away while queued.
			ts.stats.timeouts.Add(1)
			writeError(w, KindTimeout, 0, "request cancelled while queued: %v", werr)
			return
		}
	}
	defer limiter.Release()
	ts.stats.accepted.Add(1)

	var key string
	if v.Answers != nil {
		key = op + " " + req.Question
		if a, ok := v.Answers.Get(key); ok {
			ts.replay(w, versionEquipment(v), a)
			return
		}
	}

	timeout := s.cfg.Timeout
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	q, trace, settled, terr := s.translate(ctx, v, req.Question)
	if terr != nil {
		kind := classify(terr)
		if ctx.Err() != nil {
			// Whatever the chain reported, the request deadline is the
			// root cause once it has expired, and that is no verdict.
			kind, settled = KindTimeout, false
		}
		ts.recordFailure(kind)
		a := &registry.Answer{Status: kind.HTTPStatus(), Kind: string(kind), Body: errorBody(kind, 0, terr.Error())}
		writeBody(w, a.Status, a.Body)
		if settled {
			v.Answers.Put(key, a)
		}
		return
	}

	resp := askResponse{
		Question: req.Question,
		Schema:   ts.name,
		SQL:      q.String(),
		Tier:     trace.Tier,
	}
	resp.TierErrors = append(resp.TierErrors, trace.TierErrors...)
	if op == "ask" {
		// The critic's dry-run result answers when it ran the query to
		// completion. Otherwise — no critic, or a dry-run the row
		// budget truncated — the query executes here, and the request
		// deadline bounds it: a runaway query (one the critic passed
		// unverified on its row budget) ends with the typed timeout and
		// frees its slot.
		res := trace.Result
		if res == nil {
			var xerr error
			if res, xerr = v.Unit.DB.ExecuteContext(ctx, q); xerr != nil {
				kind := KindInternal
				if ctx.Err() != nil {
					kind = KindTimeout
				}
				ts.recordFailure(kind)
				writeError(w, kind, 0, "executing %q: %v", q.String(), xerr)
				return
			}
		}
		resp.Columns = res.Columns
		for _, row := range res.Rows {
			out := make([]string, len(row))
			for i, val := range row {
				out[i] = val.String()
			}
			resp.Rows = append(resp.Rows, out)
		}
	}
	ts.stats.completed.Add(1)
	ts.stats.answeredBy(trace.Tier)
	a := &registry.Answer{Status: http.StatusOK, Tier: trace.Tier, Body: encodeJSON(resp)}
	writeBody(w, a.Status, a.Body)
	if settled {
		v.Answers.Put(key, a)
	}
}

// replay writes a recorded response and counts it the way its
// original was counted — completed under its tier, or failed under
// its kind — and as a replay.
func (ts *tenantState) replay(w http.ResponseWriter, e *equipment, a *registry.Answer) {
	if a.Status == http.StatusOK {
		ts.stats.completed.Add(1)
		ts.stats.answeredBy(a.Tier)
		e.verdictAnswers.Add(1)
	} else {
		ts.recordFailure(ErrorKind(a.Kind))
		e.verdictFailures.Add(1)
	}
	writeBody(w, a.Status, a.Body)
}

// translate runs one question through the version's inference hot
// path and reports whether the outcome is a settled verdict on the
// question the question index may record. With no cache configured it
// is exactly the translator's Translate and records nothing. With a
// cache, the pipeline splits: the deterministic pre-processing runs
// first, and its schema-qualified lemmatized output keys the version's
// result cache of question shapes. Only a leader that misses pays a
// decode; concurrent misses for the same key coalesce onto it. The
// leader caches the shape with its binding-independent decode, or with
// none when every tier failed the question. An outcome that was no
// verdict on the question (trace.Infra: a tier fault, a breaker, a
// sandbox fault; or a request that ended) is never recorded: a failure
// caches nothing, and an answer caches a shape with no decode.
//
// A miss reports its failure as settled but not its answer (see
// answer). Every other request finalizes the shared decode under its
// own constants; a decode that no longer finalizes for them, or a
// shape with no decode, falls back to one fresh full-strength decode,
// which fills an empty decode slot. Its outcome, answer or failure, is
// settled unless a fault shaped it.
func (s *Server) translate(ctx context.Context, v *registry.Version, question string) (*sqlast.Query, *runtime.Trace, bool, error) {
	tr := v.Unit.Translator
	if v.Cache == nil {
		q, trace, err := tr.Translate(ctx, question)
		return q, trace, false, err
	}
	trace := &runtime.Trace{Question: question}
	anon, nl, err := tr.Preprocess(question)
	if err != nil {
		return nil, trace, false, err
	}
	trace.Anonymized = anon.Tokens
	trace.Bindings = anon.Bindings
	trace.Lemmatized = nl

	// The leader finalizes inside the loader (its decode and bindings
	// belong to the same request); leaderQ and leaderErr carry its
	// outcome past the cache.
	var leaderQ *sqlast.Query
	var leaderErr error
	shape, outcome, err := v.Cache.Do(ctx, tr.CacheKey(nl), func(lctx context.Context) (*runtime.Shape, error) {
		q, dec, lerr := tr.TranslatePrepared(lctx, nl, anon.Bindings, trace)
		leaderQ, leaderErr = q, lerr
		// An answer a fault shaped keeps no decode; a failure it
		// shaped caches nothing.
		settled := !trace.Infra && lctx.Err() == nil
		switch {
		case lerr == nil && settled:
			return runtime.NewShape(dec), nil
		case lerr == nil || settled:
			return runtime.NewShape(nil), nil
		}
		return nil, lerr
	})
	trace.Cache = outcome.String()
	if err != nil {
		return nil, trace, false, err
	}
	if outcome == cache.Miss {
		// The loader cached a shape, so a failure here is settled.
		return leaderQ, trace, leaderErr != nil, leaderErr
	}
	var q *sqlast.Query
	var fresh *runtime.DecodeResult
	dec := shape.Decode()
	if dec != nil {
		q, err = tr.Finalize(ctx, dec, anon.Bindings, trace)
	}
	if dec == nil || err != nil {
		// No decode yet, or one stale for these bindings.
		q, fresh, err = tr.TranslatePrepared(ctx, nl, anon.Bindings, trace)
	}
	settled := !trace.Infra && ctx.Err() == nil
	if settled && fresh != nil {
		shape.Record(fresh)
	}
	return q, trace, settled, err
}

// recordFailure bumps the failure counter for the kind.
func (ts *tenantState) recordFailure(kind ErrorKind) {
	switch kind {
	case KindTimeout:
		ts.stats.timeouts.Add(1)
	case KindValidation:
		ts.stats.validation.Add(1)
	}
	ts.stats.failed.Add(1)
}

// parseAsk extracts the question and optional timeout from either
// request form.
func parseAsk(r *http.Request) (askRequest, error) {
	var req askRequest
	if r.Method == http.MethodGet {
		query := r.URL.Query()
		req.Question = query.Get("q")
		if ms := query.Get("timeout_ms"); ms != "" {
			n, err := strconv.Atoi(ms)
			if err != nil || n < 0 {
				return req, errors.New("timeout_ms must be a non-negative integer")
			}
			req.TimeoutMS = n
		}
		return req, nil
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		return req, errors.New("unreadable request body")
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return req, errors.New("malformed JSON body; want {\"question\": \"...\"}")
	}
	if req.TimeoutMS < 0 {
		return req, errors.New("timeout_ms must be non-negative")
	}
	return req, nil
}

// ---------------------------------------------------------------------
// Probes.
// ---------------------------------------------------------------------

// handleHealthz is liveness: 200 as long as the process serves.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: 200 while accepting, 503 once draining.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleStatsz renders the Stats snapshot.
func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}
