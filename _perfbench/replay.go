package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	goruntime "runtime"
	"strings"
	"time"

	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/critic"
	"repro/internal/engine"
	"repro/internal/lemma"
	"repro/internal/models"
	"repro/internal/runtime"
	"repro/internal/sqlast"
)

// The replay re-runs a workload's asks in process, one span around each
// call into a layer's public function, in the order the ask handler
// runs them: parameter handler → lemmatizer → decode (primary, then the
// nearest-neighbor fallback) → parse → post-process → critic (check,
// repair, dry-run) → execute → JSON encode. It calls no serving
// internals: the result cache is stood in for by a memo of decoded
// candidates keyed like the cache, so a repeated question skips decode
// here exactly when it would hit the server's cache.

// injectedLimit mirrors the critic's LIMIT retry after a dry-run
// exhausts its row budget on a query without one.
const injectedLimit = 1000

// verdict is the replay's ruling on one reviewed candidate.
type verdict int

const (
	vValid verdict = iota
	vRepaired
	vUnverified // dry-run ran out of row budget: passed unchecked
	vRejected
	vInfra // the sandbox failed, not the candidate
)

type replayer struct {
	t        *tracer
	tn       *tenant
	primary  models.Translator
	nn       models.Translator
	crit     *critic.Critic
	schema   []string
	memo     map[string][][]string // decoded candidates by cache key
	verdicts [5]int
	failed   int
}

// setupTrace times the set-up layers in process: schema resolution,
// the corpus stage graph, pairing, a one-epoch training run and the
// fallback index, then loads the CLI-trained model the server serves.
func setupTrace(ctx context.Context, t *tracer, schemaName, modelPath string) (*replayer, map[string]float64, error) {
	m := map[string]float64{}
	var (
		tn  = &tenant{}
		err error
	)
	t.timed("boot.resolve", func() {
		tn.schema, tn.db, err = boot.ResolveSchema(schemaName, serverRows, serverSeed)
	})
	if err != nil {
		return nil, nil, err
	}
	var pairs []core.Pair
	g := core.New(tn.schema, core.DefaultParams(), serverSeed).Graph()
	t.timed("pipeline.graph", func() {
		err = g.Run(ctx, func(p core.Pair) error { pairs = append(pairs, p); return nil })
	})
	if err != nil {
		return nil, nil, err
	}
	for _, st := range g.Stats() {
		m["pipeline."+st.Stage+"_ms"] = float64(st.WallNS) / 1e6
	}
	m["pipeline.pairs"] = float64(len(pairs))

	var exs []models.Example
	t.timed("models.pair_examples", func() { exs = models.PairExamples(pairs, tn.schema) })
	cfg := models.DefaultSketchConfig()
	cfg.Seed, cfg.Epochs = serverSeed, 1
	fresh := models.NewSketch(cfg)
	id := t.begin("models.train")
	err = boot.Train(ctx, fresh, exs, boot.TrainOptions{})
	t.end(id)
	if err != nil {
		return nil, nil, err
	}
	nn := models.NewNearestNeighbor()
	t.timed("models.nn_index", func() { nn.Train(exs) })

	var primary models.Translator
	t.timed("boot.load_model", func() { primary, err = boot.LoadModel("sketch", modelPath) })
	if err != nil {
		return nil, nil, err
	}
	rp := &replayer{t: t, tn: tn, primary: primary, nn: nn, memo: map[string][][]string{}}
	t.timed("runtime.new_parameter_handler", func() { tn.ph = runtime.NewParameterHandler(tn.db) })
	t.timed("critic.new", func() { rp.crit = critic.New(tn.db, critic.Config{Seed: serverSeed}) })
	rp.schema = models.SchemaTokens(tn.schema)

	agg := t.aggregate(false)
	m["boot.resolve_ms"] = float64(agg["boot.resolve"].SelfNS) / 1e6
	m["models.train_ms"] = float64(agg["models.train"].SelfNS) / 1e6
	m["models.epoch_ms"] = m["models.train_ms"] / float64(cfg.Epochs)
	m["models.nn_index_ms"] = float64(agg["models.nn_index"].SelfNS) / 1e6
	return rp, m, nil
}

// primaryFilter returns the test a novel question must pass to be
// sent: the served model's own decode of it survives the critic's
// review, so the server answers it from its first tier. The tier
// breakers never see a failure, and a run's outcomes do not depend on
// its speed: a question the model fails goes to the fallback tier, and
// whether that tier's breaker is cooling down when it arrives, which
// decides between a nearest-neighbor answer and a 502, depends on the
// wall clock. Decoding is deterministic, so the filter keeps the list
// a function of the seed and the code.
func primaryFilter(ctx context.Context, tn *tenant, modelPath string) (func(request) bool, error) {
	primary, err := boot.LoadModel("sketch", modelPath)
	if err != nil {
		return nil, err
	}
	rp := &replayer{
		t:       &tracer{off: true},
		tn:      tn,
		primary: primary,
		crit:    critic.New(tn.db, critic.Config{Seed: serverSeed}),
		schema:  models.SchemaTokens(tn.schema),
	}
	return func(r request) bool {
		anon, err := tn.ph.Anonymize(r.NL)
		if err != nil {
			return false
		}
		out := primary.Translate(lemma.LemmatizeAll(anon.Tokens), rp.schema)
		return len(out) > 0 && rp.finalize(ctx, [][]string{out}, anon.Bindings) != nil
	}, nil
}

// replay runs the asks in list order until the list ends or budget
// elapses, returning how many it ran and the bytes allocated per ask.
func (rp *replayer) replay(ctx context.Context, list []request, budget time.Duration, traced bool) (int, float64) {
	rp.t.off = !traced
	defer func() { rp.t.off = false }()
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	t0 := time.Now()
	n := 0
	for i, r := range list {
		if budget > 0 && time.Since(t0) > budget {
			break
		}
		rp.t.req = int32(i)
		root := rp.t.begin("ask")
		if !rp.ask(ctx, r.NL) {
			rp.failed++
		}
		rp.t.end(root)
		n++
	}
	rp.t.req = -1
	goruntime.ReadMemStats(&after)
	perAsk := 0.0
	if n > 0 {
		perAsk = float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}
	return n, perAsk
}

// ask answers one question, reporting whether it produced an answer.
func (rp *replayer) ask(ctx context.Context, question string) bool {
	t := rp.t
	var (
		anon *runtime.Anonymized
		err  error
		nl   []string
	)
	t.timed("runtime.anonymize", func() { anon, err = rp.tn.ph.Anonymize(question) })
	if err != nil {
		return false
	}
	t.timed("lemma.lemmatize", func() { nl = lemma.LemmatizeAll(anon.Tokens) })
	key := rp.tn.schema.Name + "\x1f" + strings.Join(nl, " ")

	var q *sqlast.Query
	if cands, ok := rp.memo[key]; ok {
		q = rp.finalize(ctx, cands, anon.Bindings)
	}
	if q == nil {
		// A miss, or a memoized decode that no longer finalizes for
		// these constants: run the tier chain afresh.
		var cands [][]string
		q, cands = rp.decodeChain(ctx, nl, anon.Bindings)
		if q == nil {
			return false
		}
		rp.memo[key] = cands
	}

	var res *engine.Result
	t.timed("engine.execute", func() { res, err = rp.tn.db.Execute(q) })
	if err != nil {
		return false
	}
	t.timed("serve.encode", func() {
		_, err = json.Marshal(struct {
			Question string     `json:"question"`
			Schema   string     `json:"schema"`
			SQL      string     `json:"sql"`
			Columns  []string   `json:"columns,omitempty"`
			Rows     [][]string `json:"rows,omitempty"`
		}{question, rp.tn.schema.Name, q.String(), res.Columns, renderRows(res)})
	})
	return err == nil
}

// decodeChain decodes with the primary model and, when none of its
// candidates survives finalization, with the nearest-neighbor fallback,
// returning the answer and the candidates that produced it.
func (rp *replayer) decodeChain(ctx context.Context, nl []string, bindings []runtime.Binding) (*sqlast.Query, [][]string) {
	for _, fb := range []bool{false, true} {
		m, name := rp.primary, "models.decode"
		if fb {
			m, name = rp.nn, "models.fallback"
		}
		var out []string
		rp.t.timed(name, func() { out = m.Translate(nl, rp.schema) })
		if len(out) == 0 {
			continue
		}
		cands := [][]string{out}
		if q := rp.finalize(ctx, cands, bindings); q != nil {
			return q, cands
		}
	}
	return nil, nil
}

// finalize walks the ranked candidates validity-first: the first valid
// one wins, else the first repaired one, else the first the sandbox
// itself failed on; nil when the critic rejects them all.
func (rp *replayer) finalize(ctx context.Context, cands [][]string, bindings []runtime.Binding) *sqlast.Query {
	var repaired, degraded *sqlast.Query
	for _, toks := range cands {
		var (
			q   *sqlast.Query
			err error
		)
		rp.t.timed("sqlast.parse", func() { q, err = sqlast.Parse(strings.Join(toks, " ")) })
		if err != nil {
			continue
		}
		rp.t.timed("runtime.postprocess", func() { q, err = runtime.PostProcess(q, rp.tn.schema, bindings) })
		if err != nil {
			continue
		}
		out, v, fixed := rp.review(ctx, q)
		rp.verdicts[v]++
		switch {
		case v == vValid || (v == vUnverified && !fixed):
			return out
		case v == vRepaired || v == vUnverified:
			if repaired == nil {
				repaired = out
			}
		case v == vInfra && degraded == nil:
			degraded = q
		}
	}
	if repaired != nil {
		return repaired
	}
	return degraded
}

// review is the critic's static check, repair on failure, and
// sandboxed dry-run, composed from its public layer functions. fixed
// reports that the returned query differs from q by a repair.
func (rp *replayer) review(ctx context.Context, q *sqlast.Query) (*sqlast.Query, verdict, bool) {
	var cerr *critic.CheckError
	rp.t.timed("critic.check", func() { cerr = rp.crit.Check(q) })
	if cerr == nil {
		return rp.dryRun(ctx, q, false)
	}
	var (
		rq      *sqlast.Query
		changed bool
	)
	rp.t.timed("critic.repair", func() { rq, _, changed = rp.crit.Repair(q) })
	if !changed {
		return nil, vRejected, false
	}
	rp.t.timed("critic.check", func() { cerr = rp.crit.Check(rq) })
	if cerr != nil {
		return nil, vRejected, false
	}
	return rp.dryRun(ctx, rq, true)
}

func (rp *replayer) dryRun(ctx context.Context, q *sqlast.Query, fixed bool) (*sqlast.Query, verdict, bool) {
	var err error
	rp.t.timed("critic.dryrun", func() { err = rp.crit.DryRun(ctx, q) })
	if err == nil {
		if fixed {
			return q, vRepaired, true
		}
		return q, vValid, false
	}
	var xe *critic.ExecError
	if !errors.As(err, &xe) {
		return nil, vRejected, false
	}
	if xe.Infra() {
		return nil, vInfra, false
	}
	if engine.ErrKindOf(xe.Err) != engine.ErrRowBudget {
		return nil, vRejected, false
	}
	if q.Limit < 0 {
		lq := q.Clone()
		lq.Limit = injectedLimit
		rp.t.timed("critic.dryrun", func() { err = rp.crit.DryRun(ctx, lq) })
		if err == nil {
			return lq, vRepaired, true
		}
		if errors.As(err, &xe) && xe.Infra() {
			return nil, vInfra, false
		}
	}
	return q, vUnverified, fixed
}

// verdictFracs reports each verdict's share of reviewed candidates.
func (rp *replayer) verdictFracs() map[string]float64 {
	total := 0
	for _, n := range rp.verdicts {
		total += n
	}
	frac := func(v verdict) float64 {
		if total == 0 {
			return 0
		}
		return float64(rp.verdicts[v]) / float64(total)
	}
	return map[string]float64{
		"critic.valid_frac":      frac(vValid),
		"critic.repaired_frac":   frac(vRepaired),
		"critic.rejected_frac":   frac(vRejected),
		"critic.unverified_frac": frac(vUnverified),
	}
}

func (rp *replayer) String() string {
	return fmt.Sprintf("replay: %d failed asks, verdicts (valid repaired unverified rejected infra) %v", rp.failed, rp.verdicts)
}
