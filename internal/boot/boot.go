// Package boot builds the self-contained serving unit for one schema:
// resolve the schema and its database, construct (or load) the
// pluggable model, and, unless its weights were loaded, synthesize the
// training corpus through the streaming stage graph and train it —
// optionally with checkpoint/resume — then wire the runtime translator
// with its critic and the critic's beam. A -load boot runs no stage
// graph. It is the single construction path shared by cmd/dbpal,
// cmd/dbpal-serve, cmd/dbpal-eval, and internal/registry's background
// onboarding, which runs the same steps piecewise so it can report
// per-stage status.
package boot

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/critic"
	"repro/internal/engine"
	"repro/internal/models"
	"repro/internal/patients"
	"repro/internal/runtime"
	"repro/internal/schema"
	"repro/internal/spider"
)

// SynthPrefix selects a generated cross-domain schema: "synth:<seed>"
// resolves to spider.GenerateSchema(seed).
const SynthPrefix = "synth:"

// Spec describes everything needed to build one tenant: the schema,
// the model architecture and its training inputs, and the runtime
// wiring. The zero value is not useful; Schema is required, the rest
// default via withDefaults.
type Spec struct {
	// Schema names the tenant: "patients", a spider-zoo schema, or
	// "synth:<seed>" for a generated one.
	Schema string
	// Model is the translator architecture: "sketch" (default),
	// "seq2seq", or "nn".
	Model string
	// LoadPath, when set, loads model weights saved by dbpal-train
	// instead of training.
	LoadPath string
	// Seed drives data generation, training, and database synthesis.
	Seed int64
	// Rows is the synthetic rows per table for non-patients schemas.
	Rows int
	// Deadline is the per-question inference deadline per tier.
	Deadline time.Duration
	// Critic enables the execution-guided validation-and-repair layer:
	// every candidate is schema-checked, dry-run in a sandbox against
	// the tenant's engine, and deterministically repaired before it can
	// become an answer.
	Critic bool
	// CriticRowBudget caps environment rows per critic dry-run
	// (0 = critic default).
	CriticRowBudget int
	// CriticTimeout bounds one critic dry-run (0 = critic default).
	CriticTimeout time.Duration
	// Params overrides the pipeline generation knobs (nil = defaults).
	Params *core.Params
	// Sketch / Seq2Seq override the model configuration (nil =
	// defaults with Seed applied).
	Sketch  *models.SketchConfig
	Seq2Seq *models.Seq2SeqConfig
	// Factory, when non-nil, supplies the primary model instead of
	// Model/Sketch/Seq2Seq — the pluggability seam (and the test seam
	// for forcing a bad model through the registry's eval gate).
	Factory func(seed int64) models.Translator
	// Train configures checkpoint/resume for trainable models.
	Train models.TrainOptions
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (sp Spec) WithDefaults() Spec {
	if sp.Model == "" {
		sp.Model = "sketch"
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.Rows == 0 {
		sp.Rows = 40
	}
	return sp
}

func (sp Spec) logf(format string, args ...any) {
	if sp.Logf != nil {
		sp.Logf(format, args...)
	}
}

// ParamsOrDefault returns the pipeline knobs the spec resolves to.
func (sp Spec) ParamsOrDefault() core.Params {
	if sp.Params != nil {
		return *sp.Params
	}
	return core.DefaultParams()
}

// Unit is one fully assembled tenant: schema, database, trained model,
// and the wired runtime translator.
type Unit struct {
	Schema     *schema.Schema
	DB         *engine.Database
	Model      models.Translator
	Translator *runtime.Translator
	// Pairs is the synthesized corpus size: the pairs the stage graph
	// emitted for training (0 when weights were loaded, since a -load
	// boot synthesizes no corpus).
	Pairs int
}

// TenantName resolves the tenant name a spec will register under
// without building anything (synth:<seed> schemas are named by the
// generator, everything else by the schema name itself).
func TenantName(schemaName string) string {
	if seed, ok := synthSeed(schemaName); ok {
		return fmt.Sprintf("synth%d", seed)
	}
	return schemaName
}

func synthSeed(name string) (int64, bool) {
	if !strings.HasPrefix(name, SynthPrefix) {
		return 0, false
	}
	seed, err := strconv.ParseInt(strings.TrimPrefix(name, SynthPrefix), 10, 64)
	if err != nil {
		return 0, false
	}
	return seed, true
}

// ResolveSchema maps a schema name to the schema and a populated
// database: "patients" loads the paper's benchmark database, zoo names
// get synthetic rows, and "synth:<seed>" generates a cross-domain
// schema first.
func ResolveSchema(name string, rows int, seed int64) (*schema.Schema, *engine.Database, error) {
	if name == "patients" {
		db, err := patients.Database()
		if err != nil {
			return nil, nil, err
		}
		return patients.Schema(), db, nil
	}
	s := spider.SchemaByName(name)
	if s == nil {
		if synth, ok := synthSeed(name); ok {
			s = spider.GenerateSchema(synth)
		} else if strings.HasPrefix(name, SynthPrefix) {
			return nil, nil, fmt.Errorf("bad synthetic schema %q: want %s<seed>", name, SynthPrefix)
		}
	}
	if s == nil {
		var names []string
		for _, z := range spider.AllSchemas() {
			names = append(names, z.Name)
		}
		return nil, nil, fmt.Errorf("unknown schema %q; available: patients, %s, or %s<seed>",
			name, strings.Join(names, ", "), SynthPrefix)
	}
	db, err := engine.GenerateData(s, rows, seed)
	if err != nil {
		return nil, nil, err
	}
	return s, db, nil
}

// Pairs runs the full generate→augment→lemmatize→dedup stage graph
// for the schema with cooperative cancellation, returning the corpus.
func Pairs(ctx context.Context, s *schema.Schema, p core.Params, seed int64) ([]core.Pair, error) {
	var out []core.Pair
	if err := core.New(s, p, seed).Graph().Run(ctx, func(q core.Pair) error { out = append(out, q); return nil }); err != nil {
		return nil, err
	}
	return out, nil
}

// ModelFor constructs the spec's untrained primary model (or loads it
// from LoadPath).
func ModelFor(sp Spec) (models.Translator, error) {
	sp = sp.WithDefaults()
	if sp.Factory != nil {
		return sp.Factory(sp.Seed), nil
	}
	if sp.LoadPath != "" && sp.Model != "nn" {
		return LoadModel(sp.Model, sp.LoadPath)
	}
	switch sp.Model {
	case "nn":
		return models.NewNearestNeighbor(), nil
	case "seq2seq":
		cfg := models.DefaultSeq2SeqConfig()
		if sp.Seq2Seq != nil {
			cfg = *sp.Seq2Seq
		} else {
			cfg.Seed = sp.Seed
		}
		return models.NewSeq2Seq(cfg), nil
	case "sketch":
		cfg := models.DefaultSketchConfig()
		if sp.Sketch != nil {
			cfg = *sp.Sketch
		} else {
			cfg.Seed = sp.Seed
		}
		return models.NewSketch(cfg), nil
	default:
		return nil, fmt.Errorf("unknown model kind %q (want sketch, seq2seq, or nn)", sp.Model)
	}
}

// LoadModel reads model weights saved by dbpal-train.
func LoadModel(kind, path string) (models.Translator, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var m models.Translator
	if kind == "seq2seq" {
		m, err = models.LoadSeq2Seq(f)
	} else {
		m, err = models.LoadSketch(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// ContextTrainer is implemented by models supporting cancellable,
// checkpointable training.
type ContextTrainer interface {
	TrainContext(ctx context.Context, examples []models.Example, opts TrainOptions) error
}

// TrainOptions aliases the models package's options so registry/cmd
// callers configure checkpointing through boot alone.
type TrainOptions = models.TrainOptions

// Train fits the model: through TrainContext (checkpoint/resume,
// cancellation) when the model supports it, plain Train otherwise.
func Train(ctx context.Context, m models.Translator, exs []models.Example, opts TrainOptions) error {
	if ct, ok := m.(ContextTrainer); ok {
		return ct.TrainContext(ctx, exs, opts)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// Models without TrainContext train uninterruptibly by design;
	// ctx is checked immediately above, and the registry bounds the
	// whole onboarding with WaitCtx at shutdown.
	m.Train(exs) //lint:allow ctxdrop legacy Translator.Train has no context variant; ctx checked just above and shutdown is bounded by Registry.WaitCtx
	return nil
}

// CriticBeam is how many ranked candidates every tier of a critic-on
// tenant decodes: the critic answers with the first that passes its
// checks, so the beam is a question's second chance. Five is the
// smallest width that, on every model measured, answered as many
// development questions right as beam 1 with the template
// nearest-neighbor tier behind it, and left fewer unanswered
// (BENCH_serve.json, served_beam).
const CriticBeam = 5

// Assemble wires a trained model to its database: the runtime
// translator with its per-tier deadline and, when the spec asks for
// one, the critic with CriticBeam candidates to choose from. pairs is
// the corpus size the model trained on (Unit.Pairs). It is the one
// place a tenant's critic is constructed; the serving layer only wires
// breakers around it.
func Assemble(sp Spec, s *schema.Schema, db *engine.Database, m models.Translator, pairs int) *Unit {
	sp = sp.WithDefaults()
	tr := runtime.NewTranslator(db, m)
	tr.Deadline = sp.Deadline
	if sp.Critic {
		tr.Critic = critic.New(db, critic.Config{
			RowBudget: sp.CriticRowBudget,
			Timeout:   sp.CriticTimeout,
			Seed:      sp.Seed,
		})
		tr.Beam = CriticBeam
	}
	return &Unit{Schema: s, DB: db, Model: m, Translator: tr, Pairs: pairs}
}

// Build runs the whole construction path in one call: resolve, model,
// corpus, train, assemble. Loaded weights skip the corpus and the
// training. Callers needing per-stage progress (the registry's
// onboarding status) run the same steps individually.
func Build(ctx context.Context, sp Spec) (*Unit, error) {
	sp = sp.WithDefaults()
	s, db, err := ResolveSchema(sp.Schema, sp.Rows, sp.Seed)
	if err != nil {
		return nil, err
	}
	m, err := ModelFor(sp)
	if err != nil {
		return nil, err
	}
	if sp.LoadPath != "" && sp.Model != "nn" && sp.Factory == nil {
		sp.logf("loaded %s model from %s", sp.Model, sp.LoadPath)
		return Assemble(sp, s, db, m, 0), nil
	}
	ps, err := Pairs(ctx, s, sp.ParamsOrDefault(), sp.Seed)
	if err != nil {
		return nil, err
	}
	sp.logf("pipeline synthesized %d NL-SQL pairs", len(ps))
	exs := models.PairExamples(ps, s)
	sp.logf("bootstrapping DBPal for schema %q (%s model)...", s.Name, sp.Model)
	if err := Train(ctx, m, exs, sp.Train); err != nil {
		return nil, err
	}
	return Assemble(sp, s, db, m, len(ps)), nil
}
