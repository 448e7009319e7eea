// Package dbpal is a Go implementation of DBPal, the fully pluggable
// NL2SQL training pipeline of Weir et al. (SIGMOD 2020). Given only an
// annotated database schema, DBPal synthesizes large corpora of
// (natural language, SQL) training pairs by weak supervision —
// balanced template instantiation, automatic paraphrasing, word
// dropout, and lemmatization — and uses them to train any pluggable
// translation model. A runtime layer anonymizes constants in user
// questions, translates them, repairs the SQL, and executes it.
//
// The package is a facade over the internal subsystems:
//
//	schema      annotated relational schemas + join graph
//	pipeline    the streaming stage substrate (Stage, Graph, Stats)
//	core        the training pipeline (generate -> augment -> lemmatize -> dedup)
//	models      pluggable translators (seq2seq with copy; sketch-guided)
//	runtime     parameter handling, post-processing, end-to-end Ask
//	engine      in-memory SQL execution
//
// Quickstart:
//
//	s := mySchema()                                  // *dbpal.Schema
//	db, _ := dbpal.GenerateDatabase(s, 50, 1)        // or load your own rows
//	pairs := dbpal.GenerateTrainingData(s, dbpal.DefaultParams(), 1)
//	model := dbpal.NewSeq2Seq(dbpal.DefaultSeq2SeqConfig())
//	model.Train(dbpal.TrainingExamples(pairs, s))
//	nli := dbpal.NewInterface(db, model)
//	result, sql, _ := nli.Ask(ctx, "show me all cities in massachusetts")
//
// The training pipeline is composed from streaming stages; callers who
// need more than GenerateTrainingData can edit the stage list (ablate,
// reorder, observe) or stream pairs in constant memory:
//
//	p := dbpal.NewPipeline(s, dbpal.DefaultParams(), 1)
//	g := p.Graph(p.GenerateStage(), p.AugmentStage(), dbpal.LemmaStage(), dbpal.DedupStage())
//	err := g.Run(ctx, func(pair dbpal.Pair) error { return write(pair) })
//	stats := g.Stats() // per-stage pairs in/out, self time, dedup hits
package dbpal

import (
	"context"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/models"
	"repro/internal/pipeline"
	"repro/internal/runtime"
	"repro/internal/schema"
)

// Re-exported core types. The aliases make the public API importable
// from a single package without hiding the concrete documentation on
// the internal types.
type (
	// Schema is an annotated relational database schema.
	Schema = schema.Schema
	// Table is one schema table.
	Table = schema.Table
	// Column is one typed, annotated table column.
	Column = schema.Column
	// ForeignKey is a join-graph edge.
	ForeignKey = schema.ForeignKey
	// ColumnType distinguishes Text from Number columns.
	ColumnType = schema.ColumnType
	// Domain tags a column's semantic domain for comparative phrasing.
	Domain = schema.Domain

	// Params collects every tunable knob of the data-generation
	// procedure (the paper's Table 1).
	Params = core.Params
	// Pair is one synthesized NL–SQL training pair (with provenance:
	// the stage that created it and the variant origin).
	Pair = core.Pair
	// Pipeline is a configured training-data pipeline.
	Pipeline = core.Pipeline
	// Stage is one streaming transform in a pipeline graph.
	Stage = pipeline.Stage
	// Graph is a runnable chain of stages.
	Graph = pipeline.Graph
	// StageStats is one stage's instrumentation snapshot.
	StageStats = pipeline.Stats

	// Translator is the pluggable model contract.
	Translator = models.Translator
	// Example is one model training instance.
	Example = models.Example
	// Seq2SeqConfig sizes the attention+copy seq2seq translator.
	Seq2SeqConfig = models.Seq2SeqConfig
	// SketchConfig sizes the sketch-guided translator.
	SketchConfig = models.SketchConfig

	// Database is an in-memory database bound to a schema.
	Database = engine.Database
	// Result is a query result table.
	Result = engine.Result
	// Row is one tuple.
	Row = engine.Row
	// Value is one cell value.
	Value = engine.Value

	// Interface is the end-to-end NL query interface (Figure 1 of the
	// paper): pre-processing, translation, post-processing, execution.
	Interface = runtime.Translator
)

// Column type and domain constants, re-exported.
const (
	Text   = schema.Text
	Number = schema.Number
)

// DefaultParams returns the pipeline defaults (empirically determined
// in the paper; tune per schema with hyperopt.RandomSearch).
func DefaultParams() Params { return core.DefaultParams() }

// DefaultSeq2SeqConfig returns the standard small seq2seq
// configuration.
func DefaultSeq2SeqConfig() Seq2SeqConfig { return models.DefaultSeq2SeqConfig() }

// DefaultSketchConfig returns the standard small sketch-model
// configuration.
func DefaultSketchConfig() SketchConfig { return models.DefaultSketchConfig() }

// GenerateTrainingData runs the full DBPal pipeline (generate ->
// augment -> lemmatize -> dedup) for the schema and returns the
// synthesized training pairs. Deterministic given seed.
func GenerateTrainingData(s *Schema, p Params, seed int64) []Pair {
	return core.New(s, p, seed).Run()
}

// StreamTrainingData runs the full pipeline, handing each pair to emit
// in corpus order without materializing the corpus — constant memory
// at any size. It returns the first error emit returns.
func StreamTrainingData(s *Schema, p Params, seed int64, emit func(Pair) error) error {
	return core.New(s, p, seed).Graph().Run(context.Background(), emit)
}

// NewPipeline returns a configured pipeline whose stage list can be
// edited before running (see Pipeline.Graph and the stage
// constructors).
func NewPipeline(s *Schema, p Params, seed int64) *Pipeline {
	return core.New(s, p, seed)
}

// LemmaStage returns the word-form-normalization stage for custom
// stage lists.
func LemmaStage() Stage { return core.LemmaStage() }

// DedupStage returns the exact-duplicate filter stage for custom stage
// lists.
func DedupStage() Stage { return core.DedupStage() }

// TrainingExamples converts pipeline pairs into model training
// examples carrying the schema-token context.
func TrainingExamples(pairs []Pair, s *Schema) []Example {
	return models.PairExamples(pairs, s)
}

// SchemaTokens linearizes a schema into the token context consumed by
// the models (useful when calling Translator.Translate directly).
func SchemaTokens(s *Schema) []string { return models.SchemaTokens(s) }

// NewSeq2Seq returns an untrained attention+copy seq2seq translator.
func NewSeq2Seq(cfg Seq2SeqConfig) *models.Seq2Seq { return models.NewSeq2Seq(cfg) }

// NewSketch returns an untrained sketch-guided translator (the
// SyntaxSQLNet-style architecture).
func NewSketch(cfg SketchConfig) *models.Sketch { return models.NewSketch(cfg) }

// NewDatabase returns an empty database for the schema; fill it with
// Insert.
func NewDatabase(s *Schema) *Database { return engine.NewDatabase(s) }

// GenerateDatabase builds a database with synthetic but plausible
// rows (rowsPerTable per table), honoring primary and foreign keys.
func GenerateDatabase(s *Schema, rowsPerTable int, seed int64) (*Database, error) {
	return engine.GenerateData(s, rowsPerTable, seed)
}

// NewInterface wires a trained translator to a database, yielding the
// end-to-end natural-language query interface.
func NewInterface(db *Database, model Translator) *Interface {
	return runtime.NewTranslator(db, model)
}

// Num and Str build database cell values.
func Num(v float64) Value { return engine.Num(v) }

// Str builds a text cell value.
func Str(s string) Value { return engine.Str(s) }
