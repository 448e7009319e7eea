package dbpal_test

import (
	"context"
	"strings"
	"testing"

	dbpal "repro"
)

func citySchema() *dbpal.Schema {
	return &dbpal.Schema{
		Name: "cities",
		Tables: []*dbpal.Table{
			{
				Name:     "city",
				Readable: "city",
				Columns: []*dbpal.Column{
					{Name: "id", Type: dbpal.Number, PrimaryKey: true},
					{Name: "name", Type: dbpal.Text},
					{Name: "state_name", Type: dbpal.Text, Readable: "state"},
					{Name: "population", Type: dbpal.Number},
				},
			},
		},
	}
}

func cityDB(t *testing.T) *dbpal.Database {
	t.Helper()
	db := dbpal.NewDatabase(citySchema())
	rows := []struct {
		name, state string
		pop         float64
	}{
		{"boston", "massachusetts", 650000},
		{"springfield", "massachusetts", 155000},
		{"portland", "oregon", 650000},
		{"austin", "texas", 960000},
	}
	for i, r := range rows {
		if err := db.Insert("city", dbpal.Row{
			dbpal.Num(float64(i + 1)), dbpal.Str(r.name), dbpal.Str(r.state), dbpal.Num(r.pop),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestEndToEndLifecycle walks the paper's Figure-1 lifecycle through
// the public API: schema -> synthesized training data -> trained model
// -> NL question -> SQL -> executed tabular result.
func TestEndToEndLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped in -short mode")
	}
	s := citySchema()
	params := dbpal.DefaultParams()
	params.Instantiation.SizeSlotFills = 4
	pairs := dbpal.GenerateTrainingData(s, params, 1)
	if len(pairs) < 500 {
		t.Fatalf("pipeline produced only %d pairs", len(pairs))
	}

	cfg := dbpal.DefaultSketchConfig()
	cfg.Epochs = 4
	model := dbpal.NewSketch(cfg)
	model.Train(dbpal.TrainingExamples(pairs, s))

	nli := dbpal.NewInterface(cityDB(t), model)
	res, sql, err := nli.Ask(context.Background(), "show me all cities in massachusetts")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql.String(), "'massachusetts'") {
		t.Fatalf("constant not restored in %s", sql)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("expected the 2 massachusetts cities, got %d rows:\n%s", len(res.Rows), res)
	}

	res2, _, err := nli.Ask(context.Background(), "how many cities are there")
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != 1 || res2.Rows[0][0].Num != 4 {
		t.Fatalf("count result = %v", res2.Rows)
	}
}

func TestPublicHelpers(t *testing.T) {
	s := citySchema()
	toks := dbpal.SchemaTokens(s)
	if len(toks) == 0 {
		t.Fatal("SchemaTokens empty")
	}
	db, err := dbpal.GenerateDatabase(s, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Tables["city"].Rows) != 10 {
		t.Fatalf("generated rows = %d", len(db.Tables["city"].Rows))
	}
	if dbpal.Num(3).Num != 3 || dbpal.Str("x").Str != "x" {
		t.Fatal("value constructors broken")
	}
	p := dbpal.DefaultParams()
	if p.Instantiation.SizeSlotFills <= 0 || p.Augmentation.NumPara <= 0 {
		t.Fatalf("unexpected defaults: %+v", p)
	}
}

// TestStreamMatchesGenerate pins the facade's streaming entry point to
// the batch one: same pairs, same order, no materialized corpus.
func TestStreamMatchesGenerate(t *testing.T) {
	s := citySchema()
	params := dbpal.DefaultParams()
	params.Instantiation.SizeSlotFills = 2
	want := dbpal.GenerateTrainingData(s, params, 5)
	i := 0
	err := dbpal.StreamTrainingData(s, params, 5, func(p dbpal.Pair) error {
		if i >= len(want) || p != want[i] {
			t.Fatalf("streamed pair %d diverges from batch output", i)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(want) {
		t.Fatalf("streamed %d pairs, batch produced %d", i, len(want))
	}
	if want[0].Stage == "" || want[0].Origin == "" {
		t.Fatalf("missing provenance on %+v", want[0])
	}
}

func TestBothModelsPluggable(t *testing.T) {
	var translators []dbpal.Translator
	translators = append(translators, dbpal.NewSketch(dbpal.DefaultSketchConfig()))
	translators = append(translators, dbpal.NewSeq2Seq(dbpal.DefaultSeq2SeqConfig()))
	names := map[string]bool{}
	for _, tr := range translators {
		names[tr.Name()] = true
	}
	if !names["sketch"] || !names["seq2seq"] {
		t.Fatalf("translator names = %v", names)
	}
}
