// Quickstart: the complete DBPal lifecycle of the paper's Figure 1 on
// a tiny city/state schema — bootstrap training data from the schema
// alone, train a pluggable model, and answer "Show me all cities in
// Massachusetts!" end to end (parameter handling, translation,
// post-processing, execution, tabular result).
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	dbpal "repro"
)

func citySchema() *dbpal.Schema {
	return &dbpal.Schema{
		Name: "cities",
		Tables: []*dbpal.Table{
			{
				Name:     "city",
				Readable: "city",
				Synonyms: []string{"town"},
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

func main() {
	s := citySchema()

	// A database to query. Normally you load your own rows; here we
	// insert a handful so the example is self-contained.
	db := dbpal.NewDatabase(s)
	for i, r := range []struct {
		name, state string
		pop         float64
	}{
		{"boston", "massachusetts", 650000},
		{"springfield", "massachusetts", 155000},
		{"cambridge", "massachusetts", 118000},
		{"portland", "oregon", 650000},
		{"salem", "oregon", 175000},
		{"austin", "texas", 960000},
	} {
		if err := db.Insert("city", dbpal.Row{
			dbpal.Num(float64(i + 1)), dbpal.Str(r.name), dbpal.Str(r.state), dbpal.Num(r.pop),
		}); err != nil {
			log.Fatal(err)
		}
	}

	// Training phase: DBPal synthesizes the corpus from the schema —
	// no manually labeled NL-SQL pairs anywhere.
	params := dbpal.DefaultParams()
	params.Instantiation.SizeSlotFills = 4 // small corpus keeps the example fast
	pairs := dbpal.GenerateTrainingData(s, params, 1)
	fmt.Printf("pipeline synthesized %d training pairs, e.g.:\n", len(pairs))
	for _, p := range pairs[:3] {
		fmt.Printf("  NL:  %s\n  SQL: %s\n", p.NL, p.SQL)
	}

	cfg := dbpal.DefaultSketchConfig()
	cfg.Epochs = 4
	model := dbpal.NewSketch(cfg)
	model.Train(dbpal.TrainingExamples(pairs, s))

	// Runtime phase: ask in natural language.
	nli := dbpal.NewInterface(db, model)
	for _, question := range []string{
		"show me all cities in massachusetts",
		"how many cities are there",
		"what is the average population of cities where state is oregon",
		"show the name of the city with the maximum population",
	} {
		res, sql, err := nli.Ask(context.Background(), question)
		if err != nil {
			log.Fatalf("%q: %v", question, err)
		}
		fmt.Printf("\nQ: %s\nSQL: %s\n%s\n", question, sql, res)
	}
}
