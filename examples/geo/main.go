// Geo: DBPal on the multi-table geography schema (the GeoQuery-style
// domain of the paper's §5 examples), exercising joins resolved
// through the @JOIN placeholder and nested queries ("the mountain with
// the maximum height"). The database is synthetic but honors the
// foreign keys, so join answers are consistent.
//
// Run with: go run ./examples/geo
package main

import (
	"context"
	"fmt"
	"log"

	dbpal "repro"
	"repro/internal/spider"
)

func main() {
	s := spider.SchemaByName("geo")
	db, err := dbpal.GenerateDatabase(s, 30, 5)
	if err != nil {
		log.Fatal(err)
	}

	params := dbpal.DefaultParams()
	params.Instantiation.SizeSlotFills = 5
	pairs := dbpal.GenerateTrainingData(s, params, 9)
	fmt.Printf("pipeline synthesized %d pairs for the %d-table geo schema\n",
		len(pairs), len(s.Tables))

	cfg := dbpal.DefaultSketchConfig()
	cfg.Epochs = 5
	model := dbpal.NewSketch(cfg)
	model.Train(dbpal.TrainingExamples(pairs, s))

	nli := dbpal.NewInterface(db, model)
	questions := []string{
		// joins (the model predicts FROM @JOIN; the post-processor
		// resolves the shortest join path):
		"what is the average height of mountains where the state name is massachusetts",
		"how many cities are there for each state name",
		// nested:
		"show the name of the mountain with the maximum height",
		"show the names of rivers whose length is above the average length",
		// plain:
		"show the population of all cities",
	}
	for _, q := range questions {
		res, sql, err := nli.Ask(context.Background(), q)
		if err != nil {
			fmt.Printf("\nQ: %s\n  error: %v\n", q, err)
			continue
		}
		fmt.Printf("\nQ: %s\nSQL: %s\n%s\n", q, sql, clip(res, 5))
	}
}

func clip(r *dbpal.Result, maxRows int) *dbpal.Result {
	if len(r.Rows) > maxRows {
		return &dbpal.Result{Columns: r.Columns, Rows: r.Rows[:maxRows]}
	}
	return r
}
