// Patients: the paper's motivating hospital scenario (§1). DBPal
// bootstraps an NLIDB for the medical schema of the Patients benchmark
// and answers the doctor's question — "What is the age distribution of
// patients who stayed longest in the hospital?" — along with several
// linguistic variations of the same information need, demonstrating
// the robustness the augmentation steps buy.
//
// Run with: go run ./examples/patients
package main

import (
	"context"
	"fmt"
	"log"

	dbpal "repro"
	"repro/internal/patients"
)

func main() {
	s := patients.Schema()
	db, err := patients.Database()
	if err != nil {
		log.Fatal(err)
	}

	params := dbpal.DefaultParams()
	params.Instantiation.SizeSlotFills = 6
	pairs := dbpal.GenerateTrainingData(s, params, 3)
	fmt.Printf("pipeline synthesized %d pairs from the %s schema alone\n", len(pairs), s.Name)

	cfg := dbpal.DefaultSketchConfig()
	cfg.Epochs = 5
	model := dbpal.NewSketch(cfg)
	model.Train(dbpal.TrainingExamples(pairs, s))

	nli := dbpal.NewInterface(db, model)

	// Several phrasings of "the ages of the patients with the longest
	// stays", plus other hospital questions.
	questions := []string{
		"show the age of patients sorted descending by length of stay",
		"what is the average age of patients where length of stay is greater than 14",
		"show the name of the patient with the maximum length of stay",
		// linguistic variations of the same question:
		"how many patients have diagnosis influenza",
		"count the patients with influenza",
		"where the diagnosis is influenza, how many patients are there",
	}
	for _, q := range questions {
		res, sql, err := nli.Ask(context.Background(), q)
		if err != nil {
			fmt.Printf("\nQ: %s\n  error: %v\n", q, err)
			continue
		}
		fmt.Printf("\nQ: %s\nSQL: %s\n%s\n", q, sql, clip(res, 6))
	}
}

// clip keeps the example output short for large result tables.
func clip(r *dbpal.Result, maxRows int) *dbpal.Result {
	if len(r.Rows) > maxRows {
		return &dbpal.Result{Columns: r.Columns, Rows: r.Rows[:maxRows]}
	}
	return r
}
