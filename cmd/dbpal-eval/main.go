// Command dbpal-eval evaluates a trained model (saved by dbpal-train)
// or a freshly bootstrapped one on the Patients benchmark, printing
// per-category semantic-equivalence accuracy and, optionally, every
// failure for error analysis.
//
//	dbpal-eval -load patients.model -model sketch
//	dbpal-eval -train -failures
//	dbpal-eval -critic -schema flights -critic-questions 200
//
// -critic switches to the execution-guided critic comparison: a model
// is bootstrapped for -schema, a spider-style workload is sampled, and
// every question's candidate beam is finalized twice — with and
// without the critic — reporting the valid-SQL rate, exact-match
// rate, repair count, and rejection count of each arm. The report is
// bit-identical at any -workers count.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	dbpal "repro"
	"repro/internal/boot"
	"repro/internal/critic"
	"repro/internal/eval"
	"repro/internal/fault"
	"repro/internal/patients"
	"repro/internal/runtime"
	"repro/internal/spider"
)

func main() {
	var (
		modelKind = flag.String("model", "sketch", "translator: sketch | seq2seq")
		loadPath  = flag.String("load", "", "model file saved by dbpal-train")
		train     = flag.Bool("train", false, "bootstrap and train a fresh model instead of loading")
		failures  = flag.Bool("failures", false, "print every failed case")
		seed      = flag.Int64("seed", 1, "pipeline/training seed for -train")
		beam      = flag.Int("beam", 1, "ranked candidates decoded per question; the first usable one answers, or the critic's pick under -critic")
		workers   = flag.Int("workers", 0, "evaluation worker-pool bound (0 = all cores)")

		criticOn  = flag.Bool("critic", false, "run the critic-on/off comparison on a spider-style workload instead of the Patients benchmark")
		schemaN   = flag.String("schema", "patients", "schema for the -critic workload: patients | flights | ... | synth:<seed>")
		criticQs  = flag.Int("critic-questions", 200, "workload size for -critic")
		rowBudget = flag.Int("critic-budget", 0, "critic dry-run row budget (0 = default)")
		criticTO  = flag.Duration("critic-timeout", 0, "critic dry-run deadline (0 = default)")
		rows      = flag.Int("rows", 40, "synthetic rows per table for non-patients schemas")
		corrupt   = flag.Int("corrupt", 0, "with -critic: inject identifier typos into one-in-N questions' decodes to exercise repair (0 = off)")
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel the evaluation; the report for the cases
	// completed so far is still printed (flagged as partial).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *criticOn {
		if err := runCritic(ctx, criticConfig{
			schema: *schemaN, model: *modelKind, loadPath: *loadPath, seed: *seed,
			rows: *rows, questions: *criticQs, beam: *beam, workers: *workers,
			corrupt: *corrupt,
			critic:  critic.Config{RowBudget: *rowBudget, Timeout: *criticTO, Seed: *seed},
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	// Model construction goes through the shared boot path: -load reads
	// saved weights, -train runs the full bootstrap (the same steps
	// dbpal and dbpal-serve use).
	var model dbpal.Translator
	switch {
	case *loadPath != "":
		m, err := boot.LoadModel(*modelKind, *loadPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		model = m
	case *train:
		t0 := time.Now() //lint:allow determinism wall-clock timing is progress reporting only
		u, err := boot.Build(ctx, boot.Spec{
			Schema: "patients", Model: *modelKind, Seed: *seed,
			Logf: func(format string, args ...any) {
				fmt.Printf(format+"\n", args...)
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		model = u.Model
		fmt.Printf("trained in %s\n", time.Since(t0).Round(time.Millisecond))
	default:
		fmt.Fprintln(os.Stderr, "pass -load <file> or -train")
		os.Exit(2)
	}

	db, err := patients.Database()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cases := patients.Cases()
	rt := runtime.NewTranslator(db, model)
	rt.Beam = *beam
	rep, evalErr := eval.EvalPatients(ctx, rt, cases, *workers)
	if evalErr != nil {
		fmt.Fprintf(os.Stderr, "evaluation interrupted (%v): partial report over %d/%d cases\n",
			evalErr, rep.Overall.Total, len(cases))
	}

	fmt.Printf("\nPatients benchmark (%s model, semantic equivalence)\n", model.Name())
	for _, c := range patients.Categories {
		fmt.Printf("  %-14s %s\n", c, rep.ByCategory[c])
	}
	fmt.Printf("  %-14s %s\n", "Overall", &rep.Overall)

	if *failures {
		fmt.Printf("\n%d failures:\n", len(rep.Failures))
		for _, f := range rep.Failures {
			fmt.Printf("- [%s] %s\n  gold: %s\n", f.Case.ID, f.Case.NL, f.Case.SQL)
			if f.Pred != "" {
				fmt.Printf("  pred: %s\n", f.Pred)
			}
			if f.Err != "" {
				fmt.Printf("  err:  %s\n", f.Err)
			}
		}
	}
	if evalErr != nil {
		os.Exit(1)
	}
}

// criticConfig parameterizes the -critic comparison run.
type criticConfig struct {
	schema, model, loadPath string
	seed                    int64
	rows, questions         int
	beam, workers           int
	corrupt                 int
	critic                  critic.Config
}

// runCritic bootstraps a model for the schema, samples the workload,
// and prints the critic-on/off comparison.
func runCritic(ctx context.Context, cfg criticConfig) error {
	u, err := boot.Build(ctx, boot.Spec{
		Schema:   cfg.schema,
		Model:    cfg.model,
		LoadPath: cfg.loadPath,
		Seed:     cfg.seed,
		Rows:     cfg.rows,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	model := u.Model
	if cfg.corrupt > 0 {
		var cols []string
		for _, t := range u.Schema.Tables {
			for _, c := range t.Columns {
				cols = append(cols, c.Name)
			}
		}
		model = fault.NewTypos(model, fault.NewInjector(cfg.seed, cfg.corrupt), cols)
	}
	qs := spider.Workload(u.Schema, cfg.questions, cfg.seed+7919)
	rep, evalErr := eval.EvalCriticCtx(ctx, model, u.Schema, u.DB, qs, cfg.beam, cfg.critic, cfg.workers)
	if evalErr != nil {
		fmt.Fprintf(os.Stderr, "evaluation interrupted (%v): partial report over %d/%d questions\n",
			evalErr, rep.Questions, len(qs))
	}
	fmt.Printf("\nExecution-guided critic (schema %s, %d questions, %s model, beam %d)\n",
		u.Schema.Name, rep.Questions, model.Name(), cfg.beam)
	fmt.Printf("  critic off  %s\n", rep.Off)
	fmt.Printf("  critic on   %s\n", rep.On)
	fmt.Printf("  valid-rate delta: %+.3f\n", rep.On.Valid.Acc()-rep.Off.Valid.Acc())
	if evalErr != nil {
		return fmt.Errorf("partial: %w", evalErr)
	}
	return nil
}
