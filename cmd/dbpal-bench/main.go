// Command dbpal-bench regenerates the tables and figures of the DBPal
// paper's evaluation (SIGMOD 2020, §6) on the synthetic substrate of
// this repository:
//
//	dbpal-bench -table 2      Spider benchmark by difficulty
//	dbpal-bench -table 3      Patients benchmark by linguistic category
//	dbpal-bench -table 4      pattern-coverage breakdown
//	dbpal-bench -figure 3     seed-template fraction sweep
//	dbpal-bench -figure 4     hyperparameter random-search histogram
//	dbpal-bench -ablation     pipeline design-choice ablations
//	dbpal-bench -speedup      parallel-scaling check (workers=1 vs -workers)
//	dbpal-bench -all          everything above (except -speedup)
//
// Flags -quick (reduced scale), -model sketch|seq2seq, and -seed
// control the run; -workers bounds every worker pool (0 = all cores,
// 1 = fully sequential — results are identical either way). Models
// train one example per optimizer step, the paper's regime.
// Results are printed in the same row/series layout the paper reports;
// see EXPERIMENTS.md for the recorded paper-vs-measured comparison.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	goruntime "runtime"
	"syscall"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		table     = flag.Int("table", 0, "regenerate table 2, 3, or 4")
		figure    = flag.Int("figure", 0, "regenerate figure 3 or 4")
		ablation  = flag.Bool("ablation", false, "run the pipeline ablations")
		searchcmp = flag.Bool("searchcmp", false, "compare random vs model-based hyperparameter search")
		all       = flag.Bool("all", false, "run every experiment")
		quick     = flag.Bool("quick", false, "reduced scale (faster, noisier)")
		model     = flag.String("model", "sketch", "translator: sketch | seq2seq")
		seed      = flag.Int64("seed", 7, "experiment seed")
		trials    = flag.Int("trials", 0, "override hyperopt trial count (figure 4)")
		workers   = flag.Int("workers", 0, "worker-pool bound for every parallel stage (0 = all cores)")
		speedup   = flag.Bool("speedup", false, "measure parallel speedup: quick Spider experiment at workers=1 vs -workers")
	)
	flag.Parse()

	scale := experiments.DefaultScale()
	if *quick {
		scale = experiments.QuickScale()
	}
	scale.ModelKind = *model
	scale.Seed = *seed
	scale.Workers = *workers
	if *trials > 0 {
		scale.HyperoptTrials = *trials
	}

	// SIGINT/SIGTERM stop the suite at the next experiment boundary:
	// the experiment in flight finishes and prints, later ones are
	// skipped.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	ran := false
	start := time.Now() //lint:allow determinism wall-clock timing is benchmark reporting only
	run := func(name string, fn func()) {
		if ctx.Err() != nil {
			fmt.Printf("[%s skipped: interrupted]\n\n", name)
			return
		}
		t0 := time.Now() //lint:allow determinism wall-clock timing is benchmark reporting only
		fn()
		fmt.Printf("[%s finished in %s]\n\n", name, time.Since(t0).Round(time.Millisecond))
		ran = true
	}

	wantTable := func(n int) bool { return *all || *table == n }
	wantFigure := func(n int) bool { return *all || *figure == n }

	if wantTable(2) || wantTable(4) {
		run("spider experiment", func() {
			e := experiments.RunSpider(scale)
			if wantTable(2) {
				fmt.Println(e.Table2())
			}
			if wantTable(4) {
				fmt.Println(e.Table4())
			}
		})
	}
	if wantTable(3) {
		run("patients experiment", func() {
			e := experiments.RunPatients(scale)
			fmt.Println(e.Table3())
		})
	}
	if wantFigure(3) {
		run("figure 3", func() {
			fmt.Println(experiments.RunFigure3(scale).Format())
		})
	}
	if wantFigure(4) {
		run("figure 4", func() {
			fmt.Println(experiments.RunFigure4(scale).Format())
		})
	}
	if *all || *ablation {
		run("ablations", func() {
			fmt.Println(experiments.RunAblations(scale).Format())
		})
	}
	if *speedup {
		run("speedup", func() {
			// The quick-scale Spider experiment, once sequentially and
			// once on the requested pool. Accuracy tables must match
			// byte-for-byte — the worker count may only buy time.
			sc := experiments.QuickScale()
			sc.ModelKind = *model
			sc.Seed = *seed

			sc.Workers = 1
			t1 := time.Now() //lint:allow determinism wall-clock timing is what -speedup measures
			seq := experiments.RunSpider(sc)
			d1 := time.Since(t1)

			sc.Workers = *workers
			tN := time.Now() //lint:allow determinism wall-clock timing is what -speedup measures
			parl := experiments.RunSpider(sc)
			dN := time.Since(tN)

			fmt.Printf("workers=1: %s\nworkers=%d (0 = all %d cores): %s\nspeedup: %.2fx\n",
				d1.Round(time.Millisecond), *workers, goruntime.NumCPU(), dN.Round(time.Millisecond),
				d1.Seconds()/dN.Seconds())
			if seq.Table2() != parl.Table2() || seq.Table4() != parl.Table4() {
				fmt.Println("ERROR: accuracy tables differ between worker counts")
				fmt.Println("--- workers=1 ---\n" + seq.Table2() + seq.Table4())
				fmt.Println("--- parallel ---\n" + parl.Table2() + parl.Table4())
				os.Exit(1)
			}
			fmt.Println("accuracy tables byte-identical across worker counts")
			fmt.Println(parl.Table2())
		})
	}
	if *searchcmp {
		run("search comparison", func() {
			cmpScale := scale
			if cmpScale.HyperoptTrials > 16 {
				cmpScale.HyperoptTrials = 16 // two full searches; keep the budget sane
			}
			fmt.Println(experiments.RunSearchComparison(cmpScale).Format())
		})
	}

	if !ran && ctx.Err() == nil {
		flag.Usage()
		os.Exit(2)
	}
	fmt.Printf("total: %s\n", time.Since(start).Round(time.Millisecond))
	if ctx.Err() != nil {
		os.Exit(1)
	}
}
