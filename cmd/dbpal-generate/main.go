// Command dbpal-generate runs the DBPal training pipeline for a schema
// and streams the synthesized NL–SQL pairs as tab-separated lines
// (NL, SQL, template id, class; -prov appends stage and origin) to
// stdout or a file — the corpus any pluggable model can train on.
// Pairs are written as the stage chain produces them, so memory stays
// constant no matter the corpus size.
//
//	dbpal-generate -schema patients -size 8 > pairs.tsv
//	dbpal-generate -schema geo -stats 2>stats.json > pairs.tsv
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	dbpal "repro"
	"repro/internal/patients"
	"repro/internal/spider"
)

func main() {
	var (
		schemaName = flag.String("schema", "patients", "schema: patients or a Spider-zoo name")
		out        = flag.String("o", "", "output file (default stdout)")
		seed       = flag.Int64("seed", 1, "generation seed")
		size       = flag.Int("size", 0, "override sizeSlotFills (instances per template)")
		noAugment  = flag.Bool("no-augment", false, "drop the augmentation stage")
		noLemma    = flag.Bool("no-lemmatize", false, "drop the lemmatization stage")
		noDedup    = flag.Bool("no-dedup", false, "drop the final exact-duplicate filter")
		prov       = flag.Bool("prov", false, "append provenance columns: originating stage and variant origin")
		stats      = flag.Bool("stats", false, "print a JSON report (pair counts, per-stage instrumentation) to stderr")
	)
	flag.Parse()

	s := resolve(*schemaName)
	if s == nil {
		fmt.Fprintf(os.Stderr, "unknown schema %q\n", *schemaName)
		os.Exit(1)
	}
	params := dbpal.DefaultParams()
	if *size > 0 {
		params.Instantiation.SizeSlotFills = *size
	}

	// Structural choices are stage-list edits: each -no-* flag removes
	// a stage from the default composition.
	p := dbpal.NewPipeline(s, params, *seed)
	stages := []dbpal.Stage{p.GenerateStage()}
	if !*noAugment {
		stages = append(stages, p.AugmentStage())
	}
	if !*noLemma {
		stages = append(stages, dbpal.LemmaStage())
	}
	if !*noDedup {
		stages = append(stages, dbpal.DedupStage())
	}
	g := p.Graph(stages...)

	w := bufio.NewWriter(os.Stdout)
	var f *os.File
	if *out != "" {
		var err error
		f, err = os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		w = bufio.NewWriter(f)
	}

	// SIGINT/SIGTERM cancel the stage chain; pairs already emitted by
	// the final stage are still flushed, so an interrupted run leaves a
	// valid (deterministic-prefix) partial corpus.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	classCounts := map[string]int{}
	pairs := 0
	err := g.Run(ctx, func(q dbpal.Pair) error {
		pairs++
		classCounts[q.Class.String()]++
		if *prov {
			_, err := fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\n", q.NL, q.SQL, q.TemplateID, q.Class, q.Stage, q.Origin)
			return err
		}
		_, err := fmt.Fprintf(w, "%s\t%s\t%s\t%s\n", q.NL, q.SQL, q.TemplateID, q.Class)
		return err
	})
	// A full disk or closed pipe must not produce a silently truncated
	// corpus: surface the buffered writer's flush and the file close.
	// On cancellation the partial corpus is flushed first.
	interrupted := err != nil && ctx.Err() != nil
	if err == nil || interrupted {
		if ferr := w.Flush(); err == nil {
			err = ferr
		}
	}
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "interrupted: flushed partial corpus of %d pairs\n", pairs)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *stats {
		report := struct {
			Schema  string             `json:"schema"`
			Pairs   int                `json:"pairs"`
			Classes map[string]int     `json:"classes"`
			Stages  []dbpal.StageStats `json:"stages"`
		}{s.Name, pairs, classCounts, g.Stats()}
		enc := json.NewEncoder(os.Stderr)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

func resolve(name string) *dbpal.Schema {
	if name == "patients" {
		return patients.Schema()
	}
	return spider.SchemaByName(name)
}
