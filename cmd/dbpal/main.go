// Command dbpal is the interactive natural-language-to-SQL interface
// of the paper's Figure 1: it bootstraps a DBPal model for a chosen
// schema — no manually labeled training data, only the schema and the
// seed templates — and then answers NL questions typed on stdin,
// showing the translated SQL and the tabular result.
//
//	dbpal -schema patients
//	> show the names of all patients with age 80
//
// Schemas: "patients" (the paper's benchmark database), any schema of
// the synthetic Spider zoo (flights, college, geo, ...), or
// "synth:<seed>" for a generated cross-domain schema. Use -model to
// pick the translator architecture and -load to reuse weights saved by
// dbpal-train. The whole construction path is shared with dbpal-serve
// and dbpal-eval through internal/boot.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/boot"
)

func main() {
	var (
		schemaName = flag.String("schema", "patients", "schema: patients | flights | college | geo | ... | synth:<seed>")
		modelKind  = flag.String("model", "sketch", "translator: sketch | seq2seq")
		loadPath   = flag.String("load", "", "load model weights saved by dbpal-train instead of training")
		seed       = flag.Int64("seed", 1, "pipeline and training seed")
		rows       = flag.Int("rows", 40, "synthetic rows per table for non-patients schemas")
		verbose    = flag.Bool("verbose", false, "print the full translation lifecycle per question")
		deadline   = flag.Duration("deadline", 0, "per-question inference deadline per tier (0 = none)")
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel the question in flight and exit the loop.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	t0 := time.Now() //lint:allow determinism wall-clock timing is progress reporting only
	u, err := boot.Build(ctx, boot.Spec{
		Schema:   *schemaName,
		Model:    *modelKind,
		LoadPath: *loadPath,
		Seed:     *seed,
		Rows:     *rows,
		Deadline: *deadline,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *loadPath == "" {
		fmt.Printf("  trained in %s\n", time.Since(t0).Round(time.Millisecond))
	}

	nli := u.Translator
	fmt.Println("type a question (empty line or ctrl-d to quit):")
	sc := bufio.NewScanner(os.Stdin)
	for ctx.Err() == nil {
		fmt.Print("> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			break
		}
		if *verbose {
			q, trace, err := nli.Translate(ctx, line)
			fmt.Println(indent(trace.String(), "  "))
			if err != nil {
				fmt.Printf("  error: %v\n", err)
				continue
			}
			res := trace.Result // the critic's dry-run already ran q
			if res == nil {
				var execErr error
				if res, execErr = nli.DB.ExecuteContext(ctx, q); execErr != nil {
					fmt.Printf("  error: %v\n", execErr)
					continue
				}
			}
			fmt.Println(indent(res.String(), "  "))
			continue
		}
		res, q, err := nli.Ask(ctx, line)
		if err != nil {
			fmt.Printf("  error: %v\n", err)
			continue
		}
		fmt.Printf("  SQL: %s\n%s\n", q, indent(res.String(), "  "))
	}
	if ctx.Err() != nil {
		fmt.Println("\ninterrupted")
	}
}

func indent(s, prefix string) string {
	lines := strings.Split(s, "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n")
}
