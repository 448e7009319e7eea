// Command dbpal-lint runs the repository's static-analysis suite
// (internal/analysis): stdlib-only analyzers that machine-check the
// pipeline's determinism and concurrency invariants. Per-file checks
// cover explicit seeds (determinism, seedsplit), sorted map iteration
// (maporder), all concurrency through internal/par / internal/pipeline
// (rawgo), dropped errors (errdrop), and context-first signatures
// (ctxfirst). On top of a module-wide call graph with a propagated
// "may block" fact, the interprocedural checks enforce the serving
// stack's concurrency contracts: no mutex held across a blocking call
// (lockheld), no mixed atomic/plain field access (atomicfield),
// provable goroutine exit paths (goexit), sender-side-only channel
// closes (chanclose), and contexts that actually reach the blocking
// work (ctxdrop). A module-wide reachability check (deadcode) reports
// every function that no main, init, package-level initializer, facade
// export or _perfbench reference reaches — test-only helpers included.
//
//	dbpal-lint ./...            lint the whole module (text output)
//	dbpal-lint -json ./cmd/...  machine-readable findings
//	dbpal-lint -list            describe the analyzers
//	dbpal-lint -stale-allow     also fail on unused //lint:allow directives
//
// Findings print as path:line:col: [check] message, sorted by
// position, and the exit status is 1 when there are any — wire it
// straight into CI. Suppress an intentional site with an end-of-line
// (or preceding-line) directive:
//
//	t0 := time.Now() //lint:allow determinism timing is reporting-only
//
// Every directive must suppress at least one live finding; run with
// -stale-allow to flag the ones that no longer do.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
)

func main() {
	var (
		jsonOut = flag.Bool("json", false, "emit findings as a JSON report")
		list    = flag.Bool("list", false, "list the analyzers and exit")
		quiet   = flag.Bool("q", false, "suppress the findings summary on stderr")
		stale   = flag.Bool("stale-allow", false, "report //lint:allow directives that suppress nothing")
	)
	flag.Parse()

	suite := analysis.Suite()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	mod, err := analysis.LoadModule(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbpal-lint:", err)
		os.Exit(2)
	}
	for _, p := range mod.Pkgs {
		for _, terr := range p.TypeErrors {
			fmt.Fprintf(os.Stderr, "dbpal-lint: warning: %s: %v\n", p.Path, terr)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs := selectPackages(mod, patterns)
	if len(pkgs) == 0 {
		fmt.Fprintf(os.Stderr, "dbpal-lint: no packages match %s\n", strings.Join(patterns, " "))
		os.Exit(2)
	}

	diags, staleDiags := analysis.Run(mod, pkgs, suite)
	if *stale {
		diags = append(diags, staleDiags...)
		analysis.SortDiagnostics(diags)
	}
	if *jsonOut {
		err = analysis.FormatJSON(os.Stdout, diags)
	} else {
		err = analysis.FormatText(os.Stdout, diags)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbpal-lint:", err)
		os.Exit(2)
	}
	if !*quiet {
		// The suppression count feeds the CI job summary: a creeping
		// number is a smell even while the tree lints clean.
		fmt.Fprintf(os.Stderr, "dbpal-lint: %d finding(s) in %d package(s), %d suppression(s) in force\n",
			len(diags), len(pkgs), analysis.CountSuppressions(mod, pkgs))
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// selectPackages filters the module's packages by go-style patterns:
// "./..." (everything), "./cmd/..." (subtree), or a package directory
// like "./internal/par".
func selectPackages(mod *analysis.Module, patterns []string) []*analysis.Package {
	var out []*analysis.Package
	seen := map[string]bool{}
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		for _, p := range mod.Pkgs {
			if !matchPattern(pat, p.RelDir) || seen[p.Path+" "+p.Name] {
				continue
			}
			seen[p.Path+" "+p.Name] = true
			out = append(out, p)
		}
	}
	return out
}

func matchPattern(pat, relDir string) bool {
	if pat == "..." || pat == "" {
		return true
	}
	if pat == "." {
		return relDir == "."
	}
	if sub, ok := strings.CutSuffix(pat, "/..."); ok {
		return relDir == sub || strings.HasPrefix(relDir, sub+"/")
	}
	return relDir == pat
}
