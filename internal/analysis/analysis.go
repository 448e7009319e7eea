// Package analysis is the repository's zero-dependency static-analysis
// framework: a small Analyzer interface over go/ast + go/types, a
// module loader (load.go), a //lint:allow suppression directive, and
// deterministic diagnostic reporting. cmd/dbpal-lint drives it over
// the whole module; the shipped analyzers (Suite) machine-check the
// invariants DESIGN.md only prose-checks: explicit seeds, sorted map
// iteration, all concurrency through internal/par / internal/pipeline,
// no silently dropped errors, SplitSeed-derived RNGs inside parallel
// callbacks, context.Context first in exported signatures, the serving
// stack's concurrency contracts, and no function that no binary
// reaches (deadcode).
//
// Suppression: a comment of the form
//
//	//lint:allow <check> <reason>
//
// placed at the end of the offending line or on its own line directly
// above it silences that check there. The reason is free text; write
// one — the directive documents an intentional exception, not an
// escape hatch.
package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// Analyzer is one named check. Run inspects a single type-checked
// package and reports findings through the Pass.
type Analyzer struct {
	// Name is the check name used in output and //lint:allow
	// directives.
	Name string
	// Doc is a one-line description for -list output.
	Doc string
	// AppliesTo filters by import path; nil means every package.
	AppliesTo func(pkgPath string) bool
	// Run performs the check.
	Run func(pass *Pass)
}

// Diagnostic is one finding. Path is module-relative and
// slash-separated, so output is stable across checkouts. Analyzer
// names the analyzer that produced the finding (same as Check for
// analyzer findings; "load" for loader-level problems such as parse
// errors). Suppressible reports whether a //lint:allow directive can
// silence the finding — loader problems and stale-allow reports
// cannot be suppressed.
type Diagnostic struct {
	Check        string `json:"check"`
	Analyzer     string `json:"analyzer"`
	Path         string `json:"path"`
	Line         int    `json:"line"`
	Col          int    `json:"col"`
	Message      string `json:"message"`
	Suppressible bool   `json:"suppressible"`
}

// Pass hands one (analyzer, package) pairing its reporting context.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Mod is the enclosing module; it carries the memoized
	// interprocedural call graph (see Pass.Graph).
	Mod *Module

	moduleDir string
	allow     *allowIndex
	sink      *[]Diagnostic
}

// Reportf records a finding at pos unless a //lint:allow directive
// covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	rel := position.Filename
	if r, err := filepath.Rel(p.moduleDir, position.Filename); err == nil {
		rel = filepath.ToSlash(r)
	}
	if p.allow.allowed(p.Analyzer.Name, position.Filename, position.Line) {
		return
	}
	*p.sink = append(*p.sink, Diagnostic{
		Check:        p.Analyzer.Name,
		Analyzer:     p.Analyzer.Name,
		Path:         rel,
		Line:         position.Line,
		Col:          position.Column,
		Message:      fmt.Sprintf(format, args...),
		Suppressible: true,
	})
}

// PkgPathOf resolves x to the import path of the package it names
// ("time" in time.Now). ok is false when x is not an identifier bound
// to an import.
func (p *Pass) PkgPathOf(x ast.Expr) (path string, ok bool) {
	id, ok := x.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := p.Pkg.Info.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	return pn.Imported().Path(), true
}

// IsPkgFunc reports whether e is a selector for the function
// pkgPath.name (e.g. "repro/internal/par", "SplitSeed").
func (p *Pass) IsPkgFunc(e ast.Expr, pkgPath, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	got, ok := p.PkgPathOf(sel.X)
	return ok && got == pkgPath
}

// TypeOf returns the type of e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// ---------------------------------------------------------------------
// Suppression directives.
// ---------------------------------------------------------------------

// allowDirective is one (check, site) pair declared by a //lint:allow
// comment. used flips when the directive suppresses at least one
// finding, which is what -stale-allow audits.
type allowDirective struct {
	check string
	file  string // absolute filename of the directive comment
	rel   string // module-relative path for reporting
	line  int    // line of the directive comment
	col   int
	used  bool
}

// allowIndex maps a "file:line" key to the directives covering that
// line, and keeps the full directive list for staleness reporting.
type allowIndex struct {
	byLine map[string]map[string]*allowDirective
	all    []*allowDirective
}

// covers reports whether a directive for check covers file:line,
// without counting it as used.
func (a *allowIndex) covers(check, file string, line int) bool {
	return a.byLine[fmt.Sprintf("%s:%d", file, line)][check] != nil
}

func (a *allowIndex) allowed(check, file string, line int) bool {
	d := a.byLine[fmt.Sprintf("%s:%d", file, line)][check]
	if d == nil {
		return false
	}
	d.used = true
	return true
}

// buildAllowIndex scans a package's comments for //lint:allow
// directives. A directive covers its own line (end-of-line form) and
// the line below it (standalone form above a statement).
func buildAllowIndex(moduleDir string, pkg *Package) *allowIndex {
	idx := &allowIndex{byLine: map[string]map[string]*allowDirective{}}
	cover := func(d *allowDirective, line int) {
		key := fmt.Sprintf("%s:%d", d.file, line)
		if idx.byLine[key] == nil {
			idx.byLine[key] = map[string]*allowDirective{}
		}
		idx.byLine[key][d.check] = d
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//lint:allow ")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rel := pos.Filename
				if r, err := filepath.Rel(moduleDir, pos.Filename); err == nil {
					rel = filepath.ToSlash(r)
				}
				for _, check := range strings.Split(fields[0], ",") {
					d := &allowDirective{
						check: check,
						file:  pos.Filename,
						rel:   rel,
						line:  pos.Line,
						col:   pos.Column,
					}
					idx.all = append(idx.all, d)
					cover(d, pos.Line)
					cover(d, pos.Line+1)
				}
			}
		}
	}
	return idx
}

// ---------------------------------------------------------------------
// Running and reporting.
// ---------------------------------------------------------------------

// Run applies each analyzer to each package it covers and returns the
// findings sorted by (path, line, col, check) — a deterministic order
// regardless of package iteration or analyzer registration. Loader
// problems (parse failures) are included as unsuppressible findings.
//
// The second slice is a staleness audit: every //lint:allow directive
// in pkgs that suppressed no finding during this run, as
// unsuppressible "stale-allow" diagnostics. A directive for a check
// that did not run (wrong package, analyzer not selected) counts as
// stale — it is dead weight either way.
func Run(m *Module, pkgs []*Package, analyzers []*Analyzer) (diags, stale []Diagnostic) {
	var indices []*allowIndex
	for _, pkg := range pkgs {
		idx := buildAllowIndex(m.Dir, pkg)
		indices = append(indices, idx)
		for _, a := range analyzers {
			if a.AppliesTo != nil && !a.AppliesTo(pkg.Path) {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg, Mod: m, moduleDir: m.Dir, allow: idx, sink: &diags}
			a.Run(pass)
		}
	}
	diags = append(diags, m.LoadDiags...)
	for _, idx := range indices {
		for _, d := range idx.all {
			if d.used {
				continue
			}
			stale = append(stale, Diagnostic{
				Check:    "stale-allow",
				Analyzer: "stale-allow",
				Path:     d.rel,
				Line:     d.line,
				Col:      d.col,
				Message:  fmt.Sprintf("//lint:allow %s no longer suppresses any finding; remove it", d.check),
			})
		}
	}
	SortDiagnostics(diags)
	SortDiagnostics(stale)
	return diags, stale
}

// CountSuppressions returns the number of //lint:allow (check, site)
// directives declared across pkgs — the repository's allow budget,
// surfaced in CI job summaries.
func CountSuppressions(m *Module, pkgs []*Package) int {
	n := 0
	for _, pkg := range pkgs {
		n += len(buildAllowIndex(m.Dir, pkg).all)
	}
	return n
}

// SortDiagnostics orders findings by path, line, column, check name,
// then message.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}

// FormatText writes findings one per line:
// path:line:col: [check] message.
func FormatText(w io.Writer, diags []Diagnostic) error {
	for _, d := range diags {
		if _, err := fmt.Fprintf(w, "%s:%d:%d: [%s] %s\n", d.Path, d.Line, d.Col, d.Check, d.Message); err != nil {
			return err
		}
	}
	return nil
}

// JSONSchemaVersion is the version stamped into -json output; bump it
// on any incompatible change to the report shape.
const JSONSchemaVersion = 1

// jsonReport is the -json envelope.
type jsonReport struct {
	SchemaVersion int          `json:"schemaVersion"`
	Findings      []Diagnostic `json:"findings"`
}

// FormatJSON writes findings as an indented JSON object with a stable
// schemaVersion and a findings array (an empty array, not null, when
// there are none) — the -json contract.
func FormatJSON(w io.Writer, diags []Diagnostic) error {
	if diags == nil {
		diags = []Diagnostic{}
	}
	data, err := json.MarshalIndent(jsonReport{SchemaVersion: JSONSchemaVersion, Findings: diags}, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// Suite returns the shipped analyzers in their canonical order. The
// first six are the per-file invariant checks from the original
// suite; the next five ride the interprocedural call graph
// (callgraph.go) and the statement-flow walker (flow.go); deadcode
// is the module-wide reachability check (deadcode.go).
func Suite() []*Analyzer {
	return []*Analyzer{
		Determinism, MapOrder, RawGo, ErrDrop, SeedSplit, CtxFirst,
		LockHeld, AtomicField, GoExit, ChanClose, CtxDrop, DeadCode,
	}
}

// hasSegment reports whether any "/"-separated segment of path equals
// seg.
func hasSegment(path, seg string) bool {
	for _, s := range strings.Split(path, "/") {
		if s == seg {
			return true
		}
	}
	return false
}
