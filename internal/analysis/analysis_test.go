package analysis

import (
	"bytes"
	"fmt"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The module is loaded once and shared by every fixture test: the
// fixtures import real module packages (repro/internal/par, ...), so
// they type-check against the same loader state dbpal-lint uses.
var (
	loadOnce sync.Once
	loadedM  *Module
	loadErr  error
)

func loadRepo(t *testing.T) *Module {
	t.Helper()
	loadOnce.Do(func() {
		loadedM, loadErr = LoadModule(".")
	})
	if loadErr != nil {
		t.Fatalf("LoadModule: %v", loadErr)
	}
	return loadedM
}

// want is one expectation parsed from a fixture's `// want `...“
// comment: a diagnostic whose message matches the regexp must be
// reported on the comment's line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

func parseWants(t *testing.T, dir string) []*want {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, nil, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse fixture %s: %v", dir, err)
	}
	var wants []*want
	for _, pkg := range pkgs {
		for filename, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "// want ")
					if !ok {
						continue
					}
					pat, err := strconv.Unquote(strings.TrimSpace(rest))
					if err != nil {
						t.Fatalf("%s: bad want comment %q: %v", filename, c.Text, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", filename, pat, err)
					}
					wants = append(wants, &want{
						file: filepath.Base(filename),
						line: fset.Position(c.Pos()).Line,
						re:   re,
					})
				}
			}
		}
	}
	return wants
}

// runFixture type-checks testdata/src/<name> under the given fake
// import path, runs exactly one analyzer over it, and asserts the
// diagnostic set matches the fixture's want comments — no missing, no
// extra, suppressed sites silent.
func runFixture(t *testing.T, a *Analyzer, name, importPath string) {
	t.Helper()
	m := loadRepo(t)
	dir := filepath.Join("testdata", "src", name)
	pkg, err := m.LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture %s has type error: %v", name, terr)
	}
	if a.AppliesTo != nil && !a.AppliesTo(importPath) {
		t.Fatalf("analyzer %s does not apply to fixture path %s", a.Name, importPath)
	}

	diags, _ := Run(m, []*Package{pkg}, []*Analyzer{a})
	matchWants(t, diags, parseWants(t, dir))
}

// matchWants asserts diags are exactly the want comments: no missing
// diagnostic, no extra one.
func matchWants(t *testing.T, diags []Diagnostic, wants []*want) {
	t.Helper()
	for _, d := range diags {
		base := filepath.Base(d.Path)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == base && w.line == d.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic %s:%d: [%s] %s", d.Path, d.Line, d.Check, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("missing diagnostic at %s:%d matching %q", w.file, w.line, w.re)
		}
	}
}

func TestDeterminismFixture(t *testing.T) {
	runFixture(t, Determinism, "determinism", "repro/fixtures/determinism")
}

func TestMapOrderFixture(t *testing.T) {
	// The fake path carries a "generator" segment so the analyzer's
	// package configuration selects it.
	runFixture(t, MapOrder, "maporder", "repro/fixtures/generator")
}

func TestRawGoFixture(t *testing.T) {
	runFixture(t, RawGo, "rawgo", "repro/fixtures/rawgo")
}

func TestErrDropFixture(t *testing.T) {
	runFixture(t, ErrDrop, "errdrop", "repro/fixtures/errdrop")
}

func TestSeedSplitFixture(t *testing.T) {
	runFixture(t, SeedSplit, "seedsplit", "repro/fixtures/seedsplit")
}

func TestCtxFirstFixture(t *testing.T) {
	runFixture(t, CtxFirst, "ctxfirst", "repro/fixtures/ctxfirst")
}

func TestLockHeldFixture(t *testing.T) {
	// The fake path carries a "serve" segment so the analyzer's
	// package configuration selects it.
	runFixture(t, LockHeld, "lockheld", "repro/fixtures/lockheld/serve")
}

func TestAtomicFieldFixture(t *testing.T) {
	runFixture(t, AtomicField, "atomicfield", "repro/fixtures/atomicfield")
}

func TestGoExitFixture(t *testing.T) {
	// The fake path carries a "pipeline" segment so the analyzer's
	// package configuration selects it.
	runFixture(t, GoExit, "goexit", "repro/fixtures/goexit/pipeline")
}

func TestChanCloseFixture(t *testing.T) {
	runFixture(t, ChanClose, "chanclose", "repro/fixtures/chanclose")
}

func TestCtxDropFixture(t *testing.T) {
	runFixture(t, CtxDrop, "ctxdrop", "repro/fixtures/ctxdrop")
}

// TestDeadCodeFixture runs deadcode over a module of its own, laid out
// like this one: a facade at the root, a command, a library with a
// test file, and a _perfbench harness that is a module of its own.
func TestDeadCodeFixture(t *testing.T) {
	m, err := LoadModule(filepath.Join("testdata", "src", "deadcode"))
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	var wants []*want
	for _, p := range m.Pkgs {
		for _, terr := range p.TypeErrors {
			t.Errorf("fixture %s has type error: %v", p.Path, terr)
		}
		wants = append(wants, parseWants(t, p.Dir)...)
	}
	if len(m.Pkgs) != 3 {
		t.Fatalf("fixture module has %d packages, want facade, command and library", len(m.Pkgs))
	}
	diags, stale := Run(m, m.Pkgs, []*Analyzer{DeadCode})
	matchWants(t, diags, wants)
	for _, d := range stale {
		t.Errorf("stale allow at %s:%d: %s", d.Path, d.Line, d.Message)
	}
}

// TestAnalyzerConfiguration pins the package-specific configuration:
// which packages each analyzer covers and which it exempts.
func TestAnalyzerConfiguration(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		path     string
		applies  bool
	}{
		{MapOrder, "repro/internal/generator", true},
		{MapOrder, "repro/internal/augment", true},
		{MapOrder, "repro/internal/pipeline", true},
		{MapOrder, "repro/internal/models", true},
		{MapOrder, "repro/internal/engine", false},
		{RawGo, "repro/internal/par", false},
		{RawGo, "repro/internal/pipeline", false},
		{RawGo, "repro/internal/core", true},
		{RawGo, "repro/cmd/dbpal-bench", true},
		{LockHeld, "repro/internal/serve", true},
		{LockHeld, "repro/internal/registry", true},
		{LockHeld, "repro/internal/cache", true},
		{LockHeld, "repro/internal/par", true},
		{LockHeld, "repro/internal/pipeline", true},
		{LockHeld, "repro/internal/engine", false},
		{GoExit, "repro/internal/par", true},
		{GoExit, "repro/internal/pipeline", true},
		{GoExit, "repro/internal/serve", true},
		{GoExit, "repro/internal/registry", true},
		{GoExit, "repro/internal/cache", false},
		{GoExit, "repro/internal/models", false},
	}
	for _, c := range cases {
		if got := c.analyzer.AppliesTo(c.path); got != c.applies {
			t.Errorf("%s.AppliesTo(%q) = %v, want %v", c.analyzer.Name, c.path, got, c.applies)
		}
	}
	for _, a := range []*Analyzer{Determinism, ErrDrop, SeedSplit, CtxFirst, AtomicField, ChanClose, CtxDrop, DeadCode} {
		if a.AppliesTo != nil {
			t.Errorf("%s should apply to every package", a.Name)
		}
	}
	if len(Suite()) != 12 {
		t.Errorf("Suite() has %d analyzers, want 12", len(Suite()))
	}
}

// TestJSONOutputShape pins the -json contract byte-for-byte:
// schemaVersion envelope, per-finding analyzer + suppressible fields.
func TestJSONOutputShape(t *testing.T) {
	diags := []Diagnostic{
		{Check: "determinism", Analyzer: "determinism", Path: "cmd/x/main.go", Line: 3, Col: 7, Message: "time.Now reads the wall clock", Suppressible: true},
		{Check: "parse", Analyzer: "load", Path: "internal/y/y.go", Line: 10, Col: 2, Message: "file failed to parse and was skipped: expected ';'"},
	}
	var buf bytes.Buffer
	if err := FormatJSON(&buf, diags); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	wantJSON := `{
  "schemaVersion": 1,
  "findings": [
    {
      "check": "determinism",
      "analyzer": "determinism",
      "path": "cmd/x/main.go",
      "line": 3,
      "col": 7,
      "message": "time.Now reads the wall clock",
      "suppressible": true
    },
    {
      "check": "parse",
      "analyzer": "load",
      "path": "internal/y/y.go",
      "line": 10,
      "col": 2,
      "message": "file failed to parse and was skipped: expected ';'",
      "suppressible": false
    }
  ]
}
`
	if got != wantJSON {
		t.Errorf("JSON output mismatch:\ngot:\n%s\nwant:\n%s", got, wantJSON)
	}

	buf.Reset()
	if err := FormatJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	wantEmpty := "{\n  \"schemaVersion\": 1,\n  \"findings\": []\n}\n"
	if buf.String() != wantEmpty {
		t.Errorf("empty findings must encode as %q, got %q", wantEmpty, buf.String())
	}
}

// TestJSONByteStable asserts -json output is byte-identical across
// runs regardless of the order findings were produced in.
func TestJSONByteStable(t *testing.T) {
	scrambled := [][]Diagnostic{
		{
			{Check: "b", Analyzer: "b", Path: "b.go", Line: 2, Col: 1, Message: "m1", Suppressible: true},
			{Check: "a", Analyzer: "a", Path: "a.go", Line: 9, Col: 1, Message: "m2", Suppressible: true},
			{Check: "a", Analyzer: "a", Path: "a.go", Line: 2, Col: 5, Message: "m3", Suppressible: true},
		},
		{
			{Check: "a", Analyzer: "a", Path: "a.go", Line: 2, Col: 5, Message: "m3", Suppressible: true},
			{Check: "b", Analyzer: "b", Path: "b.go", Line: 2, Col: 1, Message: "m1", Suppressible: true},
			{Check: "a", Analyzer: "a", Path: "a.go", Line: 9, Col: 1, Message: "m2", Suppressible: true},
		},
	}
	var outs []string
	for _, diags := range scrambled {
		SortDiagnostics(diags)
		var buf bytes.Buffer
		if err := FormatJSON(&buf, diags); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, buf.String())
	}
	if outs[0] != outs[1] {
		t.Errorf("JSON output depends on production order:\nfirst:\n%s\nsecond:\n%s", outs[0], outs[1])
	}
}

func TestTextOutputShape(t *testing.T) {
	var buf bytes.Buffer
	err := FormatText(&buf, []Diagnostic{
		{Check: "rawgo", Path: "internal/z/z.go", Line: 4, Col: 2, Message: "go statement outside the concurrency substrate"},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantLine := "internal/z/z.go:4:2: [rawgo] go statement outside the concurrency substrate\n"
	if buf.String() != wantLine {
		t.Errorf("text output = %q, want %q", buf.String(), wantLine)
	}
}

func TestSortDiagnostics(t *testing.T) {
	diags := []Diagnostic{
		{Check: "b", Path: "b.go", Line: 2, Col: 1},
		{Check: "a", Path: "a.go", Line: 9, Col: 1},
		{Check: "b", Path: "a.go", Line: 9, Col: 1},
		{Check: "a", Path: "a.go", Line: 2, Col: 5},
		{Check: "a", Path: "a.go", Line: 2, Col: 1},
	}
	SortDiagnostics(diags)
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%s:%d:%d:%s", d.Path, d.Line, d.Col, d.Check))
	}
	wantOrder := []string{"a.go:2:1:a", "a.go:2:5:a", "a.go:9:1:a", "a.go:9:1:b", "b.go:2:1:b"}
	for i := range wantOrder {
		if got[i] != wantOrder[i] {
			t.Fatalf("sort order[%d] = %s, want %s (full: %v)", i, got[i], wantOrder[i], got)
		}
	}
}

// TestModuleClean is the acceptance gate the CI lint step enforces:
// the shipped tree has zero findings. Reverting one of the violation
// fixes (or introducing a new violation) fails this test and the CI
// step alike.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module lint is not a -short test")
	}
	m := loadRepo(t)
	diags, stale := Run(m, m.Pkgs, Suite())
	for _, d := range diags {
		t.Errorf("%s:%d:%d: [%s] %s", d.Path, d.Line, d.Col, d.Check, d.Message)
	}
	// Every //lint:allow in the tree must be earning its keep: a
	// directive that suppresses nothing is reported here and by
	// `dbpal-lint -stale-allow` alike.
	for _, d := range stale {
		t.Errorf("stale allow at %s:%d: %s", d.Path, d.Line, d.Message)
	}
}
