package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Module is a parsed and type-checked view of one Go module, built
// with nothing but the standard library: every package directory is
// parsed with go/parser and checked with go/types, stdlib imports are
// resolved through the source importer, and module-internal imports
// are resolved against the packages loaded here.
type Module struct {
	// Path is the module path from go.mod (e.g. "repro").
	Path string
	// Dir is the absolute module root directory.
	Dir string
	// Fset positions every file in the module (and the stdlib sources
	// the importer touched).
	Fset *token.FileSet
	// Pkgs holds every non-test package of the module, sorted by
	// import path. Command (package main) directories are included.
	Pkgs []*Package
	// LoadDiags reports loader-level problems that did not abort the
	// load — today, files that failed to parse and were skipped. Run
	// folds them into the findings as unsuppressible diagnostics so a
	// broken file can never silently shrink the analyzed surface.
	LoadDiags []Diagnostic

	ldr *loader
}

// Package is one type-checked package of a Module.
type Package struct {
	// Path is the import path ("repro/internal/par"); for package main
	// directories it is the would-be import path of the directory.
	Path string
	// Name is the package name ("par", "main").
	Name string
	// Dir is the absolute directory; RelDir is slash-separated and
	// relative to the module root ("." for the root package).
	Dir    string
	RelDir string
	// ModulePath is the owning module's path, so analyzers can name
	// sibling packages without hard-coding the module name.
	ModulePath string

	Fset  *token.FileSet
	Files []*ast.File
	// Filenames[i] is the absolute path of Files[i].
	Filenames []string

	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-checking problems without aborting the
	// load; analyzers run on the best-effort information.
	TypeErrors []error
}

type loader struct {
	fset      *token.FileSet
	dir       string
	modPath   string
	std       types.Importer
	info      *types.Info
	pkgs      map[string]*pkgState
	loadDiags []Diagnostic
}

type pkgState struct {
	pkg      *Package
	checking bool
	checked  bool
}

// LoadModule locates the module containing dir (walking up to the
// nearest go.mod), parses every non-test .go file outside testdata/
// vendor/ hidden directories, and type-checks all packages in
// dependency order.
func LoadModule(dir string) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}

	l := &loader{
		fset:    token.NewFileSet(),
		dir:     root,
		modPath: modPath,
		info:    newInfo(),
		pkgs:    map[string]*pkgState{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)

	dirs, err := goDirs(root)
	if err != nil {
		return nil, err
	}
	m := &Module{Path: modPath, Dir: root, Fset: l.fset, ldr: l}
	for _, d := range dirs {
		pkgs, err := l.parseDir(d)
		if err != nil {
			return nil, err
		}
		m.Pkgs = append(m.Pkgs, pkgs...)
	}
	for _, p := range m.Pkgs {
		if err := l.check(p); err != nil {
			return nil, err
		}
	}
	sort.Slice(m.Pkgs, func(i, j int) bool { return m.Pkgs[i].Path < m.Pkgs[j].Path })
	m.LoadDiags = l.loadDiags
	return m, nil
}

// LoadDir parses and type-checks one extra directory (a test fixture)
// as if it were a module package with the given import path. Module
// and stdlib imports resolve exactly as they do for real packages.
func (m *Module) LoadDir(dir, importPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := m.ldr.parseDirAs(abs, importPath)
	m.LoadDiags = m.ldr.loadDiags
	if err != nil {
		return nil, err
	}
	if len(pkgs) != 1 {
		return nil, fmt.Errorf("analysis: fixture %s holds %d packages, want 1", dir, len(pkgs))
	}
	if err := m.ldr.check(pkgs[0]); err != nil {
		return nil, err
	}
	return pkgs[0], nil
}

func findModule(dir string) (root, modPath string, err error) {
	for d := dir; ; d = filepath.Dir(d) {
		data, rerr := os.ReadFile(filepath.Join(d, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("analysis: no go.mod found at or above %s", dir)
		}
	}
}

// goDirs returns every directory under root that may hold a package,
// skipping testdata, vendor, and hidden/underscore directories — the
// same set `go build ./...` considers.
func goDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	return dirs, err
}

func (l *loader) parseDir(dir string) ([]*Package, error) {
	rel, err := filepath.Rel(l.dir, dir)
	if err != nil {
		return nil, err
	}
	rel = filepath.ToSlash(rel)
	importPath := l.modPath
	if rel != "." {
		importPath = l.modPath + "/" + rel
	}
	return l.parseDirAs(dir, importPath)
}

// parseDirAs parses the non-test .go files of dir into one Package per
// package clause (a healthy directory has exactly one).
func (l *loader) parseDirAs(dir, importPath string) ([]*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	byName := map[string]*Package{}
	var order []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") || !goodArchFileName(dir, name) {
			continue
		}
		full := filepath.Join(dir, name)
		file, err := parser.ParseFile(l.fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			// A broken file must not abort the whole load (one bad
			// edit would blind every analyzer) and must not vanish
			// silently either: record an unsuppressible finding and
			// analyze the rest of the package without it.
			l.parseFailure(full, err)
			continue
		}
		if excludedByBuildTags(file) {
			continue
		}
		pkgName := file.Name.Name
		p := byName[pkgName]
		if p == nil {
			rel, err := filepath.Rel(l.dir, dir)
			if err != nil {
				return nil, err
			}
			p = &Package{
				Path:       importPath,
				Name:       pkgName,
				Dir:        dir,
				RelDir:     filepath.ToSlash(rel),
				ModulePath: l.modPath,
				Fset:       l.fset,
				Info:       l.info,
			}
			byName[pkgName] = p
			order = append(order, pkgName)
		}
		p.Files = append(p.Files, file)
		p.Filenames = append(p.Filenames, full)
	}
	var pkgs []*Package
	for _, name := range order {
		p := byName[name]
		st := &pkgState{pkg: p}
		// Register the importable package under its path; a main
		// package never wins over a library in the same directory.
		if old, ok := l.pkgs[p.Path]; !ok || old.pkg.Name == "main" {
			l.pkgs[p.Path] = st
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// parseFailure records a skipped-file diagnostic for a file
// go/parser rejected, anchored at the first syntax error.
func (l *loader) parseFailure(full string, err error) {
	line, col := 1, 1
	msg := err.Error()
	var el scanner.ErrorList
	if ok := errorsAs(err, &el); ok && len(el) > 0 {
		line, col = el[0].Pos.Line, el[0].Pos.Column
		msg = el[0].Msg
	}
	rel := full
	if r, rerr := filepath.Rel(l.dir, full); rerr == nil {
		rel = filepath.ToSlash(r)
	}
	l.loadDiags = append(l.loadDiags, Diagnostic{
		Check:    "parse",
		Analyzer: "load",
		Path:     rel,
		Line:     line,
		Col:      col,
		Message:  "file failed to parse and was skipped: " + msg,
	})
}

func errorsAs(err error, target *scanner.ErrorList) bool {
	el, ok := err.(scanner.ErrorList)
	if ok {
		*target = el
	}
	return ok
}

// excludedByBuildTags reports whether a //go:build (or legacy
// // +build) constraint before the package clause evaluates false for
// this platform — the same files `go build` would skip. Known tags are
// GOOS, GOARCH, "gc", and go1.x release tags; anything else (custom
// tags like "integration") counts as unset.
func excludedByBuildTags(file *ast.File) bool {
	for _, cg := range file.Comments {
		if cg.Pos() >= file.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) && !constraint.IsPlusBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				continue
			}
			if !expr.Eval(buildTagSet) {
				return true
			}
		}
	}
	return false
}

// goodArchFileName reports whether a _GOOS, _GOARCH or _GOOS_GOARCH
// suffix in a file name (simd_amd64.go) admits the file on this
// platform, as it does for go build. The context reads a stub in place
// of the file, so only the name decides; build tags are
// excludedByBuildTags' job.
func goodArchFileName(dir, name string) bool {
	ctx := build.Default
	ctx.GOOS, ctx.GOARCH = runtime.GOOS, runtime.GOARCH
	ctx.OpenFile = func(string) (io.ReadCloser, error) {
		return io.NopCloser(strings.NewReader("package p\n")), nil
	}
	ok, err := ctx.MatchFile(dir, name)
	return ok && err == nil
}

func buildTagSet(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc":
		return true
	}
	return strings.HasPrefix(tag, "go1.")
}

// check type-checks p, checking its module-internal dependencies
// first.
func (l *loader) check(p *Package) error {
	st := l.pkgs[p.Path]
	if st == nil || st.pkg != p {
		st = &pkgState{pkg: p}
	}
	return l.checkState(st)
}

func (l *loader) checkState(st *pkgState) error {
	if st.checked || st.checking {
		return nil // a cycle surfaces as a type error, not a crash
	}
	st.checking = true
	defer func() { st.checking = false }()

	p := st.pkg
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if dep, ok := l.pkgs[path]; ok && dep != st {
				if err := l.checkState(dep); err != nil {
					return err
				}
			}
		}
	}

	conf := types.Config{
		Importer: (*modImporter)(l),
		Error:    func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
	}
	p.Types, _ = conf.Check(p.Path, l.fset, p.Files, l.info)
	st.checked = true
	return nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// modImporter resolves module-internal imports from the loaded
// packages and everything else through the stdlib source importer.
type modImporter loader

func (m *modImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *modImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	l := (*loader)(m)
	if st, ok := l.pkgs[path]; ok {
		if err := l.checkState(st); err != nil {
			return nil, err
		}
		if st.pkg.Types == nil {
			return nil, fmt.Errorf("analysis: package %s failed to type-check", path)
		}
		return st.pkg.Types, nil
	}
	if from, ok := l.std.(types.ImporterFrom); ok {
		return from.ImportFrom(path, dir, mode)
	}
	return l.std.Import(path)
}
