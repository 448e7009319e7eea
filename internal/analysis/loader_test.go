package analysis

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module for loader tests.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		full := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestParseErrorSurfacesAsFinding is the regression test for the
// loader bugfix: a file that fails to parse must not abort the load
// (or vanish silently) — it becomes an unsuppressible finding and the
// rest of the package is still analyzed.
func TestParseErrorSurfacesAsFinding(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":  "module broken\n\ngo 1.22\n",
		"good.go": "package broken\n\nfunc Fine() int { return 1 }\n",
		"bad.go":  "package broken\n\nfunc Oops( {\n",
	})
	m, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("LoadModule must survive a parse error, got: %v", err)
	}
	if len(m.LoadDiags) != 1 {
		t.Fatalf("LoadDiags = %v, want exactly one parse finding", m.LoadDiags)
	}
	d := m.LoadDiags[0]
	if d.Check != "parse" || d.Analyzer != "load" || d.Suppressible {
		t.Errorf("parse finding misclassified: %+v", d)
	}
	if d.Path != "bad.go" || d.Line == 0 {
		t.Errorf("parse finding not anchored at the broken file: %+v", d)
	}
	if !strings.Contains(d.Message, "skipped") {
		t.Errorf("message should say the file was skipped: %q", d.Message)
	}

	if len(m.Pkgs) != 1 {
		t.Fatalf("module has %d packages, want 1", len(m.Pkgs))
	}
	for _, name := range m.Pkgs[0].Filenames {
		if filepath.Base(name) == "bad.go" {
			t.Errorf("broken file must be skipped, found %s in package", name)
		}
	}

	// Run folds the loader problem into the findings, so dbpal-lint
	// and TestModuleClean both fail on a broken file.
	diags, _ := Run(m, m.Pkgs, Suite())
	found := false
	for _, d := range diags {
		if d.Check == "parse" && d.Path == "bad.go" {
			found = true
		}
	}
	if !found {
		t.Errorf("Run must include the parse finding, got %v", diags)
	}
}

// TestLoaderFileSelection pins which files enter the module set:
// _test.go files never, build-tag-excluded files never, always-true
// build tags yes, a _GOARCH file name only for this GOARCH, and
// testdata-only packages never.
func TestLoaderFileSelection(t *testing.T) {
	otherArch := "arm64"
	if runtime.GOARCH == otherArch {
		otherArch = "amd64"
	}
	dir := writeModule(t, map[string]string{
		"go.mod":                         "module edge\n\ngo 1.22\n",
		"a.go":                           "package edge\n\nfunc A() int { return 1 }\n",
		"a_test.go":                      "package edge\n\nfunc helperOnlyInTests() {}\n",
		"skip.go":                        "//go:build neverbuild\n\npackage edge\n\nfunc gone() { go func() {}() }\n",
		"keep.go":                        "//go:build go1.1\n\npackage edge\n\nfunc B() int { return 2 }\n",
		"host_" + runtime.GOARCH + ".go": "package edge\n\nfunc C() int { return 3 }\n",
		"gone_" + otherArch + ".go":      "package edge\n\nfunc gone2() { go func() {}() }\n",
		"testdata/sub/t.go":              "package tsub\n\nfunc T() { go func() {}() }\n",
	})
	m, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if len(m.LoadDiags) != 0 {
		t.Fatalf("unexpected load diagnostics: %v", m.LoadDiags)
	}
	if len(m.Pkgs) != 1 {
		t.Fatalf("module set has %d packages, want 1 (testdata must be excluded): %+v", len(m.Pkgs), m.Pkgs)
	}
	var bases []string
	for _, name := range m.Pkgs[0].Filenames {
		bases = append(bases, filepath.Base(name))
	}
	got := strings.Join(bases, ",")
	if want := "a.go,host_" + runtime.GOARCH + ".go,keep.go"; got != want {
		t.Errorf("loaded files = %s, want %s (_test.go, neverbuild and another GOARCH's file excluded)", got, want)
	}

	// The excluded files must also be invisible to analyzers: skip.go
	// holds a raw go statement that would otherwise be a rawgo
	// finding, and so does the testdata package.
	diags, _ := Run(m, m.Pkgs, Suite())
	if len(diags) != 0 {
		t.Errorf("excluded files leaked findings: %v", diags)
	}
}

// TestStaleAllowDetection: a directive that suppresses a finding is
// live; one that suppresses nothing is reported stale.
func TestStaleAllowDetection(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module stale\n\ngo 1.22\n",
		"x.go": `package x

func Launch() {
	go run() //lint:allow rawgo exercised by the stale-allow test
}

func run() {}

//lint:allow errdrop this directive suppresses nothing
func Idle() {}
`,
	})
	m, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	diags, stale := Run(m, m.Pkgs, Suite())
	if len(diags) != 0 {
		t.Errorf("live allow failed to suppress: %v", diags)
	}
	if len(stale) != 1 {
		t.Fatalf("stale = %v, want exactly the errdrop directive", stale)
	}
	s := stale[0]
	if s.Check != "stale-allow" || s.Suppressible {
		t.Errorf("stale finding misclassified: %+v", s)
	}
	if s.Path != "x.go" || !strings.Contains(s.Message, "errdrop") {
		t.Errorf("stale finding should name the dead errdrop directive: %+v", s)
	}
	if n := CountSuppressions(m, m.Pkgs); n != 2 {
		t.Errorf("CountSuppressions = %d, want 2", n)
	}
}
