package analysis

import (
	"go/types"
	"slices"
	"strings"
	"testing"
)

// nodeFor walks the module graph for the function named pkgPath.name
// (name is "Recv.Method" for methods, matching shortName).
func nodeFor(t *testing.T, m *Module, pkgPath, name string) *FuncNode {
	t.Helper()
	g := m.Graph(nil)
	// shortName prefixes the package name ("registry.Registry.Wait").
	want := pkgPath[strings.LastIndex(pkgPath, "/")+1:] + "." + name
	var hit *FuncNode
	for fn, n := range g.nodes {
		if n.Pkg == nil || n.Pkg.Path != pkgPath {
			continue
		}
		if shortName(fn) == want {
			if hit != nil {
				t.Fatalf("two graph nodes named %s in %s", name, pkgPath)
			}
			hit = n
		}
	}
	if hit == nil {
		t.Fatalf("no graph node %s in %s", name, pkgPath)
	}
	return hit
}

// TestBlockingFacts grounds the interprocedural engine against the
// real module: functions that demonstrably park a goroutine carry the
// blocking fact (with the right kind where the source is direct), and
// lock-protected fast paths do not.
func TestBlockingFacts(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module graph build is not a -short test")
	}
	m := loadRepo(t)

	cases := []struct {
		pkg, fn  string
		blocking bool
		kind     BlockKind // KindNone means "do not check the kind"
	}{
		// Direct intrinsic sources.
		{"repro/internal/fault", "Translator.Translate", true, KindSyncWait},
		{"repro/internal/par", "MapCtx", true, KindChan},
		// A model call through the Translator interface.
		{"repro/internal/runtime", "Translator.tierCandidates", true, KindModel},
		// Transitive through a module-internal helper chain.
		{"repro/internal/serve", "Server.Shutdown", true, KindNone},
		// Precision: mutex-guarded fast paths are NOT blocking, even
		// though they lock; classifying Lock as blocking would poison
		// half the serving stack.
		{"repro/internal/serve", "Breaker.Allow", false, KindNone},
	}
	for _, c := range cases {
		n := nodeFor(t, m, c.pkg, c.fn)
		if n.Blocking != c.blocking {
			t.Errorf("%s.%s: Blocking=%v (reason %q), want %v", c.pkg, c.fn, n.Blocking, n.BlockReason, c.blocking)
			continue
		}
		if c.blocking && c.kind != KindNone && n.BlockKind != c.kind {
			t.Errorf("%s.%s: BlockKind=%v (reason %q), want %v", c.pkg, c.fn, n.BlockKind, n.BlockReason, c.kind)
		}
		if c.blocking && n.BlockReason == "" {
			t.Errorf("%s.%s: blocking node carries no witness reason", c.pkg, c.fn)
		}
	}

	// A transitive witness names the callee chain it was inherited
	// from, so a finding's "why" is actionable.
	sd := nodeFor(t, m, "repro/internal/serve", "Server.Shutdown")
	if !strings.Contains(sd.BlockReason, "may block") {
		t.Errorf("Server.Shutdown witness should explain the inherited fact, got %q", sd.BlockReason)
	}
}

// TestRecvLocks pins the receiver-lock summaries that lockheld's
// self-deadlock rule consumes.
func TestRecvLocks(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module graph build is not a -short test")
	}
	m := loadRepo(t)
	n := nodeFor(t, m, "repro/internal/serve", "Breaker.Allow")
	found := false
	for _, l := range n.RecvLocks {
		if strings.HasSuffix(l, ".mu") || l == "mu" {
			found = true
		}
	}
	if !found {
		t.Errorf("Breaker.Allow should summarize its receiver mutex acquisition, got %v", n.RecvLocks)
	}
}

// Origin canonicalization: instantiated generic functions share one
// graph node with their generic origin.
func TestGraphNodeCanonicalization(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module graph build is not a -short test")
	}
	m := loadRepo(t)
	g := m.Graph(nil)
	for fn := range g.nodes {
		if fn.Origin() != fn {
			t.Errorf("graph keyed by instantiation, not origin: %v", fn)
		}
		var _ *types.Func = fn
	}
}

// TestAssemblyBackedFunction: a body-less //go:noescape declaration
// implemented in assembly, as internal/neural's SIMD kernels are, is a
// leaf of the call graph. It gets no node of its own, its callers
// record the call without inheriting a blocking fact, and no analyzer
// panics on it or reports it, including at a call in a loop and one
// under a held lock.
func TestAssemblyBackedFunction(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module kern\n\ngo 1.22\n",
		"kern.go": `package kern

import "sync"

// add4 adds src into dst; kern_amd64.s implements it.
//
//go:noescape
func add4(dst, src *[4]float64)

// Sum adds every block of src into dst.
func Sum(dst *[4]float64, src [][4]float64) {
	for i := range src {
		add4(dst, &src[i])
	}
}

// Acc is an accumulator shared between goroutines.
type Acc struct {
	mu  sync.Mutex
	sum [4]float64
}

// Add adds src under the lock.
func (a *Acc) Add(src *[4]float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	add4(&a.sum, src)
}
`,
		"kern_amd64.s": "#include \"textflag.h\"\n\n// func add4(dst, src *[4]float64)\nTEXT ·add4(SB), NOSPLIT, $0-16\n\tRET\n",
	})
	m, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if len(m.LoadDiags) != 0 || len(m.Pkgs) != 1 {
		t.Fatalf("load: %d packages, diagnostics %v", len(m.Pkgs), m.LoadDiags)
	}
	pkg := m.Pkgs[0]
	for _, err := range pkg.TypeErrors {
		t.Errorf("type error: %v", err)
	}
	add4, ok := pkg.Types.Scope().Lookup("add4").(*types.Func)
	if !ok {
		t.Fatal("add4 not declared")
	}
	if n := m.Graph(nil).NodeOf(add4); n != nil {
		t.Errorf("body-less add4 has a graph node: %+v", n)
	}
	for _, name := range []string{"Sum", "Acc.Add"} {
		n := nodeFor(t, m, "kern", name)
		if !slices.Contains(n.Calls, add4) {
			t.Errorf("%s: calls %v, want add4 among them", name, n.Calls)
		}
		if n.Blocking {
			t.Errorf("%s: blocking (%s), but add4 is a leaf", name, n.BlockReason)
		}
	}
	if diags, _ := Run(m, m.Pkgs, Suite()); len(diags) != 0 {
		t.Errorf("findings on an assembly-backed function: %v", diags)
	}
}
