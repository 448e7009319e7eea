package analysis

import (
	"strings"
	"testing"

	"go/types"
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
		{"repro/internal/registry", "Registry.Wait", true, KindSyncWait},
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
