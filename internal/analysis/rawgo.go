package analysis

import (
	"go/ast"
	"strings"
)

// RawGo flags `go` statements everywhere except internal/par, the
// sanctioned concurrency substrate (the bounded worker pool). All other
// code must express parallelism through par.Map, which is what makes
// worker-count invariance checkable in one place instead of
// everywhere.
var RawGo = &Analyzer{
	Name: "rawgo",
	Doc:  "flags go statements outside internal/par",
	AppliesTo: func(path string) bool {
		return !strings.HasSuffix(path, "internal/par")
	},
	Run: func(pass *Pass) {
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					pass.Reportf(g.Pos(), "go statement outside the concurrency substrate; route parallelism through par.Map")
				}
				return true
			})
		}
	},
}
