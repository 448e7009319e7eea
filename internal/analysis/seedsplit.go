package analysis

import "go/ast"

// SeedSplit enforces the RNG-splitting discipline inside parallel
// callbacks. A function literal handed to par.Map runs concurrently
// per item; any rand.NewSource it performs must derive its seed from
// par.SplitSeed(base, i). Ad-hoc arithmetic like seed+i produces
// correlated child streams and, worse, invites accidentally sharing
// one *rand.Rand across workers.
var SeedSplit = &Analyzer{
	Name: "seedsplit",
	Doc:  "flags rand.NewSource inside parallel callbacks not derived from par.SplitSeed",
	Run: func(pass *Pass) {
		parPath := pass.Pkg.ModulePath + "/internal/par"
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if !pass.IsPkgFunc(call.Fun, parPath, "Map") || len(call.Args) != 3 {
					return true
				}
				if lit, ok := call.Args[2].(*ast.FuncLit); ok {
					checkSeedDiscipline(pass, lit, parPath)
				}
				return true
			})
		}
	},
}

// checkSeedDiscipline inspects one parallel callback body for
// rand.NewSource calls with undisciplined seeds.
func checkSeedDiscipline(pass *Pass, lit *ast.FuncLit, parPath string) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		isSource := pass.IsPkgFunc(call.Fun, "math/rand", "NewSource")
		if !isSource || len(call.Args) != 1 {
			return true
		}
		seed := call.Args[0]
		if exprContainsPkgFunc(pass, seed, parPath, "SplitSeed") {
			return true
		}
		pass.Reportf(call.Pos(), "rand.NewSource inside a par.Map callback must derive its seed from par.SplitSeed")
		return true
	})
}

// exprContainsPkgFunc reports whether e mentions pkgPath.name
// anywhere.
func exprContainsPkgFunc(pass *Pass, e ast.Expr, pkgPath, name string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if expr, ok := n.(ast.Expr); ok && pass.IsPkgFunc(expr, pkgPath, name) {
			found = true
		}
		return true
	})
	return found
}
