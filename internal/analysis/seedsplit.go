package analysis

import "go/ast"

// SeedSplit enforces the RNG-splitting discipline inside parallel
// callbacks. A function literal handed to par.Map or to the parallel
// pipeline.Map stage runs concurrently per item; any rand.NewSource it
// performs must derive its seed from par.SplitSeed(base, i). Ad-hoc
// arithmetic like seed+i produces correlated child streams and, worse,
// invites accidentally sharing one *rand.Rand across workers.
var SeedSplit = &Analyzer{
	Name: "seedsplit",
	Doc:  "flags rand.NewSource inside parallel callbacks not derived from par.SplitSeed",
	Run: func(pass *Pass) {
		parPath := pass.Pkg.ModulePath + "/internal/par"
		pipePath := pass.Pkg.ModulePath + "/internal/pipeline"
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				var fnArg ast.Expr
				var host string
				switch {
				case pass.IsPkgFunc(call.Fun, parPath, "Map") && len(call.Args) == 3:
					fnArg, host = call.Args[2], "par.Map"
				case pass.IsPkgFunc(call.Fun, pipePath, "Map") && len(call.Args) == 2:
					fnArg, host = call.Args[1], "pipeline.Map"
				default:
					return true
				}
				lit, ok := fnArg.(*ast.FuncLit)
				if !ok {
					return true
				}
				checkSeedDiscipline(pass, lit, host, parPath)
				return true
			})
		}
	},
}

// checkSeedDiscipline inspects one parallel callback body for
// rand.NewSource calls with undisciplined seeds.
func checkSeedDiscipline(pass *Pass, lit *ast.FuncLit, host, parPath string) {
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
		pass.Reportf(call.Pos(), "rand.NewSource inside a %s callback must derive its seed from par.SplitSeed", host)
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
