package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"path/filepath"
	"sync"
)

// DeadCode reports every function and method that no binary reaches.
// The roots are what can run or be called from outside the module:
//
//   - main in every package main (cmd/* and examples/*), every init,
//     and every package-level var or const declaration;
//   - the exported API of the facade, the package at the module root,
//     which is the module's only importable public surface: its
//     exported functions, and the exported methods of the types it
//     declares (an exported alias of an internal type makes that type
//     live, but does not promise every method of it);
//   - every symbol the benchmark harness in _perfbench/ references —
//     it is a module of its own, loaded here through Module.LoadDir;
//   - methods of live types that satisfy an interface: any interface
//     of a standard-library package the module imports (error,
//     fmt.Stringer, http.Handler, sort.Interface, ...) and the probes
//     errors.Is/As/Unwrap make, or a module interface whose method
//     live code calls.
//
// A reference is any use the type checker resolves (types.Info.Uses
// and Selections), so a function stored as a value counts as reached.
// Tests are not roots: a helper only tests call is reported too. Keep
// a deliberate one (a reference implementation a golden compares
// against, a hook a chaos suite drives) with a reasoned
// //lint:allow deadcode on its declaration.
var DeadCode = &Analyzer{
	Name: "deadcode",
	Doc:  "flags functions and methods no main, init, facade export or _perfbench reference reaches",
	Run: func(pass *Pass) {
		set := pass.Mod.reach(pass.Pkg)
		for _, f := range pass.Pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "_" {
					continue
				}
				fn, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok || !set.dead(fn) {
					continue
				}
				pass.Reportf(fd.Name.Pos(), "%s is unreachable: no main, init, package-level initializer, facade export or _perfbench reference leads to it", shortName(fn))
			}
		}
	},
}

type reachKey struct {
	m     *Module
	extra *Package
}

var (
	reachMu     sync.Mutex
	reaches     = map[reachKey]*reachSet{}
	perfbenches = map[*Module]*Package{}
)

// reach returns the reachability of the module's functions, and of
// extra's when it is a fixture package outside the module set,
// memoized like Graph.
func (m *Module) reach(extra *Package) *reachSet {
	reachMu.Lock()
	defer reachMu.Unlock()
	pkgs := m.Pkgs
	if extra == nil || containsPkg(pkgs, extra) {
		extra = nil
	} else {
		pkgs = append(append([]*Package{}, pkgs...), extra)
	}
	key := reachKey{m, extra}
	if reaches[key] == nil {
		reaches[key] = computeReach(m, pkgs, m.perfbench())
	}
	return reaches[key]
}

// perfbench loads the benchmark harness under <module>/_perfbench, or
// returns nil when the module has none. Its references to the module
// resolve against the loaded packages, as a replace directive would.
// The caller holds reachMu.
func (m *Module) perfbench() *Package {
	if p, ok := perfbenches[m]; ok {
		return p
	}
	var p *Package
	dir := filepath.Join(m.Dir, "_perfbench")
	if matches, _ := filepath.Glob(filepath.Join(dir, "*.go")); len(matches) > 0 {
		var err error
		if p, err = m.LoadDir(dir, m.Path+"/_perfbench"); err != nil {
			// Without the harness its roots are gone and whatever only
			// it reaches reads dead; say why instead.
			m.LoadDiags = append(m.LoadDiags, Diagnostic{
				Check: "parse", Analyzer: "load", Path: "_perfbench", Line: 1, Col: 1,
				Message: "benchmark harness failed to load: " + err.Error(),
			})
		}
	}
	perfbenches[m] = p
	return p
}

// reachSet is the outcome of one reachability computation. roots holds
// what the roots reach; kept holds the functions a //lint:allow
// deadcode directive keeps on purpose, and held what those reach
// beyond the roots.
type reachSet struct {
	roots, held, kept map[*types.Func]bool
}

// dead reports whether the analyzer must report fn: it is reached from
// no root and no kept function, or it is kept itself (so the finding
// consumes the directive, and a kept function that became reachable
// surfaces as a stale allow).
func (s *reachSet) dead(fn *types.Func) bool {
	return !s.roots[fn] && (!s.held[fn] || s.kept[fn])
}

// reacher is one reachability computation: a worklist over function
// and type declarations, plus the interface-satisfaction edges that
// wait for a module interface to go live.
type reacher struct {
	info  *types.Info
	inMod map[*types.Package]bool

	funcDecls map[*types.Func]ast.Node
	typeDecls map[*types.TypeName]ast.Node
	ifaces    []ifaceUse

	reached map[*types.Func]bool
	live    map[*types.TypeName]bool
	// waiting maps a module interface to the methods of live types
	// that satisfy it, reached once the interface itself goes live.
	waiting map[*types.TypeName][]*types.Func
	work    []ast.Node
}

// ifaceUse is one interface a method may be needed for. owner is the
// module's named interface, which counts once it is live; nil marks an
// interface that always counts: the standard library's (fmt calls
// String, net/http calls ServeHTTP from code the loader never scans)
// and interface literals written in the module.
type ifaceUse struct {
	iface *types.Interface
	owner *types.TypeName
}

func computeReach(m *Module, pkgs []*Package, perf *Package) *reachSet {
	r := &reacher{
		inMod:     map[*types.Package]bool{},
		funcDecls: map[*types.Func]ast.Node{},
		typeDecls: map[*types.TypeName]ast.Node{},
		reached:   map[*types.Func]bool{},
		live:      map[*types.TypeName]bool{},
		waiting:   map[*types.TypeName][]*types.Func{},
	}
	for _, p := range pkgs {
		r.info = p.Info // one Info spans the whole load
		if p.Types != nil {
			r.inMod[p.Types] = true
		}
	}
	kept := r.collectDecls(m, pkgs)
	r.collectIfaces(pkgs)

	for _, p := range pkgs {
		facade := p.Path == m.Path
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, ok := p.Info.Defs[d.Name].(*types.Func)
					if !ok || d.Recv != nil {
						continue
					}
					if d.Name.Name == "init" || d.Name.Name == "main" && p.Name == "main" || facade && d.Name.IsExported() {
						r.markFunc(fn)
					}
				case *ast.GenDecl:
					switch {
					case d.Tok == token.VAR || d.Tok == token.CONST:
						r.work = append(r.work, d)
					case d.Tok == token.TYPE && facade:
						for _, spec := range d.Specs {
							ts := spec.(*ast.TypeSpec)
							tn, ok := p.Info.Defs[ts.Name].(*types.TypeName)
							if !ok || !ts.Name.IsExported() {
								continue
							}
							r.markType(tn)
							if named, ok := tn.Type().(*types.Named); ok && !tn.IsAlias() {
								for i := 0; i < named.NumMethods(); i++ {
									if fn := named.Method(i); fn.Exported() {
										r.markFunc(fn)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if perf != nil {
		for _, f := range perf.Files {
			r.work = append(r.work, f)
		}
	}
	r.drain()
	set := &reachSet{roots: r.reached, kept: kept}
	r.reached = maps.Clone(r.reached)
	for fn := range kept {
		r.markFunc(fn)
	}
	r.drain()
	set.held = r.reached
	return set
}

func (r *reacher) drain() {
	for len(r.work) > 0 {
		n := r.work[len(r.work)-1]
		r.work = r.work[:len(r.work)-1]
		r.scan(n)
	}
}

// collectDecls indexes every function and package-level type
// declaration of the module by its object, and returns the functions
// a //lint:allow deadcode directive covers.
func (r *reacher) collectDecls(m *Module, pkgs []*Package) map[*types.Func]bool {
	kept := map[*types.Func]bool{}
	for _, p := range pkgs {
		allow := buildAllowIndex(m.Dir, p)
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, ok := p.Info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					r.funcDecls[fn] = d
					if pos := p.Fset.Position(d.Name.Pos()); allow.covers("deadcode", pos.Filename, pos.Line) {
						kept[fn] = true
					}
				case *ast.GenDecl:
					if d.Tok != token.TYPE {
						continue
					}
					for _, spec := range d.Specs {
						ts := spec.(*ast.TypeSpec)
						if tn, ok := p.Info.Defs[ts.Name].(*types.TypeName); ok {
							r.typeDecls[tn] = ts
						}
					}
				}
			}
		}
	}
	return kept
}

// collectIfaces gathers the interfaces a method may be needed for:
// every interface written in the module (named or literal), every
// exported interface of a standard-library package the module
// imports, the universe's error, and the anonymous interfaces
// errors.Is, errors.As and errors.Unwrap probe for.
func (r *reacher) collectIfaces(pkgs []*Package) {
	add := func(t types.Type, owner *types.TypeName) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 {
			return
		}
		if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
			return
		}
		r.ifaces = append(r.ifaces, ifaceUse{iface: it, owner: owner})
	}
	for _, src := range []string{
		"error",
		"interface{ Unwrap() error }",
		"interface{ Unwrap() []error }",
		"interface{ Is(error) bool }",
		"interface{ As(any) bool }",
	} {
		tv, err := types.Eval(token.NewFileSet(), nil, token.NoPos, src)
		if err != nil {
			panic("analysis: bad probe interface " + src + ": " + err.Error())
		}
		add(tv.Type, nil)
	}

	seenStd := map[*types.Package]bool{}
	for _, p := range pkgs {
		if p.Types == nil {
			continue
		}
		for _, imp := range p.Types.Imports() {
			if r.inMod[imp] || seenStd[imp] {
				continue
			}
			seenStd[imp] = true
			scope := imp.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
					add(tn.Type(), nil)
				}
			}
		}
		for _, f := range p.Files {
			named := map[*ast.InterfaceType]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.TypeSpec:
					if it, ok := v.Type.(*ast.InterfaceType); ok {
						named[it] = true
						if tn, ok := p.Info.Defs[v.Name].(*types.TypeName); ok {
							add(tn.Type(), tn)
						}
					}
				case *ast.InterfaceType:
					if t := p.Info.TypeOf(v); t != nil && !named[v] {
						add(t, nil)
					}
				}
				return true
			})
		}
	}
}

// markFunc records fn as reached and schedules its declaration for
// scanning.
func (r *reacher) markFunc(fn *types.Func) {
	if o := fn.Origin(); o != nil {
		fn = o
	}
	if r.reached[fn] {
		return
	}
	r.reached[fn] = true
	if d, ok := r.funcDecls[fn]; ok {
		r.work = append(r.work, d)
	}
}

// markType makes a module type live. Its declaration is scanned, so
// field and embedded types go live with it. A live interface releases
// the methods waiting on it; a live concrete type reaches its methods
// that satisfy an interface that counts, and parks the ones that
// satisfy a module interface not yet live.
func (r *reacher) markType(tn *types.TypeName) {
	if r.live[tn] || !r.inMod[tn.Pkg()] {
		return
	}
	r.live[tn] = true
	if d, ok := r.typeDecls[tn]; ok {
		r.work = append(r.work, d)
	}
	for _, fn := range r.waiting[tn] {
		r.markFunc(fn)
	}
	delete(r.waiting, tn)
	named, ok := tn.Type().(*types.Named)
	if !ok || tn.IsAlias() || named.TypeParams().Len() > 0 {
		return
	}
	if _, ok := named.Underlying().(*types.Interface); ok {
		return
	}
	ptr := types.NewPointer(named)
	for _, use := range r.ifaces {
		if !types.Implements(ptr, use.iface) {
			continue
		}
		for i := 0; i < use.iface.NumMethods(); i++ {
			am := use.iface.Method(i)
			obj, _, _ := types.LookupFieldOrMethod(ptr, false, am.Pkg(), am.Name())
			impl, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			if use.owner == nil || r.live[use.owner] {
				r.markFunc(impl)
			} else {
				r.waiting[use.owner] = append(r.waiting[use.owner], impl)
			}
		}
	}
}

// scan follows every resolved reference under n: functions and
// methods (called or used as values) are reached, and named types go
// live.
func (r *reacher) scan(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		var obj types.Object
		switch v := n.(type) {
		case *ast.Ident:
			obj = r.info.Uses[v]
		case *ast.SelectorExpr:
			if sel := r.info.Selections[v]; sel != nil {
				obj = sel.Obj()
			}
		}
		switch o := obj.(type) {
		case *types.Func:
			r.markFunc(o)
		case *types.TypeName:
			r.markType(o)
		}
		return true
	})
}
