package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// This file is the interprocedural layer beneath the concurrency
// analyzers: a module-wide static call graph with a "may block" fact
// that propagates from intrinsic blocking sites (channel operations,
// sync waits, network packages, model Translate*/Ask*/Train* calls,
// context-accepting signatures) through every static call edge. The
// graph is built once per Module and memoized; fixture packages are
// grafted on top of the base graph per package, so fixtures see the
// real module's facts (a fixture calling par.Map inherits par.Map's
// blocking fact) without rebuilding the world.

// BlockKind classifies the root cause of a function's blocking fact.
// Transitive facts inherit the kind of their witness callee, so a
// caller of Registry.Wait is KindSyncWait all the way up.
type BlockKind int

// Blocking root causes.
const (
	// KindNone: the function has no blocking fact.
	KindNone BlockKind = iota
	// KindChan: a channel send/receive/range or a select without a
	// default case.
	KindChan
	// KindSyncWait: sync.WaitGroup.Wait or sync.Cond.Wait.
	KindSyncWait
	// KindNet: a call into net, net/http, net/rpc, os/exec, or
	// database/sql.
	KindNet
	// KindModel: a Translate*/Ask*/Train* call — the pluggable-model
	// surface, unbounded unless wrapped in par.Await.
	KindModel
	// KindCtx: the callee accepts a context.Context, which by this
	// repository's convention marks a cancellable (and therefore
	// possibly long-running) operation.
	KindCtx
)

// String names the kind for diagnostics.
func (k BlockKind) String() string {
	switch k {
	case KindChan:
		return "channel operation"
	case KindSyncWait:
		return "sync wait"
	case KindNet:
		return "network/process I/O"
	case KindModel:
		return "model call"
	case KindCtx:
		return "context-accepting call"
	}
	return "none"
}

// FuncNode is one function or method in the call graph.
type FuncNode struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	// Calls are the statically resolved callees (deduplicated,
	// deterministic order). go statements are excluded: launching a
	// goroutine does not block the launcher.
	Calls []*types.Func

	// Blocking reports that calling this function may block the
	// caller; BlockKind and BlockReason describe the first witness.
	Blocking    bool
	BlockKind   BlockKind
	BlockReason string
	BlockPos    token.Pos

	// RecvLocks lists the receiver mutex fields this method locks
	// directly (r.mu.Lock() with receiver r) — the re-entry fact the
	// lockheld analyzer consults.
	RecvLocks []string
}

// CallGraph is the module-wide graph plus the classification helpers
// the analyzers share.
type CallGraph struct {
	mod   *Module
	nodes map[*types.Func]*FuncNode
}

var (
	graphMu  sync.Mutex
	graphs   = map[*Module]*CallGraph{}
	extended = map[*Package]*CallGraph{}
)

// Graph returns the call graph over the module's packages. When extra
// is a fixture package outside the module set, the returned graph
// additionally covers it (memoized per fixture).
func (m *Module) Graph(extra *Package) *CallGraph {
	graphMu.Lock()
	defer graphMu.Unlock()
	base := graphs[m]
	if base == nil {
		base = buildGraph(m, m.Pkgs)
		graphs[m] = base
	}
	if extra == nil || base.nodes != nil && containsPkg(m.Pkgs, extra) {
		return base
	}
	if g, ok := extended[extra]; ok {
		return g
	}
	g := buildGraph(m, append(append([]*Package{}, m.Pkgs...), extra))
	extended[extra] = g
	return g
}

func containsPkg(pkgs []*Package, p *Package) bool {
	for _, q := range pkgs {
		if q == p {
			return true
		}
	}
	return false
}

// Graph returns the interprocedural call graph covering the module
// and this pass's package.
func (p *Pass) Graph() *CallGraph {
	return p.Mod.Graph(p.Pkg)
}

// NodeOf returns the graph node for fn (generic instances are
// canonicalized to their origin), or nil for functions without a body
// in the module (stdlib, interface methods).
func (g *CallGraph) NodeOf(fn *types.Func) *FuncNode {
	if fn == nil {
		return nil
	}
	if o := fn.Origin(); o != nil {
		fn = o
	}
	return g.nodes[fn]
}

// buildGraph collects one FuncNode per declared function, records
// static call edges and intrinsic blocking sites, then propagates the
// blocking fact to callers until fixpoint.
func buildGraph(m *Module, pkgs []*Package) *CallGraph {
	g := &CallGraph{mod: m, nodes: map[*types.Func]*FuncNode{}}
	var order []*FuncNode
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &FuncNode{Obj: obj, Decl: fd, Pkg: pkg}
				g.nodes[obj] = n
				order = append(order, n)
			}
		}
	}
	for _, n := range order {
		g.summarize(n)
	}
	g.propagate(order)
	return g
}

// summarize records n's static callees, intrinsic blocking sites, and
// receiver-lock set. Nested function literals are skipped (their
// bodies run on other goroutines or at other times), except literals
// that are invoked immediately, whose bodies execute inline.
func (g *CallGraph) summarize(n *FuncNode) {
	info := n.Pkg.Info
	recv := receiverObj(info, n.Decl)
	seen := map[*types.Func]bool{}

	var visit func(node ast.Node) bool
	visit = func(node ast.Node) bool {
		switch v := node.(type) {
		case *ast.FuncLit:
			return false // not this function's control flow
		case *ast.GoStmt:
			// The launch is asynchronous; only the argument
			// expressions run here.
			for _, arg := range v.Call.Args {
				ast.Inspect(arg, visit)
			}
			return false
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(v.Fun).(*ast.FuncLit); ok {
				// Immediately-invoked literal: its body is inline.
				for _, arg := range v.Args {
					ast.Inspect(arg, visit)
				}
				ast.Inspect(lit.Body, visit)
				return false
			}
			if fn := CalleeOf(info, v); fn != nil {
				if o := fn.Origin(); o != nil {
					fn = o
				}
				if !seen[fn] {
					seen[fn] = true
					n.Calls = append(n.Calls, fn)
				}
				if field, ok := recvLockCall(info, v, recv); ok {
					n.RecvLocks = append(n.RecvLocks, field)
				}
			}
			if kind, why, ok := g.classifyCall(n.Pkg, v); ok && !n.Blocking {
				n.setBlocking(kind, why, v.Pos())
			}
			return true
		case *ast.SendStmt:
			if !n.Blocking {
				n.setBlocking(KindChan, "channel send", v.Pos())
			}
		case *ast.UnaryExpr:
			if v.Op == token.ARROW && !n.Blocking {
				n.setBlocking(KindChan, "channel receive", v.Pos())
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(v.X); t != nil && isChanType(t) && !n.Blocking {
				n.setBlocking(KindChan, "range over a channel", v.X.Pos())
			}
		case *ast.SelectStmt:
			if !selectHasDefault(v) && !n.Blocking {
				n.setBlocking(KindChan, "select without a default case", v.Pos())
			}
		}
		return true
	}
	ast.Inspect(n.Decl.Body, visit)
	sort.Slice(n.Calls, func(i, j int) bool { return n.Calls[i].FullName() < n.Calls[j].FullName() })
	sort.Strings(n.RecvLocks)
}

func (n *FuncNode) setBlocking(kind BlockKind, why string, pos token.Pos) {
	n.Blocking = true
	n.BlockKind = kind
	n.BlockReason = why
	n.BlockPos = pos
}

// propagate pushes the blocking fact caller-ward until fixpoint.
func (g *CallGraph) propagate(order []*FuncNode) {
	callers := map[*types.Func][]*FuncNode{}
	for _, n := range order {
		for _, callee := range n.Calls {
			callers[callee] = append(callers[callee], n)
		}
	}
	var work []*FuncNode
	for _, n := range order {
		if n.Blocking {
			work = append(work, n)
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, caller := range callers[n.Obj] {
			if caller.Blocking {
				continue
			}
			caller.setBlocking(n.BlockKind,
				fmt.Sprintf("calls %s, which may block (%s)", shortName(n.Obj), n.BlockReason),
				n.BlockPos)
			work = append(work, caller)
		}
	}
}

// BlockingCall classifies one call expression: whether it may block,
// with the kind and a human-readable reason. It consults, in order:
// the module graph (transitive facts), the stdlib blocking set, the
// model-call naming convention, and the context-accepting rule.
func (g *CallGraph) BlockingCall(pkg *Package, call *ast.CallExpr) (BlockKind, string, bool) {
	return g.classifyCall(pkg, call)
}

func (g *CallGraph) classifyCall(pkg *Package, call *ast.CallExpr) (BlockKind, string, bool) {
	info := pkg.Info
	fn := CalleeOf(info, call)
	if fn != nil {
		if o := fn.Origin(); o != nil {
			fn = o
		}
		if node := g.nodes[fn]; node != nil {
			if node.Blocking {
				return node.BlockKind, fmt.Sprintf("%s may block (%s)", shortName(fn), node.BlockReason), true
			}
			// A module function with a clean summary is trusted over
			// the name/signature heuristics below.
			return KindNone, "", false
		}
		pkgPath := ""
		if fn.Pkg() != nil {
			pkgPath = fn.Pkg().Path()
		}
		switch {
		case pkgPath == "time" && fn.Name() == "Sleep":
			return KindSyncWait, "time.Sleep", true
		case pkgPath == "sync" && fn.Name() == "Wait" && isSyncWaitRecv(fn):
			return KindSyncWait, "sync." + recvTypeName(fn) + ".Wait", true
		case isNetPkg(pkgPath):
			return KindNet, pkgPath + "." + fn.Name() + " performs I/O", true
		case pkgPath == "context" || pkgPath == "os/signal":
			// Constructors and accessors that take or return contexts
			// never block; without this exemption the
			// context-accepting rule below would flag them all.
			return KindNone, "", false
		}
		if isModelCallName(fn.Name()) {
			return KindModel, shortName(fn) + " is a model call", true
		}
		if sigAcceptsContext(fn.Type()) {
			return KindCtx, shortName(fn) + " accepts a context (cancellable, so possibly slow)", true
		}
		return KindNone, "", false
	}
	// Dynamic call (func value, func-typed field): only the name and
	// signature are available.
	if name, ok := callName(call); ok && isModelCallName(name) {
		return KindModel, name + " is a model call", true
	}
	if t := info.TypeOf(call.Fun); t != nil {
		if pkgName(info, call) == "context" || pkgName(info, call) == "signal" {
			return KindNone, "", false
		}
		if sigAcceptsContext(t) {
			return KindCtx, "callee accepts a context (cancellable, so possibly slow)", true
		}
	}
	return KindNone, "", false
}

// ---------------------------------------------------------------------
// Resolution helpers (shared with the analyzers).
// ---------------------------------------------------------------------

// CalleeOf statically resolves a call's target function or method;
// nil for dynamic calls, conversions, and builtins.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.IndexExpr: // explicit generic instantiation f[T](...)
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				return fn
			}
		}
	}
	return nil
}

// callName extracts the syntactic callee name ("Translate" in
// x.Translate(...)), for heuristics over dynamic calls.
func callName(call *ast.CallExpr) (string, bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name, true
	case *ast.SelectorExpr:
		return fun.Sel.Name, true
	}
	return "", false
}

func pkgName(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Name()
	}
	return ""
}

// isModelCallName matches the pluggable-model call surface:
// Translate, TranslateK, TranslatePrepared, Ask, Train, TrainContext, ... —
// a name-based convention because the model behind the interface is
// exactly what the module cannot see.
func isModelCallName(name string) bool {
	for _, prefix := range []string{"Translate", "Ask", "Train"} {
		if name == prefix {
			return true
		}
		if rest, ok := strings.CutPrefix(name, prefix); ok && len(rest) > 0 && rest[0] >= 'A' && rest[0] <= 'Z' {
			return true
		}
	}
	return false
}

func isNetPkg(path string) bool {
	for _, p := range []string{"net", "net/http", "net/rpc", "os/exec", "database/sql"} {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

func sigAcceptsContext(t types.Type) bool {
	sig, ok := t.(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i).Type().String() == "context.Context" {
			return true
		}
	}
	return false
}

func isSyncWaitRecv(fn *types.Func) bool {
	name := recvTypeName(fn)
	return name == "WaitGroup" || name == "Cond"
}

// recvTypeName returns the bare receiver type name of a method
// ("WaitGroup" for (*sync.WaitGroup).Wait), or "".
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// shortName renders pkg.Func or pkg.Type.Method for diagnostics.
func shortName(fn *types.Func) string {
	recv := recvTypeName(fn)
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	if recv != "" {
		return pkg + recv + "." + fn.Name()
	}
	return pkg + fn.Name()
}

func isChanType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// receiverObj returns the receiver variable of a method declaration,
// or nil.
func receiverObj(info *types.Info, fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return info.Defs[fd.Recv.List[0].Names[0]]
}

// recvLockCall reports that call is recv.<field>.Lock() /
// RLock() on the method's own receiver, returning the field name.
func recvLockCall(info *types.Info, call *ast.CallExpr, recv types.Object) (string, bool) {
	if recv == nil {
		return "", false
	}
	fn := CalleeOf(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false
	}
	if fn.Name() != "Lock" && fn.Name() != "RLock" {
		return "", false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	field, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	base, ok := ast.Unparen(field.X).(*ast.Ident)
	if !ok || info.Uses[base] != recv {
		return "", false
	}
	return field.Sel.Name, true
}

// MutexLockCall classifies a call as a sync mutex Lock/RLock or
// Unlock/RUnlock, returning the lock expression ("b.mu") and whether
// it acquires (true) or releases (false).
func MutexLockCall(info *types.Info, call *ast.CallExpr) (lockExpr ast.Expr, acquire, ok bool) {
	fn := CalleeOf(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, false, false
	}
	var acq bool
	switch fn.Name() {
	case "Lock", "RLock":
		acq = true
	case "Unlock", "RUnlock":
		acq = false
	default:
		return nil, false, false
	}
	if name := recvTypeName(fn); name != "Mutex" && name != "RWMutex" {
		return nil, false, false
	}
	sel, ok2 := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok2 {
		return nil, false, false
	}
	return sel.X, acq, true
}
