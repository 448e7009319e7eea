// Package critic is the execution-guided validation-and-repair layer
// that every decoded candidate passes through before it can become an
// answer. For each candidate query it runs three stages:
//
//  1. static schema-semantic checks (unknown tables/columns, ambiguous
//     references, type-incompatible predicates, subquery arity,
//     grouping misuse) against the tenant's schema,
//  2. a deterministic rule-based repair pass when the checks fail
//     (nearest-lexicon identifier repair with seeded tie-breaking,
//     literal type coercion, missing-GROUP-BY injection, and — after a
//     row-budget abort — LIMIT injection), and
//  3. a sandboxed dry-run against the tenant's engine instance:
//     panic-recovered into a typed ExecError, deadline-bounded via
//     par.Await (a hung engine costs one goroutine, never a request
//     slot), and row-budget-capped so runaway scans abort
//     deterministically.
//
// The verdicts form a small lattice — valid ≻ repaired ≻ {exec_failed,
// invalid} ≻ sandbox_error — and the runtime reranks a candidate beam
// validity-first over it: an earlier candidate wins within a class,
// but any valid candidate beats any repaired one, and both beat
// everything else. Every decision depends only on the query, the
// schema, the database contents, and the configured seed — never on
// scheduling or wall clock — so repair is bit-identical at any worker
// count.
package critic

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/par"
	"repro/internal/schema"
	"repro/internal/sqlast"
)

// Verdict is the critic's ruling on one candidate.
type Verdict int

// The verdict lattice, best first.
const (
	// VerdictValid: the candidate passed the static checks and the
	// dry-run as decoded.
	VerdictValid Verdict = iota
	// VerdictRepaired: the candidate was invalid as decoded but a
	// deterministic repair made it pass checks and dry-run.
	VerdictRepaired
	// VerdictExecFailed: the static checks passed (possibly after
	// repair) but the sandboxed dry-run failed on an engine error.
	VerdictExecFailed
	// VerdictInvalid: the static checks failed and repair did not
	// recover the candidate.
	VerdictInvalid
	// VerdictError: the sandbox itself misbehaved — the engine
	// panicked or the dry-run exceeded its deadline. This indicts the
	// engine, not the candidate; the serving layer's critic breaker
	// counts exactly these.
	VerdictError
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictValid:
		return "valid"
	case VerdictRepaired:
		return "repaired"
	case VerdictExecFailed:
		return "exec_failed"
	case VerdictInvalid:
		return "invalid"
	case VerdictError:
		return "sandbox_error"
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// ExecError is the typed dry-run failure: what went wrong inside the
// sandbox. Exactly one of Panicked, TimedOut, or Err is meaningful.
type ExecError struct {
	// Panicked: the engine panicked; the panic value is in Detail.
	Panicked bool
	// TimedOut: the dry-run exceeded the sandbox deadline and was
	// abandoned (costing one goroutine, never a request slot).
	TimedOut bool
	// Detail carries the recovered panic value.
	Detail string
	// Err is the engine's execution error (nil for panic/timeout);
	// engine.ErrKindOf classifies it.
	Err error
}

// Error implements error.
func (e *ExecError) Error() string {
	switch {
	case e.Panicked:
		return "critic: engine panicked in sandbox: " + e.Detail
	case e.TimedOut:
		return "critic: dry-run exceeded sandbox deadline"
	default:
		return "critic: dry-run failed: " + e.Err.Error()
	}
}

// Unwrap exposes the engine error for errors.As/Is.
func (e *ExecError) Unwrap() error { return e.Err }

// Infra reports whether the failure indicts the engine (panic, hang)
// rather than the candidate. The serving layer's critic breaker trips
// on these only — a flood of bad candidates must not open it.
func (e *ExecError) Infra() bool { return e.Panicked || e.TimedOut }

// CheckError is a static schema-semantic check failure, classified
// with the engine's error taxonomy so repair can branch on kind.
type CheckError struct {
	Kind engine.ErrKind
	Msg  string
}

// Error implements error.
func (e *CheckError) Error() string { return "critic: " + e.Msg }

// Config sizes the critic's sandbox and seeds its repair pass.
type Config struct {
	// RowBudget caps how many environment rows one dry-run may
	// materialize across the query and its subqueries (0 = default).
	RowBudget int
	// Timeout bounds one dry-run (0 = default). A dry-run still
	// running at expiry is abandoned via par.Await.
	Timeout time.Duration
	// Seed drives the deterministic tie-breaking of the
	// nearest-lexicon identifier repair.
	Seed int64
	// Exec overrides the sandbox executor — the fault-injection seam
	// the chaos suite drives hostile engines through (nil = the
	// tenant engine's budgeted execution). Everything the sandbox
	// promises (panic recovery, deadline, abandonment) wraps this.
	// A non-nil result it returns with a nil error becomes
	// Outcome.Result, which callers may answer with instead of
	// executing the query again.
	Exec func(q *sqlast.Query, budget int) (*engine.Result, error)
}

// Defaults for zero Config fields.
const (
	DefaultRowBudget = 200000
	DefaultTimeout   = 250 * time.Millisecond
	// injectedLimit is the LIMIT added when a dry-run aborts on the
	// row budget and the query has none: large enough to keep any
	// plausible answer intact, small enough that the engine's
	// early-exit scan finishes within budget.
	injectedLimit = 1000
)

// Stats is a point-in-time snapshot of the critic's counters.
type Stats struct {
	Reviewed uint64 `json:"reviewed"`
	Valid    uint64 `json:"valid"`
	Repaired uint64 `json:"repaired"`
	Rejected uint64 `json:"rejected"` // invalid + exec_failed
	Sandbox  uint64 `json:"sandbox_failures"`
}

// Critic validates and repairs candidate queries for one tenant.
// Methods are safe for concurrent use: the lexicon is immutable after
// New and the counters are atomic.
type Critic struct {
	db  *engine.Database
	s   *schema.Schema
	cfg Config

	tables []string // physical table names, declaration order
	exec   func(q *sqlast.Query, budget int) (*engine.Result, error)

	reviewed atomic.Uint64
	valid    atomic.Uint64
	repaired atomic.Uint64
	rejected atomic.Uint64
	sandbox  atomic.Uint64

	// now is injectable for tests; the default wall clock feeds only
	// the dry-run latency telemetry, never a decision.
	now func() time.Time
}

// New builds a critic over the tenant's database.
func New(db *engine.Database, cfg Config) *Critic {
	if cfg.RowBudget <= 0 {
		cfg.RowBudget = DefaultRowBudget
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	c := &Critic{
		db:  db,
		s:   db.Schema,
		cfg: cfg,
		now: time.Now, //lint:allow determinism wall clock feeds only the dry-run latency telemetry, never a verdict or repair decision
	}
	c.exec = cfg.Exec
	if c.exec == nil {
		c.exec = db.ExecuteBudget
	}
	for _, t := range db.Schema.Tables {
		c.tables = append(c.tables, t.Name)
	}
	return c
}

// Snapshot returns the current counters.
func (c *Critic) Snapshot() Stats {
	return Stats{
		Reviewed: c.reviewed.Load(),
		Valid:    c.valid.Load(),
		Repaired: c.repaired.Load(),
		Rejected: c.rejected.Load(),
		Sandbox:  c.sandbox.Load(),
	}
}

// Outcome reports one candidate's full pass through the critic.
type Outcome struct {
	Verdict Verdict
	// Repairs names the repair rules applied, in application order
	// ("identifier", "coerce", "groupby", "limit").
	Repairs []string
	// Detail explains a non-valid verdict.
	Detail string
	// Err is the sandbox failure for VerdictExecFailed/VerdictError.
	Err *ExecError
	// DryRunNS is the total sandbox time this review spent, summed
	// over every dry-run it ran (telemetry only).
	DryRunNS int64
	// Result is what the dry-run of the returned query produced, when
	// that dry-run ran to completion inside the row budget: the same
	// rows an unbudgeted execute of the query gives, so a caller can
	// answer with them instead of executing again. It is nil when the
	// verdict is not usable, when the query passed unverified on the
	// row budget, and when the executor returned no result.
	Result *engine.Result

	// repairedQ carries the repaired query from review to Review.
	repairedQ *sqlast.Query
}

// String renders the outcome as a compact trace verdict.
func (o Outcome) String() string {
	switch o.Verdict {
	case VerdictValid:
		if o.Detail != "" {
			return "valid (" + o.Detail + ")"
		}
		return "valid"
	case VerdictRepaired:
		s := "repaired(" + strings.Join(o.Repairs, ",") + ")"
		if o.Detail != "" {
			s += " (" + o.Detail + ")"
		}
		return s
	default:
		if o.Detail == "" && o.Err != nil {
			return o.Verdict.String() + ": " + o.Err.Error()
		}
		return o.Verdict.String() + ": " + o.Detail
	}
}

// Review is the full pass for one candidate: static checks, repair if
// needed, then the sandboxed dry-run. On a usable verdict (valid or
// repaired) the returned query is the one to answer with — the input
// is never mutated; repairs work on a clone.
func (c *Critic) Review(ctx context.Context, q *sqlast.Query) (*sqlast.Query, Outcome) {
	c.reviewed.Add(1)
	out := c.review(ctx, q)
	switch out.Verdict {
	case VerdictValid:
		c.valid.Add(1)
	case VerdictRepaired:
		c.repaired.Add(1)
	case VerdictError:
		c.sandbox.Add(1)
	default:
		c.rejected.Add(1)
	}
	if out.Verdict == VerdictValid {
		return q, out
	}
	if out.Verdict == VerdictRepaired {
		return out.repairedQ, out
	}
	return nil, out
}

func (c *Critic) review(ctx context.Context, q *sqlast.Query) Outcome {
	if cerr := c.Check(q); cerr != nil {
		// Static checks failed: repair, re-check, dry-run.
		rq, rules, changed := c.Repair(q)
		if !changed {
			return Outcome{Verdict: VerdictInvalid, Detail: cerr.Msg}
		}
		if rerr := c.Check(rq); rerr != nil {
			return Outcome{Verdict: VerdictInvalid, Detail: cerr.Msg + " (repair left: " + rerr.Msg + ")"}
		}
		return c.dryRunOutcome(ctx, rq, rules)
	}
	return c.dryRunOutcome(ctx, q, nil)
}

// dryRunOutcome sandbox-runs q; rules is the repair trail so far (nil
// when q is the candidate as decoded). A row-budget abort on a query
// without a LIMIT gets one more chance with an injected LIMIT.
func (c *Critic) dryRunOutcome(ctx context.Context, q *sqlast.Query, rules []string) Outcome {
	out := Outcome{}
	xe := c.dryRun(ctx, q, &out)
	if xe == nil {
		return c.usable(q, rules, out)
	}
	if xe.Infra() {
		out.Verdict, out.Err = VerdictError, xe
		return out
	}
	if engine.ErrKindOf(xe.Err) == engine.ErrRowBudget {
		if q.Limit < 0 {
			lq := q.Clone()
			lq.Limit = injectedLimit
			if xe2 := c.dryRun(ctx, lq, &out); xe2 == nil {
				return c.usable(lq, append(append([]string(nil), rules...), "limit"), out)
			} else if xe2.Infra() {
				out.Verdict, out.Err = VerdictError, xe2
				return out
			}
		}
		// The budget bounds the sandbox, not the query: the unbudgeted
		// engine may well complete it, so a budget abort proves nothing
		// about validity. Pass the candidate through unverified rather
		// than reject an answer the engine would have given.
		out.Detail = "row budget exhausted; passed unverified"
		return c.usable(q, rules, out)
	}
	out.Verdict, out.Err = VerdictExecFailed, xe
	return out
}

// usable finishes an outcome whose query passed the dry-run.
func (c *Critic) usable(q *sqlast.Query, rules []string, out Outcome) Outcome {
	if len(rules) == 0 {
		out.Verdict = VerdictValid
		return out
	}
	out.Verdict, out.Repairs, out.repairedQ = VerdictRepaired, rules, q
	return out
}

// DryRun executes q in the sandbox and reports the typed failure, nil
// on success. Exported for tests and tooling; Review is the normal
// entry point.
func (c *Critic) DryRun(ctx context.Context, q *sqlast.Query) error {
	var out Outcome
	if xe := c.dryRun(ctx, q, &out); xe != nil {
		return xe
	}
	return nil
}

// dryRun is the sandbox: budgeted execution, bounded by the critic
// deadline through par.Await, with panics recovered into ExecError.
// It accumulates its latency into out.DryRunNS and, on success, sets
// out.Result to q's result.
func (c *Critic) dryRun(ctx context.Context, q *sqlast.Query, out *Outcome) (xe *ExecError) {
	start := c.now()
	defer func() {
		out.DryRunNS += c.now().Sub(start).Nanoseconds()
		if r := recover(); r != nil {
			xe = &ExecError{Panicked: true, Detail: fmt.Sprint(r)}
		}
	}()
	if ctx == nil {
		ctx = context.Background()
	}
	tctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	var (
		res  *engine.Result
		eerr error
	)
	if derr := par.Await(tctx, func() { res, eerr = c.exec(q, c.cfg.RowBudget) }); derr != nil {
		return &ExecError{TimedOut: true}
	}
	if eerr != nil {
		return &ExecError{Err: eerr}
	}
	out.Result = res
	return nil
}

// ---------------------------------------------------------------------
// Static schema-semantic checks.
// ---------------------------------------------------------------------

// Check validates q against the schema without executing it: table and
// column resolution per subquery scope, literal types against column
// types, subquery arity, and grouping shape. It returns the first
// problem found, nil when the query is statically sound.
func (c *Critic) Check(q *sqlast.Query) *CheckError {
	if q == nil {
		return &CheckError{Kind: engine.ErrGeneric, Msg: "nil query"}
	}
	return c.checkScope(q, true)
}

// checkScope validates one query scope (the outer query or one
// subquery) against its own FROM tables, recursing into subqueries.
func (c *Critic) checkScope(q *sqlast.Query, outer bool) *CheckError {
	if q.From.JoinPlaceholder {
		return &CheckError{Kind: engine.ErrPlaceholder, Msg: "unresolved @JOIN placeholder"}
	}
	if len(q.From.Tables) == 0 {
		return &CheckError{Kind: engine.ErrGeneric, Msg: "empty FROM clause"}
	}
	var froms []*schema.Table
	for _, tn := range q.From.Tables {
		t := c.s.Table(tn)
		if t == nil {
			return &CheckError{Kind: engine.ErrUnknownTable, Msg: fmt.Sprintf("unknown table %q", tn)}
		}
		froms = append(froms, t)
	}
	// Grouping shape: bare columns beside aggregates need a GROUP BY
	// covering them.
	if cerr := checkGrouping(q); cerr != nil {
		return cerr
	}
	for _, sel := range q.Select {
		if sel.Star && sel.Agg == sqlast.AggNone && sel.Col.Table != "" && c.s.Table(sel.Col.Table) == nil {
			return &CheckError{Kind: engine.ErrUnknownTable, Msg: fmt.Sprintf("unknown table %q in select", sel.Col.Table)}
		}
		if cerr := c.checkItem(sel, froms); cerr != nil {
			return cerr
		}
	}
	for _, g := range q.GroupBy {
		if _, cerr := c.resolveCol(g, froms); cerr != nil {
			return cerr
		}
	}
	for _, oi := range q.OrderBy {
		if cerr := c.checkItem(oi.Item, froms); cerr != nil {
			return cerr
		}
	}
	if cerr := c.checkExpr(q.Where, froms, false); cerr != nil {
		return cerr
	}
	return c.checkExpr(q.Having, froms, true)
}

// checkItem validates one select/order item in its scope.
func (c *Critic) checkItem(sel sqlast.SelectItem, froms []*schema.Table) *CheckError {
	if sel.Star {
		return nil
	}
	col, cerr := c.resolveCol(sel.Col, froms)
	if cerr != nil {
		return cerr
	}
	if (sel.Agg == sqlast.AggSum || sel.Agg == sqlast.AggAvg) && col.Type != schema.Number {
		return &CheckError{Kind: engine.ErrTypeMismatch, Msg: fmt.Sprintf("%s over non-numeric column %q", sel.Agg, sel.Col)}
	}
	return nil
}

// checkExpr validates a condition tree in its scope.
func (c *Critic) checkExpr(e sqlast.Expr, froms []*schema.Table, having bool) *CheckError {
	switch v := e.(type) {
	case nil:
		return nil
	case sqlast.Logic:
		if cerr := c.checkExpr(v.Left, froms, having); cerr != nil {
			return cerr
		}
		return c.checkExpr(v.Right, froms, having)
	case sqlast.Not:
		return c.checkExpr(v.Inner, froms, having)
	case sqlast.Comparison:
		col, cerr := c.resolveCol(v.Left, froms)
		if cerr != nil {
			return cerr
		}
		return c.checkOperand(v.Right, col, v.Op, froms)
	case sqlast.Between:
		col, cerr := c.resolveCol(v.Col, froms)
		if cerr != nil {
			return cerr
		}
		if cerr := c.checkOperand(v.Lo, col, sqlast.OpGe, froms); cerr != nil {
			return cerr
		}
		return c.checkOperand(v.Hi, col, sqlast.OpLe, froms)
	case sqlast.InSubquery:
		if _, cerr := c.resolveCol(v.Col, froms); cerr != nil {
			return cerr
		}
		if n := c.subqueryWidth(v.Query); n != 1 {
			return &CheckError{Kind: engine.ErrArity, Msg: fmt.Sprintf("IN subquery must produce exactly one column, got %d", n)}
		}
		return c.checkScope(v.Query, false)
	case sqlast.Exists:
		return c.checkScope(v.Query, false)
	case sqlast.HavingCond:
		if !having {
			return &CheckError{Kind: engine.ErrGrouping, Msg: fmt.Sprintf("aggregate condition %q outside HAVING", v.String())}
		}
		if cerr := c.checkItem(v.Item, froms); cerr != nil {
			return cerr
		}
		return c.checkOperand(v.Right, nil, v.Op, froms)
	default:
		return nil
	}
}

// checkOperand validates a comparison RHS; col is the LHS column when
// known (nil under HAVING, whose LHS is an aggregate).
func (c *Critic) checkOperand(o sqlast.Operand, col *schema.Column, op sqlast.CmpOp, froms []*schema.Table) *CheckError {
	switch v := o.(type) {
	case sqlast.Value:
		// A number column compared against a numeric-looking string
		// literal: the engine would fall back to string comparison,
		// which orders digits lexicographically ("9" > "10") — flag it
		// so repair coerces the quotes away. A string that is not a
		// number at all is left to the dry-run: the engine tolerates
		// it, and rejecting an executable candidate would cost
		// validity without a repair to offer.
		if col != nil && col.Type == schema.Number && !v.IsNum && op != sqlast.OpLike {
			if _, perr := strconv.ParseFloat(strings.TrimSpace(v.Str), 64); perr == nil {
				return &CheckError{Kind: engine.ErrTypeMismatch, Msg: fmt.Sprintf("number column %q compared to quoted numeric literal %s", col.Name, v)}
			}
		}
		return nil
	case sqlast.ColOperand:
		_, cerr := c.resolveCol(v.Col, froms)
		return cerr
	case sqlast.ScalarSubquery:
		if n := c.subqueryWidth(v.Query); n != 1 {
			return &CheckError{Kind: engine.ErrArity, Msg: fmt.Sprintf("scalar subquery must produce exactly one column, got %d", n)}
		}
		return c.checkScope(v.Query, false)
	default:
		return nil
	}
}

// subqueryWidth counts a subquery's output columns as the engine
// would: a bare star expands to every column of the FROM tables.
func (c *Critic) subqueryWidth(q *sqlast.Query) int {
	if q == nil {
		return 0
	}
	n := 0
	for _, sel := range q.Select {
		if sel.Star && sel.Agg == sqlast.AggNone {
			for _, tn := range q.From.Tables {
				if t := c.s.Table(tn); t != nil {
					n += len(t.Columns)
				}
			}
		} else {
			n++
		}
	}
	return n
}

// checkGrouping flags bare select columns beside aggregates without a
// covering GROUP BY (the missing-GROUP-BY shape repair injects).
func checkGrouping(q *sqlast.Query) *CheckError {
	hasAgg := false
	for _, sel := range q.Select {
		if sel.Agg != sqlast.AggNone {
			hasAgg = true
		}
	}
	if !hasAgg && q.Having == nil {
		return nil
	}
	grouped := map[sqlast.ColumnRef]bool{}
	for _, g := range q.GroupBy {
		grouped[g] = true
	}
	for _, sel := range q.Select {
		if sel.Agg != sqlast.AggNone {
			continue
		}
		if sel.Star {
			return &CheckError{Kind: engine.ErrGrouping, Msg: "bare * is not valid in a grouped query"}
		}
		if !grouped[sel.Col] {
			return &CheckError{Kind: engine.ErrGrouping, Msg: fmt.Sprintf("column %q must appear in GROUP BY or inside an aggregate", sel.Col)}
		}
	}
	return nil
}

// resolveCol resolves a column reference against the scope's FROM
// tables: qualified against its named table, unqualified against all
// of them (ambiguous when more than one matches).
func (c *Critic) resolveCol(ref sqlast.ColumnRef, froms []*schema.Table) (*schema.Column, *CheckError) {
	if ref.Table != "" {
		t := c.s.Table(ref.Table)
		if t == nil {
			return nil, &CheckError{Kind: engine.ErrUnknownTable, Msg: fmt.Sprintf("unknown table %q", ref.Table)}
		}
		inFrom := false
		for _, f := range froms {
			if strings.EqualFold(f.Name, t.Name) {
				inFrom = true
				break
			}
		}
		if !inFrom {
			return nil, &CheckError{Kind: engine.ErrUnknownColumn, Msg: fmt.Sprintf("table %q referenced by %q is not in FROM", ref.Table, ref)}
		}
		col := t.Column(ref.Column)
		if col == nil {
			return nil, &CheckError{Kind: engine.ErrUnknownColumn, Msg: fmt.Sprintf("unknown column %q", ref)}
		}
		return col, nil
	}
	var found *schema.Column
	matches := 0
	for _, f := range froms {
		if col := f.Column(ref.Column); col != nil {
			found = col
			matches++
		}
	}
	switch {
	case matches == 0:
		return nil, &CheckError{Kind: engine.ErrUnknownColumn, Msg: fmt.Sprintf("unknown column %q", ref)}
	case matches > 1:
		return nil, &CheckError{Kind: engine.ErrAmbiguousColumn, Msg: fmt.Sprintf("ambiguous column %q", ref)}
	}
	return found, nil
}

// ---------------------------------------------------------------------
// Deterministic rule-based repair.
// ---------------------------------------------------------------------

// Repair applies the rule passes to a clone of q and reports which
// rules changed anything ("identifier", "coerce", "groupby", in that
// order; the "limit" rule is execution-triggered and applied by
// Review). The input is never mutated. For a fixed seed the output is
// a pure function of the input query and the schema.
func (c *Critic) Repair(q *sqlast.Query) (*sqlast.Query, []string, bool) {
	rq := q.Clone()
	var rules []string
	if c.repairIdentifiers(rq) {
		rules = append(rules, "identifier")
	}
	if c.coerceLiterals(rq) {
		rules = append(rules, "coerce")
	}
	if injectGroupBy(rq) {
		rules = append(rules, "groupby")
	}
	return rq, rules, len(rules) > 0
}

// repairIdentifiers replaces unknown table and column names with their
// nearest lexicon entry (character-bigram Jaccard, seeded tie-break),
// scope by scope so each column repairs against its own FROM tables.
func (c *Critic) repairIdentifiers(q *sqlast.Query) bool {
	changed := false
	var scope func(q *sqlast.Query)
	scope = func(q *sqlast.Query) {
		if q == nil || q.From.JoinPlaceholder {
			return
		}
		// Tables first: columns repair against the repaired FROM.
		for i, tn := range q.From.Tables {
			if c.s.Table(tn) == nil {
				if best, ok := c.nearest(tn, c.tables); ok {
					q.From.Tables[i] = best
					changed = true
				}
			}
		}
		var froms []*schema.Table
		var colLex []string
		for _, tn := range q.From.Tables {
			if t := c.s.Table(tn); t != nil {
				froms = append(froms, t)
				for _, col := range t.Columns {
					colLex = append(colLex, col.Name)
				}
			}
		}
		fixRef := func(ref *sqlast.ColumnRef) {
			if ref.Column == "" {
				return
			}
			if ref.Table != "" && c.s.Table(ref.Table) == nil {
				if best, ok := c.nearest(ref.Table, c.tables); ok {
					ref.Table = best
					changed = true
				}
			}
			if _, cerr := c.resolveCol(*ref, froms); cerr == nil || cerr.Kind == engine.ErrAmbiguousColumn {
				return
			}
			if ref.Table != "" {
				if t := c.s.Table(ref.Table); t != nil && t.Column(ref.Column) == nil {
					var lex []string
					for _, col := range t.Columns {
						lex = append(lex, col.Name)
					}
					if best, ok := c.nearest(ref.Column, lex); ok {
						ref.Column = best
						changed = true
					}
				}
				return
			}
			if best, ok := c.nearest(ref.Column, colLex); ok {
				ref.Column = best
				changed = true
			}
		}
		fixItem := func(sel *sqlast.SelectItem) {
			if !sel.Star {
				fixRef(&sel.Col)
			}
		}
		for i := range q.Select {
			fixItem(&q.Select[i])
		}
		for i := range q.GroupBy {
			fixRef(&q.GroupBy[i])
		}
		for i := range q.OrderBy {
			fixItem(&q.OrderBy[i].Item)
		}
		var fixExpr func(e sqlast.Expr) sqlast.Expr
		fixExpr = func(e sqlast.Expr) sqlast.Expr {
			switch v := e.(type) {
			case sqlast.Logic:
				v.Left, v.Right = fixExpr(v.Left), fixExpr(v.Right)
				return v
			case sqlast.Not:
				v.Inner = fixExpr(v.Inner)
				return v
			case sqlast.Comparison:
				fixRef(&v.Left)
				if co, ok := v.Right.(sqlast.ColOperand); ok {
					fixRef(&co.Col)
					v.Right = co
				}
				if ss, ok := v.Right.(sqlast.ScalarSubquery); ok {
					scope(ss.Query)
				}
				return v
			case sqlast.Between:
				fixRef(&v.Col)
				return v
			case sqlast.InSubquery:
				fixRef(&v.Col)
				scope(v.Query)
				return v
			case sqlast.Exists:
				scope(v.Query)
				return v
			case sqlast.HavingCond:
				fixItem(&v.Item)
				if ss, ok := v.Right.(sqlast.ScalarSubquery); ok {
					scope(ss.Query)
				}
				return v
			default:
				return e
			}
		}
		if q.Where != nil {
			q.Where = fixExpr(q.Where)
		}
		if q.Having != nil {
			q.Having = fixExpr(q.Having)
		}
	}
	scope(q)
	return changed
}

// minRepairSimilarity is the floor under which an identifier is left
// alone: repairing "xyzzy" to an arbitrary column would manufacture
// answers out of noise.
const minRepairSimilarity = 0.25

// nearest picks the lexicon entry most similar to got. Ties are broken
// by the SplitMix64 hash of (seed, entry) — deterministic for a fixed
// seed, uncorrelated with lexicon order.
func (c *Critic) nearest(got string, lexicon []string) (string, bool) {
	best, bestScore, bestTie := "", -1.0, uint64(0)
	for _, cand := range lexicon {
		score := Jaccard(strings.ToLower(got), strings.ToLower(cand))
		tie := c.tieKey(cand)
		if score > bestScore || (score == bestScore && tie < bestTie) {
			best, bestScore, bestTie = cand, score, tie
		}
	}
	if bestScore < minRepairSimilarity {
		return "", false
	}
	return best, true
}

// tieKey hashes a lexicon entry under the repair seed.
func (c *Critic) tieKey(name string) uint64 {
	h := fnv.New32a()
	_, _ = h.Write([]byte(name)) // fnv Write cannot fail
	return uint64(par.SplitSeed(c.cfg.Seed, int(h.Sum32())))
}

// Jaccard is the Jaccard index of the two strings' character bigram
// sets (a single-rune string is its own bigram): 1 for identical
// strings, "" included, and 0 when one side is empty and the other
// is not.
func Jaccard(a, b string) float64 {
	if a == b {
		return 1
	}
	sa, sb := bigrams(a), bigrams(b)
	if len(sa) == 0 || len(sb) == 0 {
		return 0
	}
	inter, i, j := 0, 0, 0
	for i < len(sa) && j < len(sb) {
		switch {
		case sa[i] == sb[j]:
			inter++
			i++
			j++
		case sa[i] < sb[j]:
			i++
		default:
			j++
		}
	}
	return float64(inter) / float64(len(sa)+len(sb)-inter)
}

// bigrams returns the sorted distinct character bigrams of s (the
// whole string when it has at most one rune).
func bigrams(s string) []string {
	r := []rune(s)
	if len(r) <= 1 {
		return []string{s}
	}
	out := make([]string, 0, len(r))
	for i := 0; i+1 < len(r); i++ {
		out = append(out, string(r[i:i+2]))
	}
	sort.Strings(out)
	w := 0
	for i, g := range out {
		if i == 0 || g != out[w-1] {
			out[w] = g
			w++
		}
	}
	return out[:w]
}

// coerceLiterals fixes literal/column type mismatches: a number column
// compared to a numeric-looking string becomes a numeric literal
// (quote coercion), and a number column compared to a numeric literal
// wrapped in stray quotes likewise.
func (c *Critic) coerceLiterals(q *sqlast.Query) bool {
	changed := false
	var scope func(q *sqlast.Query)
	scope = func(q *sqlast.Query) {
		if q == nil || q.From.JoinPlaceholder {
			return
		}
		var froms []*schema.Table
		for _, tn := range q.From.Tables {
			if t := c.s.Table(tn); t != nil {
				froms = append(froms, t)
			}
		}
		coerce := func(col *schema.Column, o sqlast.Operand) sqlast.Operand {
			v, ok := o.(sqlast.Value)
			if !ok || col == nil {
				if ss, isSub := o.(sqlast.ScalarSubquery); isSub {
					scope(ss.Query)
				}
				return o
			}
			if col.Type == schema.Number && !v.IsNum {
				if n, err := strconv.ParseFloat(strings.TrimSpace(v.Str), 64); err == nil {
					changed = true
					return sqlast.NumValue(n)
				}
			}
			return o
		}
		var walk func(e sqlast.Expr) sqlast.Expr
		walk = func(e sqlast.Expr) sqlast.Expr {
			switch v := e.(type) {
			case sqlast.Logic:
				v.Left, v.Right = walk(v.Left), walk(v.Right)
				return v
			case sqlast.Not:
				v.Inner = walk(v.Inner)
				return v
			case sqlast.Comparison:
				col, _ := c.resolveCol(v.Left, froms)
				v.Right = coerce(col, v.Right)
				return v
			case sqlast.Between:
				col, _ := c.resolveCol(v.Col, froms)
				v.Lo, v.Hi = coerce(col, v.Lo), coerce(col, v.Hi)
				return v
			case sqlast.InSubquery:
				scope(v.Query)
				return v
			case sqlast.Exists:
				scope(v.Query)
				return v
			case sqlast.HavingCond:
				if ss, ok := v.Right.(sqlast.ScalarSubquery); ok {
					scope(ss.Query)
				}
				return v
			default:
				return e
			}
		}
		if q.Where != nil {
			q.Where = walk(q.Where)
		}
		if q.Having != nil {
			q.Having = walk(q.Having)
		}
	}
	scope(q)
	return changed
}

// injectGroupBy adds the missing GROUP BY when a select list mixes
// bare columns with aggregates: the bare columns become the grouping
// key, in select-list order.
func injectGroupBy(q *sqlast.Query) bool {
	if len(q.GroupBy) > 0 {
		return false
	}
	hasAgg, hasBare := false, false
	var bare []sqlast.ColumnRef
	for _, sel := range q.Select {
		if sel.Agg != sqlast.AggNone {
			hasAgg = true
			continue
		}
		if sel.Star {
			return false // SELECT *, COUNT(*) has no sensible grouping key
		}
		hasBare = true
		bare = append(bare, sel.Col)
	}
	if !hasAgg || !hasBare {
		return false
	}
	q.GroupBy = bare
	return true
}
