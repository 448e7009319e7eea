// Package engine is an in-memory SQL execution engine for the query
// subset emitted by the DBPal templates. The paper's prototype executes
// translated queries against a DBMS and returns tabular results
// (Figure 1); this engine plays that role, and additionally powers the
// semantic-equivalence accuracy metric of the Patients benchmark (two
// queries are equivalent if they produce the same result on the
// database).
//
// Supported: multi-table implicit joins, AND/OR/NOT predicates,
// comparison/LIKE/BETWEEN, GROUP BY with COUNT/SUM/AVG/MIN/MAX,
// HAVING, ORDER BY, LIMIT, DISTINCT, and uncorrelated subqueries
// (IN/NOT IN, EXISTS/NOT EXISTS, scalar aggregates). Correlated
// subqueries are rejected, matching the paper's stated scope.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/schema"
	"repro/internal/sqlast"
)

// Value is a runtime cell value.
type Value struct {
	Null  bool
	IsNum bool
	Num   float64
	Str   string
}

// Num returns a numeric value.
func Num(n float64) Value { return Value{IsNum: true, Num: n} }

// Str returns a string value.
func Str(s string) Value { return Value{Str: s} }

// Null is the SQL NULL value.
var Null = Value{Null: true}

// String renders the value for display.
func (v Value) String() string {
	switch {
	case v.Null:
		return "NULL"
	case v.IsNum:
		if v.Num == math.Trunc(v.Num) && math.Abs(v.Num) < 1e15 {
			return fmt.Sprintf("%d", int64(v.Num))
		}
		return fmt.Sprintf("%g", v.Num)
	default:
		return v.Str
	}
}

// Equal compares two values with numeric tolerance.
func (v Value) Equal(o Value) bool {
	if v.Null || o.Null {
		return v.Null && o.Null
	}
	if v.IsNum != o.IsNum {
		return false
	}
	if v.IsNum {
		return math.Abs(v.Num-o.Num) <= 1e-9*math.Max(1, math.Max(math.Abs(v.Num), math.Abs(o.Num)))
	}
	return v.Str == o.Str
}

// Less orders values: NULL first, numbers before strings, then by value.
func (v Value) Less(o Value) bool {
	switch {
	case v.Null != o.Null:
		return v.Null
	case v.Null:
		return false
	case v.IsNum != o.IsNum:
		return v.IsNum
	case v.IsNum:
		return v.Num < o.Num
	default:
		return v.Str < o.Str
	}
}

// Row is one tuple.
type Row []Value

// Table holds the data of one relation.
type Table struct {
	Name    string
	Columns []string
	Rows    []Row
}

// colIndex returns the index of a column (case-insensitive), or -1.
func (t *Table) colIndex(name string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

// Database binds a schema to table data.
type Database struct {
	Schema *schema.Schema
	Tables map[string]*Table // keyed by lower-case table name
}

// NewDatabase creates an empty database for the schema, with one empty
// table per schema table.
func NewDatabase(s *schema.Schema) *Database {
	db := &Database{Schema: s, Tables: map[string]*Table{}}
	for _, t := range s.Tables {
		cols := make([]string, len(t.Columns))
		for i, c := range t.Columns {
			cols[i] = c.Name
		}
		db.Tables[strings.ToLower(t.Name)] = &Table{Name: t.Name, Columns: cols}
	}
	return db
}

// Insert appends a row to the named table. The row length must match
// the table's column count.
func (db *Database) Insert(table string, row Row) error {
	t, ok := db.Tables[strings.ToLower(table)]
	if !ok {
		return fmt.Errorf("engine: unknown table %q", table)
	}
	if len(row) != len(t.Columns) {
		return fmt.Errorf("engine: table %q expects %d values, got %d", table, len(t.Columns), len(row))
	}
	t.Rows = append(t.Rows, row)
	return nil
}

// Result is the output of a query.
type Result struct {
	Columns []string
	Rows    []Row
}

// String renders the result as an aligned text table (the "tabular
// visualization" of the paper's Figure 1).
func (r *Result) String() string {
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	for i, c := range r.Columns {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c)
	}
	b.WriteString("\n")
	for i, w := range widths {
		if i > 0 {
			b.WriteString("-+-")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	for _, row := range cells {
		b.WriteString("\n")
		for i, s := range row {
			if i > 0 {
				b.WriteString(" | ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], s)
		}
	}
	return b.String()
}

// EqualResults compares two results as ordered-column, unordered-row
// multisets (order-sensitive only when both queries ordered their
// output is a concern for callers; the benchmark treats results as
// multisets, which is what semantic equivalence needs for the subset).
func EqualResults(a, b *Result) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	if len(a.Columns) != len(b.Columns) {
		return false
	}
	ka := sortedRowKeys(a.Rows)
	kb := sortedRowKeys(b.Rows)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

func sortedRowKeys(rows []Row) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			if v.IsNum {
				// Round so that float jitter does not break equality.
				parts[j] = fmt.Sprintf("n:%.6f", v.Num)
			} else if v.Null {
				parts[j] = "null"
			} else {
				parts[j] = "s:" + v.Str
			}
		}
		keys[i] = strings.Join(parts, "\x1f")
	}
	sort.Strings(keys)
	return keys
}

// ErrKind classifies an execution failure so callers (the critic, the
// serving layer's breakers) can branch on what went wrong instead of
// substring-matching the message.
type ErrKind int

// The failure taxonomy.
const (
	// ErrGeneric is any failure without a more specific kind.
	ErrGeneric ErrKind = iota
	// ErrUnknownTable: a FROM or select list names a table the
	// database does not have.
	ErrUnknownTable
	// ErrUnknownColumn: a column reference resolves to no column of
	// the FROM tables (including correlated subquery references,
	// which are out of scope).
	ErrUnknownColumn
	// ErrAmbiguousColumn: an unqualified column name matches more
	// than one FROM column.
	ErrAmbiguousColumn
	// ErrTypeMismatch: an operation requires a numeric column but got
	// text (SUM/AVG over a text column).
	ErrTypeMismatch
	// ErrPlaceholder: the query still carries an unresolved @JOIN or
	// value placeholder; it is a template, not an executable query.
	ErrPlaceholder
	// ErrArity: a subquery produced the wrong shape (column count or
	// row count) for its position.
	ErrArity
	// ErrGrouping: aggregate/grouping misuse — a bare column outside
	// GROUP BY, an aggregate where none is allowed, or vice versa.
	ErrGrouping
	// ErrRowBudget: execution was abandoned because it materialized
	// more environment rows than the caller's budget allows.
	ErrRowBudget
)

// String names the kind for messages and verdicts.
func (k ErrKind) String() string {
	switch k {
	case ErrUnknownTable:
		return "unknown_table"
	case ErrUnknownColumn:
		return "unknown_column"
	case ErrAmbiguousColumn:
		return "ambiguous_column"
	case ErrTypeMismatch:
		return "type_mismatch"
	case ErrPlaceholder:
		return "placeholder"
	case ErrArity:
		return "arity"
	case ErrGrouping:
		return "grouping"
	case ErrRowBudget:
		return "row_budget"
	}
	return "generic"
}

// ExecError reports an execution failure.
type ExecError struct {
	Kind ErrKind
	Msg  string
}

func (e *ExecError) Error() string { return "engine: " + e.Msg }

func execErrorf(format string, args ...any) error {
	return &ExecError{Msg: fmt.Sprintf(format, args...)}
}

func execError(kind ErrKind, format string, args ...any) error {
	return &ExecError{Kind: kind, Msg: fmt.Sprintf(format, args...)}
}

// ErrKindOf returns the taxonomy kind of err: the ExecError kind if
// err wraps one, ErrGeneric otherwise (including nil).
func ErrKindOf(err error) ErrKind {
	var ee *ExecError
	if errors.As(err, &ee) {
		return ee.Kind
	}
	return ErrGeneric
}

// Execute runs the query against the database. The query must be fully
// concrete: no @JOIN placeholder in FROM and no value placeholders
// (the runtime post-processor resolves those first).
func (db *Database) Execute(q *sqlast.Query) (*Result, error) {
	ex := &executor{db: db}
	return ex.query(q)
}

// ExecuteContext is Execute bounded by ctx: the scan checks ctx every
// ctxCheckRows materialized environment rows and abandons the query
// with ctx's error (wrapped) once it is done, so a runaway cross
// product stops at its caller's deadline instead of running on.
func (db *Database) ExecuteContext(ctx context.Context, q *sqlast.Query) (*Result, error) {
	ex := &executor{db: db, ctx: ctx}
	return ex.query(q)
}

// ExecuteBudget runs the query with a row budget: execution aborts
// with an ErrRowBudget failure once the query and its subqueries have
// materialized more than budget environment rows in total. Each
// subquery runs at most once per execution (see subqueryResult), so
// the budget counts rows actually materialized, not the product of
// outer and inner rows. budget <= 0 means unbounded. Plain scans with
// a LIMIT and no ordering/grouping/dedup stop enumerating as soon as
// the limit is met, so a tight LIMIT keeps a huge scan within budget.
func (db *Database) ExecuteBudget(q *sqlast.Query, budget int) (*Result, error) {
	ex := &executor{db: db, budget: budget}
	return ex.query(q)
}

// ctxCheckRows is how many environment rows ExecuteContext
// materializes between checks of its context.
const ctxCheckRows = 1024

// executor is the state of one execution.
type executor struct {
	db      *Database
	ctx     context.Context // nil: never cancelled
	budget  int             // max env rows to materialize; <= 0 unbounded
	visited int             // env rows materialized so far, all (sub)queries
	// subs holds each subquery's result, computed on first use: a
	// subquery is uncorrelated (an outer reference fails to bind), so
	// its result is the same for every outer row.
	subs map[*sqlast.Query]*Result
}

// binding maps qualified column names to value positions in the
// environment row built from the FROM tables.
type binding struct {
	tables []string         // lower-cased, in FROM order
	cols   map[string][]int // lower "table.col" and "col" -> positions
	width  int
}

func (ex *executor) bind(tables []string) (*binding, error) {
	b := &binding{cols: map[string][]int{}}
	pos := 0
	for _, tn := range tables {
		t, ok := ex.db.Tables[strings.ToLower(tn)]
		if !ok {
			return nil, execError(ErrUnknownTable, "unknown table %q", tn)
		}
		b.tables = append(b.tables, strings.ToLower(tn))
		for _, c := range t.Columns {
			lc := strings.ToLower(c)
			qual := strings.ToLower(tn) + "." + lc
			b.cols[qual] = append(b.cols[qual], pos)
			b.cols[lc] = append(b.cols[lc], pos)
			pos++
		}
	}
	b.width = pos
	return b, nil
}

// resolve finds the environment position of a column reference.
func (b *binding) resolve(c sqlast.ColumnRef) (int, error) {
	var key string
	if c.Table != "" {
		key = strings.ToLower(c.Table) + "." + strings.ToLower(c.Column)
	} else {
		key = strings.ToLower(c.Column)
	}
	positions, ok := b.cols[key]
	if !ok || len(positions) == 0 {
		return 0, execError(ErrUnknownColumn, "unknown column %q", c)
	}
	if len(positions) > 1 {
		return 0, execError(ErrAmbiguousColumn, "ambiguous column %q", c)
	}
	return positions[0], nil
}

// forEachEnv streams the cross product of the FROM tables' rows (the
// concatenation of one row per table, in row-major order), charging
// each materialized row against the executor's budget. With one table
// fn receives the table's own rows, which it may keep: the engine
// never writes a stored row. Otherwise the row is a reused buffer,
// valid only for the duration of the call, and fn must copy rows it
// keeps. fn returning false stops the walk early, which is what lets a
// plain LIMIT scan finish within budget.
func (ex *executor) forEachEnv(tables []string, fn func(Row) (bool, error)) error {
	tabs := make([]*Table, len(tables))
	width := 0
	for i, tn := range tables {
		t := ex.db.Tables[strings.ToLower(tn)]
		if t == nil {
			return execError(ErrUnknownTable, "unknown table %q", tn)
		}
		tabs[i] = t
		width += len(t.Columns)
	}
	emit := func(row Row) (bool, error) {
		ex.visited++
		if ex.budget > 0 && ex.visited > ex.budget {
			return false, execError(ErrRowBudget, "row budget exceeded: %d environment rows materialized (budget %d)", ex.visited, ex.budget)
		}
		if ex.ctx != nil && ex.visited%ctxCheckRows == 0 {
			if err := ex.ctx.Err(); err != nil {
				return false, fmt.Errorf("engine: execution abandoned after %d environment rows: %w", ex.visited, err)
			}
		}
		return fn(row)
	}
	if len(tabs) == 1 {
		for _, r := range tabs[0].Rows {
			if cont, err := emit(r); err != nil || !cont {
				return err
			}
		}
		return nil
	}
	env := make(Row, 0, width)
	var walk func(i int) (bool, error)
	walk = func(i int) (bool, error) {
		if i == len(tabs) {
			return emit(env)
		}
		mark := len(env)
		for _, r := range tabs[i].Rows {
			env = append(env[:mark], r...)
			cont, err := walk(i + 1)
			if err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	}
	_, err := walk(0)
	return err
}

func (ex *executor) query(q *sqlast.Query) (*Result, error) {
	if q == nil {
		return nil, execErrorf("nil query")
	}
	if q.From.JoinPlaceholder {
		return nil, execError(ErrPlaceholder, "cannot execute query with unresolved @JOIN placeholder")
	}
	if len(q.From.Tables) == 0 {
		return nil, execErrorf("empty FROM clause")
	}
	b, err := ex.bind(q.From.Tables)
	if err != nil {
		return nil, err
	}
	if err := ex.validateExpr(q.Where, b); err != nil {
		return nil, err
	}
	grouped := len(q.GroupBy) > 0 || q.HasAggregate()
	// A plain scan with a LIMIT and no ordering/grouping/dedup can stop
	// as soon as the limit is satisfied: no later row changes the
	// output, so early exit is observationally equivalent and keeps a
	// huge cross product within the row budget.
	earlyLimit := -1
	if !grouped && len(q.OrderBy) == 0 && !q.Distinct && q.Limit >= 0 {
		earlyLimit = q.Limit
	}
	var filtered []Row
	err = ex.forEachEnv(q.From.Tables, func(row Row) (bool, error) {
		if earlyLimit >= 0 && len(filtered) >= earlyLimit {
			return false, nil
		}
		ok, err := ex.evalBool(q.Where, b, row)
		if err != nil {
			return false, err
		}
		if ok {
			if len(q.From.Tables) > 1 {
				row = append(Row(nil), row...) // the walk reuses its buffer
			}
			filtered = append(filtered, row)
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	var out *Result
	if grouped {
		out, err = ex.aggregate(q, b, filtered)
	} else {
		out, err = ex.project(q, b, filtered)
	}
	if err != nil {
		return nil, err
	}
	if q.Distinct {
		out.Rows = dedupRows(out.Rows)
	}
	if len(q.OrderBy) > 0 && !grouped {
		if err := ex.orderPlain(q, b, filtered, out); err != nil {
			return nil, err
		}
	}
	if q.Limit >= 0 && len(out.Rows) > q.Limit {
		out.Rows = out.Rows[:q.Limit]
	}
	return out, nil
}

// project evaluates a non-aggregate SELECT list over filtered rows and
// applies ORDER BY lazily via orderPlain (which needs the source rows).
// Column references are resolved eagerly so that invalid queries fail
// even over empty tables.
func (ex *executor) project(q *sqlast.Query, b *binding, rows []Row) (*Result, error) {
	cols, starIdx, err := ex.selectColumns(q, b)
	if err != nil {
		return nil, err
	}
	positions := make([]int, len(q.Select))
	for i, sel := range q.Select {
		if sel.Star {
			positions[i] = -1
			continue
		}
		p, err := b.resolve(sel.Col)
		if err != nil {
			return nil, err
		}
		positions[i] = p
	}
	for _, oi := range q.OrderBy {
		if oi.Item.Agg == sqlast.AggNone && !oi.Item.Star {
			if _, err := b.resolve(oi.Item.Col); err != nil {
				return nil, err
			}
		}
	}
	res := &Result{Columns: cols}
	for _, row := range rows {
		outRow := make(Row, 0, len(cols))
		for i, sel := range q.Select {
			if sel.Star {
				outRow = append(outRow, starValues(sel, b, row, starIdx)...)
				continue
			}
			outRow = append(outRow, row[positions[i]])
		}
		res.Rows = append(res.Rows, outRow)
	}
	return res, nil
}

// selectColumns computes output column names; starIdx maps table name
// to its position span for * expansion.
func (ex *executor) selectColumns(q *sqlast.Query, b *binding) ([]string, map[string][2]int, error) {
	starIdx := map[string][2]int{}
	pos := 0
	for _, tn := range q.From.Tables {
		t := ex.db.Tables[strings.ToLower(tn)]
		starIdx[strings.ToLower(tn)] = [2]int{pos, pos + len(t.Columns)}
		pos += len(t.Columns)
	}
	var cols []string
	for _, sel := range q.Select {
		if sel.Star && sel.Agg == sqlast.AggNone {
			// * or table.*
			if sel.Col.Table != "" {
				t := ex.db.Tables[strings.ToLower(sel.Col.Table)]
				if t == nil {
					return nil, nil, execError(ErrUnknownTable, "unknown table %q in select", sel.Col.Table)
				}
				cols = append(cols, t.Columns...)
			} else {
				for _, tn := range q.From.Tables {
					t := ex.db.Tables[strings.ToLower(tn)]
					cols = append(cols, t.Columns...)
				}
			}
			continue
		}
		cols = append(cols, sel.String())
	}
	return cols, starIdx, nil
}

func starValues(sel sqlast.SelectItem, b *binding, row Row, starIdx map[string][2]int) Row {
	if sel.Col.Table != "" {
		span := starIdx[strings.ToLower(sel.Col.Table)]
		return row[span[0]:span[1]]
	}
	return row
}

// orderPlain sorts the projected rows by the ORDER BY items evaluated
// on the source rows (the two slices are parallel).
func (ex *executor) orderPlain(q *sqlast.Query, b *binding, src []Row, res *Result) error {
	type pair struct {
		keys Row
		out  Row
	}
	pairs := make([]pair, len(res.Rows))
	for i := range res.Rows {
		var keys Row
		for _, oi := range q.OrderBy {
			if oi.Item.Agg != sqlast.AggNone {
				return execError(ErrGrouping, "aggregate in ORDER BY requires GROUP BY context")
			}
			p, err := b.resolve(oi.Item.Col)
			if err != nil {
				return err
			}
			keys = append(keys, src[i][p])
		}
		pairs[i] = pair{keys: keys, out: res.Rows[i]}
	}
	sort.SliceStable(pairs, func(i, j int) bool {
		for k, oi := range q.OrderBy {
			a, bb := pairs[i].keys[k], pairs[j].keys[k]
			if a.Equal(bb) {
				continue
			}
			if oi.Desc {
				return bb.Less(a)
			}
			return a.Less(bb)
		}
		return false
	})
	for i := range pairs {
		res.Rows[i] = pairs[i].out
	}
	return nil
}

func dedupRows(rows []Row) []Row {
	seen := map[string]bool{}
	var out []Row
	for _, r := range rows {
		k := sortedRowKeys([]Row{r})[0]
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}
