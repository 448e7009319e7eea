// Package sqlast defines the SQL subset spoken by the DBPal pipeline:
// an AST, a tokenizer and recursive-descent parser, a deterministic
// printer, a canonicalizer used for exact-match accuracy, structural
// pattern signatures (for the pattern-coverage analysis in the paper's
// Table 4), and Spider-style difficulty scoring.
//
// The subset covers what the paper's seed templates emit:
//
//	SELECT [DISTINCT] item, ...
//	FROM table[, table...] | @JOIN
//	[WHERE cond]
//	[GROUP BY col, ...]
//	[HAVING cond]
//	[ORDER BY item [ASC|DESC], ...]
//	[LIMIT n]
//
// with aggregates COUNT/SUM/AVG/MIN/MAX, AND/OR/NOT conditions,
// comparison and LIKE and BETWEEN predicates, column-to-column join
// predicates, uncorrelated IN/EXISTS subqueries, and scalar-aggregate
// subqueries. Constants may be placeholders (@TABLE.COL) per the
// paper's anonymization scheme, and the FROM clause may be the @JOIN
// placeholder that the post-processor later resolves to a join path.
package sqlast

import (
	"fmt"
	"strconv"
	"strings"
)

// AggFunc enumerates the supported aggregate functions.
type AggFunc int

// Aggregate functions. AggNone marks a plain column reference.
const (
	AggNone AggFunc = iota
	AggCount
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String returns the SQL spelling of the aggregate.
func (a AggFunc) String() string {
	switch a {
	case AggNone:
		return ""
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(a))
	}
}

// ParseAgg maps an aggregate name (any case) to its AggFunc.
func ParseAgg(s string) (AggFunc, bool) {
	switch strings.ToUpper(s) {
	case "COUNT":
		return AggCount, true
	case "SUM":
		return AggSum, true
	case "AVG":
		return AggAvg, true
	case "MIN":
		return AggMin, true
	case "MAX":
		return AggMax, true
	default:
		return AggNone, false
	}
}

// ColumnRef names a column, optionally qualified by table.
type ColumnRef struct {
	Table  string // may be empty
	Column string
}

// String renders the reference as table.column or column.
func (c ColumnRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Column
	}
	return c.Column
}

// SelectItem is one projection in the SELECT list: *, a column, or an
// aggregate over a column or *.
type SelectItem struct {
	Star     bool    // plain * (only with Agg==AggNone) or COUNT(*)
	Agg      AggFunc // AggNone for a bare column
	Distinct bool    // COUNT(DISTINCT col)
	Col      ColumnRef
}

// String renders the select item.
func (s SelectItem) String() string {
	inner := s.Col.String()
	if s.Star {
		inner = "*"
	}
	if s.Agg == AggNone {
		return inner
	}
	if s.Distinct {
		return fmt.Sprintf("%s(DISTINCT %s)", s.Agg, inner)
	}
	return fmt.Sprintf("%s(%s)", s.Agg, inner)
}

// OrderItem is one ORDER BY element.
type OrderItem struct {
	Item SelectItem
	Desc bool
}

// String renders the order item.
func (o OrderItem) String() string {
	if o.Desc {
		return o.Item.String() + " DESC"
	}
	return o.Item.String() + " ASC"
}

// CmpOp enumerates comparison operators.
type CmpOp int

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpLike
)

// String returns the SQL spelling of the operator.
func (o CmpOp) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpLike:
		return "LIKE"
	default:
		return fmt.Sprintf("CmpOp(%d)", int(o))
	}
}

// Operand is the right-hand side of a comparison: a literal, a
// placeholder, a column, or a scalar subquery.
type Operand interface {
	isOperand()
	String() string
}

// Value is a literal constant.
type Value struct {
	IsNum bool
	Num   float64
	Str   string
}

func (Value) isOperand() {}

// NumValue builds a numeric literal.
func NumValue(n float64) Value { return Value{IsNum: true, Num: n} }

// StrValue builds a string literal.
func StrValue(s string) Value { return Value{Str: s} }

// String renders the literal (numbers bare, strings single-quoted with
// quote doubling).
func (v Value) String() string {
	if v.IsNum {
		return strconv.FormatFloat(v.Num, 'f', -1, 64)
	}
	return "'" + strings.ReplaceAll(v.Str, "'", "''") + "'"
}

// Placeholder is an anonymized constant such as @PATIENTS.AGE. Name
// excludes the leading '@'.
type Placeholder struct {
	Name string
}

func (Placeholder) isOperand() {}

// String renders the placeholder with its leading '@'.
func (p Placeholder) String() string { return "@" + p.Name }

// ColOperand compares against another column (join predicates).
type ColOperand struct {
	Col ColumnRef
}

func (ColOperand) isOperand() {}

// String renders the column reference.
func (c ColOperand) String() string { return c.Col.String() }

// ScalarSubquery compares against the single value produced by an
// aggregate subquery, e.g. height = (SELECT MAX(height) FROM m).
type ScalarSubquery struct {
	Query *Query
}

func (ScalarSubquery) isOperand() {}

// String renders the parenthesized subquery.
func (s ScalarSubquery) String() string { return "(" + s.Query.String() + ")" }

// Expr is a boolean condition tree node.
type Expr interface {
	isExpr()
	String() string
}

// LogicOp is AND or OR.
type LogicOp int

// Logical connectives.
const (
	OpAnd LogicOp = iota
	OpOr
)

// String returns the SQL spelling of the connective.
func (o LogicOp) String() string {
	if o == OpOr {
		return "OR"
	}
	return "AND"
}

// Logic combines two conditions with AND/OR.
type Logic struct {
	Op          LogicOp
	Left, Right Expr
}

func (Logic) isExpr() {}

// String renders the combination, parenthesizing OR under AND.
func (l Logic) String() string {
	left := l.Left.String()
	right := l.Right.String()
	if l.Op == OpAnd {
		if inner, ok := l.Left.(Logic); ok && inner.Op == OpOr {
			left = "(" + left + ")"
		}
		if inner, ok := l.Right.(Logic); ok && inner.Op == OpOr {
			right = "(" + right + ")"
		}
	}
	return left + " " + l.Op.String() + " " + right
}

// Not negates a condition.
type Not struct {
	Inner Expr
}

func (Not) isExpr() {}

// String renders NOT (inner).
func (n Not) String() string { return "NOT (" + n.Inner.String() + ")" }

// Comparison is col op operand.
type Comparison struct {
	Left  ColumnRef
	Op    CmpOp
	Right Operand
}

func (Comparison) isExpr() {}

// String renders the comparison.
func (c Comparison) String() string {
	return fmt.Sprintf("%s %s %s", c.Left, c.Op, c.Right)
}

// Between is col BETWEEN lo AND hi.
type Between struct {
	Col    ColumnRef
	Lo, Hi Operand
}

func (Between) isExpr() {}

// String renders the BETWEEN predicate.
func (b Between) String() string {
	return fmt.Sprintf("%s BETWEEN %s AND %s", b.Col, b.Lo, b.Hi)
}

// InSubquery is col [NOT] IN (SELECT ...).
type InSubquery struct {
	Col     ColumnRef
	Query   *Query
	Negated bool
}

func (InSubquery) isExpr() {}

// String renders the IN predicate.
func (i InSubquery) String() string {
	op := "IN"
	if i.Negated {
		op = "NOT IN"
	}
	return fmt.Sprintf("%s %s (%s)", i.Col, op, i.Query)
}

// Exists is [NOT] EXISTS (SELECT ...).
type Exists struct {
	Query   *Query
	Negated bool
}

func (Exists) isExpr() {}

// String renders the EXISTS predicate.
func (e Exists) String() string {
	op := "EXISTS"
	if e.Negated {
		op = "NOT EXISTS"
	}
	return fmt.Sprintf("%s (%s)", op, e.Query)
}

// HavingCond is an aggregate comparison usable in HAVING,
// e.g. COUNT(*) > 5.
type HavingCond struct {
	Item  SelectItem // must have Agg != AggNone
	Op    CmpOp
	Right Operand
}

func (HavingCond) isExpr() {}

// String renders the HAVING comparison.
func (h HavingCond) String() string {
	return fmt.Sprintf("%s %s %s", h.Item, h.Op, h.Right)
}

// From is the FROM clause: either the @JOIN placeholder (the model's
// output before post-processing) or a list of tables joined implicitly
// through WHERE predicates.
type From struct {
	JoinPlaceholder bool
	Tables          []string
}

// String renders the FROM clause body.
func (f From) String() string {
	if f.JoinPlaceholder {
		return "@JOIN"
	}
	return strings.Join(f.Tables, ", ")
}

// Query is a full SELECT statement of the subset.
type Query struct {
	Distinct bool
	Select   []SelectItem
	From     From
	Where    Expr // nil when absent
	GroupBy  []ColumnRef
	Having   Expr // nil when absent
	OrderBy  []OrderItem
	Limit    int // -1 when absent
}

// NewQuery returns an empty query with Limit unset (-1).
func NewQuery() *Query { return &Query{Limit: -1} }

// String renders the query deterministically with uppercase keywords.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if q.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, s := range q.Select {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.String())
	}
	b.WriteString(" FROM ")
	b.WriteString(q.From.String())
	if q.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(q.Where.String())
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, c := range q.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.String())
		}
	}
	if q.Having != nil {
		b.WriteString(" HAVING ")
		b.WriteString(q.Having.String())
	}
	if len(q.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range q.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.String())
		}
	}
	if q.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.Limit)
	}
	return b.String()
}

// Clone deep-copies the query.
func (q *Query) Clone() *Query {
	if q == nil {
		return nil
	}
	out := &Query{
		Distinct: q.Distinct,
		Select:   append([]SelectItem(nil), q.Select...),
		From: From{
			JoinPlaceholder: q.From.JoinPlaceholder,
			Tables:          append([]string(nil), q.From.Tables...),
		},
		Where:   cloneExpr(q.Where),
		GroupBy: append([]ColumnRef(nil), q.GroupBy...),
		Having:  cloneExpr(q.Having),
		OrderBy: append([]OrderItem(nil), q.OrderBy...),
		Limit:   q.Limit,
	}
	return out
}

func cloneExpr(e Expr) Expr {
	switch v := e.(type) {
	case nil:
		return nil
	case Logic:
		return Logic{Op: v.Op, Left: cloneExpr(v.Left), Right: cloneExpr(v.Right)}
	case Not:
		return Not{Inner: cloneExpr(v.Inner)}
	case Comparison:
		return Comparison{Left: v.Left, Op: v.Op, Right: cloneOperand(v.Right)}
	case Between:
		return Between{Col: v.Col, Lo: cloneOperand(v.Lo), Hi: cloneOperand(v.Hi)}
	case InSubquery:
		return InSubquery{Col: v.Col, Query: v.Query.Clone(), Negated: v.Negated}
	case Exists:
		return Exists{Query: v.Query.Clone(), Negated: v.Negated}
	case HavingCond:
		return HavingCond{Item: v.Item, Op: v.Op, Right: cloneOperand(v.Right)}
	default:
		panic(fmt.Sprintf("sqlast: cloneExpr: unknown expr %T", e))
	}
}

func cloneOperand(o Operand) Operand {
	switch v := o.(type) {
	case nil:
		return nil
	case Value, Placeholder, ColOperand:
		return v
	case ScalarSubquery:
		return ScalarSubquery{Query: v.Query.Clone()}
	default:
		panic(fmt.Sprintf("sqlast: cloneOperand: unknown operand %T", o))
	}
}

// Conjuncts flattens an AND tree into its leaves. OR subtrees are kept
// as single leaves.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if l, ok := e.(Logic); ok && l.Op == OpAnd {
		return append(Conjuncts(l.Left), Conjuncts(l.Right)...)
	}
	return []Expr{e}
}

// AndAll joins conditions with AND (nil for empty input).
func AndAll(exprs []Expr) Expr {
	var out Expr
	for _, e := range exprs {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = Logic{Op: OpAnd, Left: out, Right: e}
		}
	}
	return out
}

// WalkQueries visits q and every subquery nested inside it.
func WalkQueries(q *Query, fn func(*Query)) {
	if q == nil {
		return
	}
	fn(q)
	walkExprQueries(q.Where, fn)
	walkExprQueries(q.Having, fn)
}

func walkExprQueries(e Expr, fn func(*Query)) {
	switch v := e.(type) {
	case nil:
	case Logic:
		walkExprQueries(v.Left, fn)
		walkExprQueries(v.Right, fn)
	case Not:
		walkExprQueries(v.Inner, fn)
	case Comparison:
		if s, ok := v.Right.(ScalarSubquery); ok {
			WalkQueries(s.Query, fn)
		}
	case Between:
		if s, ok := v.Lo.(ScalarSubquery); ok {
			WalkQueries(s.Query, fn)
		}
		if s, ok := v.Hi.(ScalarSubquery); ok {
			WalkQueries(s.Query, fn)
		}
	case InSubquery:
		WalkQueries(v.Query, fn)
	case Exists:
		WalkQueries(v.Query, fn)
	case HavingCond:
		if s, ok := v.Right.(ScalarSubquery); ok {
			WalkQueries(s.Query, fn)
		}
	}
}

// Columns returns every column referenced anywhere in the query,
// including subqueries, in first-appearance order.
func (q *Query) Columns() []ColumnRef {
	var out []ColumnRef
	seen := map[ColumnRef]bool{}
	add := func(c ColumnRef) {
		if c.Column == "" || c.Column == "*" {
			return
		}
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	WalkQueries(q, func(sub *Query) {
		for _, s := range sub.Select {
			if !s.Star {
				add(s.Col)
			}
		}
		for _, e := range Conjuncts(sub.Where) {
			addExprCols(e, add)
		}
		for _, c := range sub.GroupBy {
			add(c)
		}
		for _, e := range Conjuncts(sub.Having) {
			addExprCols(e, add)
		}
		for _, o := range sub.OrderBy {
			if !o.Item.Star {
				add(o.Item.Col)
			}
		}
	})
	return out
}

func addExprCols(e Expr, add func(ColumnRef)) {
	switch v := e.(type) {
	case nil:
	case Logic:
		addExprCols(v.Left, add)
		addExprCols(v.Right, add)
	case Not:
		addExprCols(v.Inner, add)
	case Comparison:
		add(v.Left)
		if c, ok := v.Right.(ColOperand); ok {
			add(c.Col)
		}
	case Between:
		add(v.Col)
	case InSubquery:
		add(v.Col)
	case Exists:
	case HavingCond:
		if !v.Item.Star {
			add(v.Item.Col)
		}
	}
}

// HasSubquery reports whether the query contains any nested subquery.
func (q *Query) HasSubquery() bool {
	count := 0
	WalkQueries(q, func(*Query) { count++ })
	return count > 1
}

// HasAggregate reports whether the outer query projects or orders by an
// aggregate, or has a HAVING clause.
func (q *Query) HasAggregate() bool {
	for _, s := range q.Select {
		if s.Agg != AggNone {
			return true
		}
	}
	for _, o := range q.OrderBy {
		if o.Item.Agg != AggNone {
			return true
		}
	}
	return q.Having != nil
}
