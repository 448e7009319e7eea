package engine

import (
	"strings"

	"repro/internal/sqlast"
)

// validateExpr resolves every column reference in a condition tree
// eagerly (including inside subqueries, against their own bindings) so
// that invalid queries fail even when no rows reach evaluation.
func (ex *executor) validateExpr(e sqlast.Expr, b *binding) error {
	switch v := e.(type) {
	case nil:
		return nil
	case sqlast.Logic:
		if err := ex.validateExpr(v.Left, b); err != nil {
			return err
		}
		return ex.validateExpr(v.Right, b)
	case sqlast.Not:
		return ex.validateExpr(v.Inner, b)
	case sqlast.Comparison:
		if _, err := b.resolve(v.Left); err != nil {
			return err
		}
		if c, ok := v.Right.(sqlast.ColOperand); ok {
			if _, err := b.resolve(c.Col); err != nil {
				return err
			}
		}
		if s, ok := v.Right.(sqlast.ScalarSubquery); ok {
			return ex.validateSub(s.Query)
		}
		return nil
	case sqlast.Between:
		_, err := b.resolve(v.Col)
		return err
	case sqlast.InSubquery:
		if _, err := b.resolve(v.Col); err != nil {
			return err
		}
		return ex.validateSub(v.Query)
	case sqlast.Exists:
		return ex.validateSub(v.Query)
	case sqlast.HavingCond:
		return execError(ErrGrouping, "aggregate condition %q outside HAVING", v.String())
	default:
		return nil
	}
}

// validateSub validates a subquery's own column references.
func (ex *executor) validateSub(q *sqlast.Query) error {
	if q.From.JoinPlaceholder {
		return execError(ErrPlaceholder, "cannot execute query with unresolved @JOIN placeholder")
	}
	sb, err := ex.bind(q.From.Tables)
	if err != nil {
		return err
	}
	for _, sel := range q.Select {
		if sel.Star {
			continue
		}
		if _, err := sb.resolve(sel.Col); err != nil {
			return err
		}
	}
	return ex.validateExpr(q.Where, sb)
}

// evalBool evaluates a condition against one environment row. nil
// conditions are true.
func (ex *executor) evalBool(e sqlast.Expr, b *binding, row Row) (bool, error) {
	switch v := e.(type) {
	case nil:
		return true, nil
	case sqlast.Logic:
		left, err := ex.evalBool(v.Left, b, row)
		if err != nil {
			return false, err
		}
		// No short-circuit on errors: both sides must be well-formed.
		right, err := ex.evalBool(v.Right, b, row)
		if err != nil {
			return false, err
		}
		if v.Op == sqlast.OpAnd {
			return left && right, nil
		}
		return left || right, nil
	case sqlast.Not:
		inner, err := ex.evalBool(v.Inner, b, row)
		if err != nil {
			return false, err
		}
		return !inner, nil
	case sqlast.Comparison:
		p, err := b.resolve(v.Left)
		if err != nil {
			return false, err
		}
		rhs, err := ex.evalOperand(v.Right, b, row)
		if err != nil {
			return false, err
		}
		return compare(row[p], v.Op, rhs)
	case sqlast.Between:
		p, err := b.resolve(v.Col)
		if err != nil {
			return false, err
		}
		lo, err := ex.evalOperand(v.Lo, b, row)
		if err != nil {
			return false, err
		}
		hi, err := ex.evalOperand(v.Hi, b, row)
		if err != nil {
			return false, err
		}
		ge, err := compare(row[p], sqlast.OpGe, lo)
		if err != nil {
			return false, err
		}
		le, err := compare(row[p], sqlast.OpLe, hi)
		if err != nil {
			return false, err
		}
		return ge && le, nil
	case sqlast.InSubquery:
		p, err := b.resolve(v.Col)
		if err != nil {
			return false, err
		}
		res, err := ex.subqueryResult(v.Query)
		if err != nil {
			return false, err
		}
		if len(res.Columns) != 1 {
			return false, execError(ErrArity, "IN subquery must produce exactly one column, got %d", len(res.Columns))
		}
		found := false
		for _, r := range res.Rows {
			if r[0].Equal(row[p]) {
				found = true
				break
			}
		}
		if v.Negated {
			return !found, nil
		}
		return found, nil
	case sqlast.Exists:
		res, err := ex.subqueryResult(v.Query)
		if err != nil {
			return false, err
		}
		exists := len(res.Rows) > 0
		if v.Negated {
			return !exists, nil
		}
		return exists, nil
	case sqlast.HavingCond:
		return false, execError(ErrGrouping, "aggregate condition %q outside HAVING", v.String())
	default:
		return false, execErrorf("unsupported condition %T", e)
	}
}

// evalOperand evaluates the right-hand side of a comparison.
func (ex *executor) evalOperand(o sqlast.Operand, b *binding, row Row) (Value, error) {
	switch v := o.(type) {
	case sqlast.Value:
		if v.IsNum {
			return Num(v.Num), nil
		}
		return Str(v.Str), nil
	case sqlast.Placeholder:
		return Value{}, execError(ErrPlaceholder, "unresolved placeholder @%s (post-processing must substitute constants before execution)", v.Name)
	case sqlast.ColOperand:
		p, err := b.resolve(v.Col)
		if err != nil {
			return Value{}, err
		}
		return row[p], nil
	case sqlast.ScalarSubquery:
		return ex.subqueryScalar(v.Query)
	default:
		return Value{}, execErrorf("unsupported operand %T", o)
	}
}

// subqueryResult returns an uncorrelated subquery's result, executing
// it on first use and serving every later outer row from the
// executor's memo. Correlated column references surface as "unknown
// column" errors from the inner binding, which matches the paper's
// "uncorrelated nestings only" scope; a failed subquery is not
// memoized, since its error ends the execution.
func (ex *executor) subqueryResult(q *sqlast.Query) (*Result, error) {
	if res, ok := ex.subs[q]; ok {
		return res, nil
	}
	res, err := ex.query(q)
	if err != nil {
		return nil, err
	}
	if ex.subs == nil {
		ex.subs = map[*sqlast.Query]*Result{}
	}
	ex.subs[q] = res
	return res, nil
}

// subqueryScalar returns the single value of a scalar subquery. An
// empty result yields NULL (which compares false to everything except
// NULL).
func (ex *executor) subqueryScalar(q *sqlast.Query) (Value, error) {
	res, err := ex.subqueryResult(q)
	if err != nil {
		return Value{}, err
	}
	if len(res.Columns) != 1 {
		return Value{}, execError(ErrArity, "scalar subquery must produce exactly one column, got %d", len(res.Columns))
	}
	if len(res.Rows) == 0 {
		return Null, nil
	}
	if len(res.Rows) > 1 {
		return Value{}, execError(ErrArity, "scalar subquery produced %d rows", len(res.Rows))
	}
	return res.Rows[0][0], nil
}

// compare applies a comparison operator. Comparisons involving NULL
// are false (SQL three-valued logic collapsed to false, sufficient for
// the subset). Numeric/string mismatches compare by string rendering,
// which tolerates text columns holding digit strings.
func compare(left Value, op sqlast.CmpOp, right Value) (bool, error) {
	if left.Null || right.Null {
		return false, nil
	}
	if op == sqlast.OpLike {
		return matchLike(left.String(), right.String()), nil
	}
	var cmp int
	if left.IsNum && right.IsNum {
		switch {
		case left.Equal(right):
			cmp = 0
		case left.Num < right.Num:
			cmp = -1
		default:
			cmp = 1
		}
	} else {
		ls, rs := strings.ToLower(left.String()), strings.ToLower(right.String())
		cmp = strings.Compare(ls, rs)
	}
	switch op {
	case sqlast.OpEq:
		return cmp == 0, nil
	case sqlast.OpNe:
		return cmp != 0, nil
	case sqlast.OpLt:
		return cmp < 0, nil
	case sqlast.OpLe:
		return cmp <= 0, nil
	case sqlast.OpGt:
		return cmp > 0, nil
	case sqlast.OpGe:
		return cmp >= 0, nil
	default:
		return false, execErrorf("unsupported comparison operator %v", op)
	}
}

// matchLike implements SQL LIKE with % (any run) and _ (any single
// character), case-insensitively.
func matchLike(s, pattern string) bool {
	s = strings.ToLower(s)
	pattern = strings.ToLower(pattern)
	return likeMatch([]rune(s), []rune(pattern))
}

func likeMatch(s, p []rune) bool {
	if len(p) == 0 {
		return len(s) == 0
	}
	switch p[0] {
	case '%':
		for i := 0; i <= len(s); i++ {
			if likeMatch(s[i:], p[1:]) {
				return true
			}
		}
		return false
	case '_':
		return len(s) > 0 && likeMatch(s[1:], p[1:])
	default:
		return len(s) > 0 && s[0] == p[0] && likeMatch(s[1:], p[1:])
	}
}
