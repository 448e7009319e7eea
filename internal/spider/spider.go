// Package spider is the synthetic stand-in for the Spider benchmark
// (Yu et al., EMNLP 2018) used in the paper's §6.1 evaluation: a
// cross-domain NL2SQL dataset whose defining properties are preserved
// here — many schemas across distinct domains, disjoint train/test
// schema splits, per-question difficulty buckets, and NL questions
// whose phrasing is independent of DBPal's seed-template lexicons
// (only partially overlapping, the way human questions would be).
//
// Questions are generated by a query sampler (an AST sampler, not the
// DBPal templates) and realized into NL by Spider's own phrase tables
// plus a noise channel (fillers, article drops, clause reordering).
// Some query kinds are sampled only for the test split, so that the
// pattern-coverage analysis of the paper's Table 4 has non-empty
// "DBPal-only" and "Unseen" buckets, exactly as with the real Spider.
//
// Following the paper's evaluation setup (§4.1), questions are
// produced with pre-anonymized values: constants appear as @TABLE.COL
// placeholders on both the NL and SQL sides.
package spider

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/schema"
	"repro/internal/sqlast"
)

// Question is one benchmark example.
type Question struct {
	Schema     string
	NL         string // space-separated tokens, pre-anonymized
	SQL        string // placeholder-bearing gold SQL
	Difficulty sqlast.Difficulty
	Kind       string // sampler kind, for diagnostics
}

// Dataset is a full synthetic Spider build.
type Dataset struct {
	Train []Question
	Test  []Question
}

// Config sizes a dataset build.
type Config struct {
	TrainPerSchema int
	TestPerSchema  int
	Seed           int64
}

// DefaultConfig is the standard build used by the benchmarks. The
// per-schema training density mirrors the real Spider's sparsity
// (~8.6k training questions over ~140 schemas, i.e. roughly 60-90 per
// schema) — the data-starved regime in which synthetic supplementation
// pays off, as in the paper.
func DefaultConfig() Config {
	return Config{TrainPerSchema: 90, TestPerSchema: 60, Seed: 11}
}

// Build generates the dataset.
func Build(cfg Config) *Dataset {
	d := &Dataset{}
	for i, s := range TrainSchemas() {
		g := newSampler(s, rand.New(rand.NewSource(cfg.Seed+int64(i)*101)), false)
		d.Train = append(d.Train, g.sample(cfg.TrainPerSchema)...)
	}
	for i, s := range TestSchemas() {
		g := newSampler(s, rand.New(rand.NewSource(cfg.Seed+9000+int64(i)*101)), true)
		d.Test = append(d.Test, g.sample(cfg.TestPerSchema)...)
	}
	return d
}

// GeoWorkload generates the held-out geography tuning workload (the
// GeoQuery stand-in used by the hyperparameter-optimization
// experiment): n questions over the geo schema with test-split kinds.
func GeoWorkload(n int, seed int64) []Question {
	g := newSampler(SchemaByName("geo"), rand.New(rand.NewSource(seed)), true)
	return g.sample(n)
}

// sampler draws questions for one schema.
type sampler struct {
	s       *schema.Schema
	rng     *rand.Rand
	test    bool // include test-only kinds
	kinds   []string
	weights []int
}

// Kind inventory. Names are stable; the test split adds extra kinds.
var trainKinds = []string{
	"selectAll", "projFilterEq", "projFilterCmp", "multiProj", "countAll",
	"countFilter", "agg", "aggFilter", "groupCount", "groupAgg",
	"orderLimit", "orderPlain", "joinProj", "joinAgg", "joinGroup",
	"nestedMaxMin", "nestedAvg", "nestedExtremeFiltered", "inSubquery",
	"andFilter", "orFilter",
	// train-only patterns (not covered by DBPal's seed templates):
	"distinctPair", "starOrder", "nestedCountFilteredAvg",
}

var testOnlyKinds = []string{
	// covered by DBPal templates but absent from Spider training data:
	"having", "notIn",
	// covered by neither (the "Unseen" bucket of Table 4):
	"tripleAnd", "groupOrderAll",
}

func newSampler(s *schema.Schema, rng *rand.Rand, test bool) *sampler {
	sm := &sampler{s: s, rng: rng, test: test}
	sm.kinds = append(sm.kinds, trainKinds...)
	for range sm.kinds {
		sm.weights = append(sm.weights, 10)
	}
	if test {
		for _, k := range testOnlyKinds {
			sm.kinds = append(sm.kinds, k)
			sm.weights = append(sm.weights, 5)
		}
	}
	return sm
}

func (sm *sampler) sample(n int) []Question {
	var out []Question
	seen := map[string]bool{}
	attempts := 0
	for len(out) < n && attempts < n*30 {
		attempts++
		kind := sm.pickKind()
		q, nl, ok := sm.sampleKind(kind)
		if !ok {
			continue
		}
		sqlText := q.String()
		if _, err := sqlast.Parse(sqlText); err != nil {
			continue // defensive; the sampler should always emit valid SQL
		}
		key := nl + "\x1f" + sqlText
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, Question{
			Schema:     sm.s.Name,
			NL:         nl,
			SQL:        sqlText,
			Difficulty: sqlast.QueryDifficulty(q),
			Kind:       kind,
		})
	}
	return out
}

func (sm *sampler) pickKind() string {
	total := 0
	for _, w := range sm.weights {
		total += w
	}
	r := sm.rng.Intn(total)
	for i, w := range sm.weights {
		if r < w {
			return sm.kinds[i]
		}
		r -= w
	}
	return sm.kinds[0]
}

// --- schema element helpers ---

func (sm *sampler) table() *schema.Table {
	return sm.s.Tables[sm.rng.Intn(len(sm.s.Tables))]
}

func (sm *sampler) anyCol(t *schema.Table) *schema.Column {
	return sm.nonIDColumn(t, func(*schema.Column) bool { return true })
}

func (sm *sampler) numCol(t *schema.Table) *schema.Column {
	return sm.nonIDColumn(t, func(c *schema.Column) bool { return c.Type == schema.Number })
}

func (sm *sampler) textCol(t *schema.Table) *schema.Column {
	return sm.nonIDColumn(t, func(c *schema.Column) bool { return c.Type == schema.Text })
}

// nonIDColumn picks a random column passing the filter, avoiding key
// columns (they rarely appear in natural questions).
func (sm *sampler) nonIDColumn(t *schema.Table, ok func(*schema.Column) bool) *schema.Column {
	var cands []*schema.Column
	for _, c := range t.Columns {
		if c.PrimaryKey || strings.HasSuffix(c.Name, "_id") {
			continue
		}
		if ok(c) {
			cands = append(cands, c)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	return cands[sm.rng.Intn(len(cands))]
}

// fkPair returns a directly joined table pair (child with FK, parent).
func (sm *sampler) fkPair() (child, parent *schema.Table, childCol, parentCol string, ok bool) {
	if len(sm.s.ForeignKeys) == 0 {
		return nil, nil, "", "", false
	}
	fk := sm.s.ForeignKeys[sm.rng.Intn(len(sm.s.ForeignKeys))]
	return sm.s.Table(fk.FromTable), sm.s.Table(fk.ToTable), fk.FromColumn, fk.ToColumn, true
}

func ph(t *schema.Table, c *schema.Column) sqlast.Placeholder {
	return sqlast.Placeholder{Name: strings.ToUpper(t.Name) + "." + strings.ToUpper(c.Name)}
}

func colRef(c *schema.Column) sqlast.ColumnRef {
	return sqlast.ColumnRef{Column: c.Name}
}

func qualRef(t *schema.Table, c *schema.Column) sqlast.ColumnRef {
	return sqlast.ColumnRef{Table: t.Name, Column: c.Name}
}

func singleFrom(t *schema.Table) sqlast.From {
	return sqlast.From{Tables: []string{t.Name}}
}

var aggChoices = []sqlast.AggFunc{sqlast.AggAvg, sqlast.AggSum, sqlast.AggMin, sqlast.AggMax}

func (sm *sampler) agg() sqlast.AggFunc {
	return aggChoices[sm.rng.Intn(len(aggChoices))]
}

func (sm *sampler) cmpOp() sqlast.CmpOp {
	if sm.rng.Intn(2) == 0 {
		return sqlast.OpGt
	}
	return sqlast.OpLt
}

// sampleKind builds the AST and the NL for one kind. ok=false when the
// schema lacks the needed elements.
func (sm *sampler) sampleKind(kind string) (*sqlast.Query, string, bool) {
	t := sm.table()
	switch kind {
	case "selectAll":
		q := sqlast.NewQuery()
		q.Select = []sqlast.SelectItem{{Star: true}}
		q.From = singleFrom(t)
		return q, sm.realizeSelectAll(t), true

	case "projFilterEq":
		a := sm.anyCol(t)
		f := sm.textCol(t)
		if a == nil || f == nil || a == f {
			return nil, "", false
		}
		q := sqlast.NewQuery()
		q.Select = []sqlast.SelectItem{{Col: colRef(a)}}
		q.From = singleFrom(t)
		q.Where = sqlast.Comparison{Left: colRef(f), Op: sqlast.OpEq, Right: ph(t, f)}
		return q, sm.realizeProjFilter(t, a, f, "eq", ph(t, f).String()), true

	case "projFilterCmp":
		a := sm.anyCol(t)
		f := sm.numCol(t)
		if a == nil || f == nil || a == f {
			return nil, "", false
		}
		op := sm.cmpOp()
		q := sqlast.NewQuery()
		q.Select = []sqlast.SelectItem{{Col: colRef(a)}}
		q.From = singleFrom(t)
		q.Where = sqlast.Comparison{Left: colRef(f), Op: op, Right: ph(t, f)}
		dir := "gt"
		if op == sqlast.OpLt {
			dir = "lt"
		}
		return q, sm.realizeProjFilter(t, a, f, dir, ph(t, f).String()), true

	case "multiProj":
		a := sm.anyCol(t)
		b := sm.anyCol(t)
		if a == nil || b == nil || a == b {
			return nil, "", false
		}
		q := sqlast.NewQuery()
		q.Select = []sqlast.SelectItem{{Col: colRef(a)}, {Col: colRef(b)}}
		q.From = singleFrom(t)
		return q, sm.realizeMultiProj(t, a, b), true

	case "countAll":
		q := sqlast.NewQuery()
		q.Select = []sqlast.SelectItem{{Star: true, Agg: sqlast.AggCount}}
		q.From = singleFrom(t)
		return q, sm.realizeCount(t, nil, "", ""), true

	case "countFilter":
		f := sm.textCol(t)
		if f == nil {
			return nil, "", false
		}
		q := sqlast.NewQuery()
		q.Select = []sqlast.SelectItem{{Star: true, Agg: sqlast.AggCount}}
		q.From = singleFrom(t)
		q.Where = sqlast.Comparison{Left: colRef(f), Op: sqlast.OpEq, Right: ph(t, f)}
		return q, sm.realizeCount(t, f, "eq", ph(t, f).String()), true

	case "agg", "aggFilter":
		n := sm.numCol(t)
		if n == nil {
			return nil, "", false
		}
		ag := sm.agg()
		q := sqlast.NewQuery()
		q.Select = []sqlast.SelectItem{{Agg: ag, Col: colRef(n)}}
		q.From = singleFrom(t)
		var f *schema.Column
		if kind == "aggFilter" {
			f = sm.textCol(t)
			if f == nil {
				return nil, "", false
			}
			q.Where = sqlast.Comparison{Left: colRef(f), Op: sqlast.OpEq, Right: ph(t, f)}
		}
		return q, sm.realizeAgg(t, ag, n, f), true

	case "groupCount", "groupAgg":
		g := sm.textCol(t)
		if g == nil {
			return nil, "", false
		}
		q := sqlast.NewQuery()
		q.From = singleFrom(t)
		q.GroupBy = []sqlast.ColumnRef{colRef(g)}
		if kind == "groupCount" {
			q.Select = []sqlast.SelectItem{{Col: colRef(g)}, {Star: true, Agg: sqlast.AggCount}}
			return q, sm.realizeGroup(t, g, sqlast.AggCount, nil), true
		}
		n := sm.numCol(t)
		if n == nil {
			return nil, "", false
		}
		ag := sm.agg()
		q.Select = []sqlast.SelectItem{{Col: colRef(g)}, {Agg: ag, Col: colRef(n)}}
		return q, sm.realizeGroup(t, g, ag, n), true

	case "orderLimit":
		a := sm.anyCol(t)
		n := sm.numCol(t)
		if a == nil || n == nil || a == n {
			return nil, "", false
		}
		desc := sm.rng.Intn(2) == 0
		q := sqlast.NewQuery()
		q.Select = []sqlast.SelectItem{{Col: colRef(a)}}
		q.From = singleFrom(t)
		q.OrderBy = []sqlast.OrderItem{{Item: sqlast.SelectItem{Col: colRef(n)}, Desc: desc}}
		q.Limit = 1
		return q, sm.realizeArg(t, a, n, desc), true

	case "orderPlain":
		a := sm.anyCol(t)
		n := sm.numCol(t)
		if a == nil || n == nil || a == n {
			return nil, "", false
		}
		desc := sm.rng.Intn(2) == 0
		q := sqlast.NewQuery()
		q.Select = []sqlast.SelectItem{{Col: colRef(a)}}
		q.From = singleFrom(t)
		q.OrderBy = []sqlast.OrderItem{{Item: sqlast.SelectItem{Col: colRef(n)}, Desc: desc}}
		return q, sm.realizeOrder(t, a, n, desc), true

	case "joinProj", "joinAgg", "joinGroup":
		child, parent, _, _, ok := sm.fkPair()
		if !ok || child == nil || parent == nil {
			return nil, "", false
		}
		return sm.sampleJoin(kind, child, parent)

	case "nestedMaxMin":
		a := sm.anyCol(t)
		n := sm.numCol(t)
		if a == nil || n == nil || a == n {
			return nil, "", false
		}
		ag := sqlast.AggMax
		if sm.rng.Intn(2) == 0 {
			ag = sqlast.AggMin
		}
		inner := sqlast.NewQuery()
		inner.Select = []sqlast.SelectItem{{Agg: ag, Col: colRef(n)}}
		inner.From = singleFrom(t)
		q := sqlast.NewQuery()
		q.Select = []sqlast.SelectItem{{Col: colRef(a)}}
		q.From = singleFrom(t)
		q.Where = sqlast.Comparison{Left: colRef(n), Op: sqlast.OpEq, Right: sqlast.ScalarSubquery{Query: inner}}
		return q, sm.realizeNestedExtreme(t, a, n, ag), true

	case "nestedExtremeFiltered":
		// The paper's mountain example shape: extreme among a filtered
		// subset. Very Hard; its pattern is covered by DBPal's
		// nested-max-filter/nested-min-filter templates.
		a := sm.anyCol(t)
		n := sm.numCol(t)
		f := sm.textCol(t)
		if a == nil || n == nil || f == nil || a == n || f == n {
			return nil, "", false
		}
		ag := sqlast.AggMax
		if sm.rng.Intn(2) == 0 {
			ag = sqlast.AggMin
		}
		inner := sqlast.NewQuery()
		inner.Select = []sqlast.SelectItem{{Agg: ag, Col: colRef(n)}}
		inner.From = singleFrom(t)
		inner.Where = sqlast.Comparison{Left: colRef(f), Op: sqlast.OpEq, Right: ph(t, f)}
		q := sqlast.NewQuery()
		q.Select = []sqlast.SelectItem{{Col: colRef(a)}}
		q.From = singleFrom(t)
		q.Where = sqlast.Comparison{Left: colRef(n), Op: sqlast.OpEq, Right: sqlast.ScalarSubquery{Query: inner}}
		return q, sm.realizeNestedExtremeFiltered(t, a, n, f, ag), true

	case "nestedAvg":
		a := sm.anyCol(t)
		n := sm.numCol(t)
		if a == nil || n == nil || a == n {
			return nil, "", false
		}
		op := sm.cmpOp()
		inner := sqlast.NewQuery()
		inner.Select = []sqlast.SelectItem{{Agg: sqlast.AggAvg, Col: colRef(n)}}
		inner.From = singleFrom(t)
		q := sqlast.NewQuery()
		q.Select = []sqlast.SelectItem{{Col: colRef(a)}}
		q.From = singleFrom(t)
		q.Where = sqlast.Comparison{Left: colRef(n), Op: op, Right: sqlast.ScalarSubquery{Query: inner}}
		return q, sm.realizeNestedAvg(t, a, n, op), true

	case "inSubquery", "notIn":
		child, parent, cc, pc, ok := sm.fkPair()
		if !ok {
			return nil, "", false
		}
		a := sm.anyCol(parent)
		f := sm.textCol(child)
		if a == nil || f == nil {
			return nil, "", false
		}
		inner := sqlast.NewQuery()
		inner.Select = []sqlast.SelectItem{{Col: qualRef(child, child.Column(cc))}}
		inner.From = singleFrom(child)
		inner.Where = sqlast.Comparison{Left: qualRef(child, f), Op: sqlast.OpEq, Right: ph(child, f)}
		q := sqlast.NewQuery()
		q.Select = []sqlast.SelectItem{{Col: colRef(a)}}
		q.From = singleFrom(parent)
		q.Where = sqlast.InSubquery{Col: colRef(parent.Column(pc)), Query: inner, Negated: kind == "notIn"}
		return q, sm.realizeIn(parent, child, a, f, kind == "notIn", ph(child, f).String()), true

	case "andFilter":
		a := sm.anyCol(t)
		f1 := sm.textCol(t)
		f2 := sm.numCol(t)
		if a == nil || f1 == nil || f2 == nil || a == f1 || a == f2 {
			return nil, "", false
		}
		q := sqlast.NewQuery()
		q.Select = []sqlast.SelectItem{{Col: colRef(a)}}
		q.From = singleFrom(t)
		q.Where = sqlast.Logic{Op: sqlast.OpAnd,
			Left:  sqlast.Comparison{Left: colRef(f1), Op: sqlast.OpEq, Right: ph(t, f1)},
			Right: sqlast.Comparison{Left: colRef(f2), Op: sqlast.OpGt, Right: ph(t, f2)},
		}
		return q, sm.realizeAnd(t, a, f1, f2), true

	case "orFilter":
		a := sm.anyCol(t)
		f := sm.textCol(t)
		if a == nil || f == nil || a == f {
			return nil, "", false
		}
		q := sqlast.NewQuery()
		q.Select = []sqlast.SelectItem{{Col: colRef(a)}}
		q.From = singleFrom(t)
		q.Where = sqlast.Logic{Op: sqlast.OpOr,
			Left:  sqlast.Comparison{Left: colRef(f), Op: sqlast.OpEq, Right: ph(t, f)},
			Right: sqlast.Comparison{Left: colRef(f), Op: sqlast.OpEq, Right: ph(t, f)},
		}
		return q, sm.realizeOr(t, a, f), true

	case "distinctPair": // train-only: not covered by DBPal templates
		a := sm.anyCol(t)
		b := sm.anyCol(t)
		if a == nil || b == nil || a == b {
			return nil, "", false
		}
		q := sqlast.NewQuery()
		q.Distinct = true
		q.Select = []sqlast.SelectItem{{Col: colRef(a)}, {Col: colRef(b)}}
		q.From = singleFrom(t)
		return q, sm.realizeDistinctPair(t, a, b), true

	case "starOrder": // train-only
		n := sm.numCol(t)
		if n == nil {
			return nil, "", false
		}
		q := sqlast.NewQuery()
		q.Select = []sqlast.SelectItem{{Star: true}}
		q.From = singleFrom(t)
		q.OrderBy = []sqlast.OrderItem{{Item: sqlast.SelectItem{Col: colRef(n)}, Desc: true}}
		return q, sm.realizeStarOrder(t, n), true

	case "nestedCountFilteredAvg": // train-only
		n := sm.numCol(t)
		f := sm.textCol(t)
		if n == nil || f == nil {
			return nil, "", false
		}
		inner := sqlast.NewQuery()
		inner.Select = []sqlast.SelectItem{{Agg: sqlast.AggAvg, Col: colRef(n)}}
		inner.From = singleFrom(t)
		inner.Where = sqlast.Comparison{Left: colRef(f), Op: sqlast.OpEq, Right: ph(t, f)}
		q := sqlast.NewQuery()
		q.Select = []sqlast.SelectItem{{Star: true, Agg: sqlast.AggCount}}
		q.From = singleFrom(t)
		q.Where = sqlast.Comparison{Left: colRef(n), Op: sqlast.OpGt, Right: sqlast.ScalarSubquery{Query: inner}}
		return q, sm.realizeNestedCount(t, n, f), true

	case "having": // test-only; covered by DBPal templates
		g := sm.textCol(t)
		if g == nil {
			return nil, "", false
		}
		k := sm.rng.Intn(5) + 2
		q := sqlast.NewQuery()
		q.Select = []sqlast.SelectItem{{Col: colRef(g)}}
		q.From = singleFrom(t)
		q.GroupBy = []sqlast.ColumnRef{colRef(g)}
		q.Having = sqlast.HavingCond{
			Item:  sqlast.SelectItem{Star: true, Agg: sqlast.AggCount},
			Op:    sqlast.OpGt,
			Right: sqlast.NumValue(float64(k)),
		}
		return q, sm.realizeHaving(t, g, k), true

	case "tripleAnd": // test-only; unseen everywhere
		a := sm.anyCol(t)
		f1 := sm.textCol(t)
		var f2, f3 *schema.Column
		for _, c := range t.Columns {
			if c.Type == schema.Number && !c.PrimaryKey && !strings.HasSuffix(c.Name, "_id") {
				if f2 == nil {
					f2 = c
				} else if f3 == nil && c != f2 {
					f3 = c
				}
			}
		}
		if a == nil || f1 == nil || f2 == nil || f3 == nil || a == f1 {
			return nil, "", false
		}
		q := sqlast.NewQuery()
		q.Select = []sqlast.SelectItem{{Col: colRef(a)}}
		q.From = singleFrom(t)
		q.Where = sqlast.AndAll([]sqlast.Expr{
			sqlast.Comparison{Left: colRef(f1), Op: sqlast.OpEq, Right: ph(t, f1)},
			sqlast.Comparison{Left: colRef(f2), Op: sqlast.OpGt, Right: ph(t, f2)},
			sqlast.Comparison{Left: colRef(f3), Op: sqlast.OpLt, Right: ph(t, f3)},
		})
		return q, sm.realizeTripleAnd(t, a, f1, f2, f3), true

	case "groupOrderAll": // test-only; unseen everywhere
		g := sm.textCol(t)
		if g == nil {
			return nil, "", false
		}
		q := sqlast.NewQuery()
		q.Select = []sqlast.SelectItem{{Col: colRef(g)}, {Star: true, Agg: sqlast.AggCount}}
		q.From = singleFrom(t)
		q.GroupBy = []sqlast.ColumnRef{colRef(g)}
		q.OrderBy = []sqlast.OrderItem{{Item: sqlast.SelectItem{Star: true, Agg: sqlast.AggCount}, Desc: true}}
		return q, sm.realizeGroupOrder(t, g), true
	}
	return nil, "", false
}

// sampleJoin builds join-kind questions (FROM @JOIN form).
func (sm *sampler) sampleJoin(kind string, child, parent *schema.Table) (*sqlast.Query, string, bool) {
	switch kind {
	case "joinProj":
		a := sm.anyCol(child)
		f := sm.textCol(parent)
		if a == nil || f == nil {
			return nil, "", false
		}
		q := sqlast.NewQuery()
		q.Select = []sqlast.SelectItem{{Col: qualRef(child, a)}}
		q.From = sqlast.From{JoinPlaceholder: true}
		q.Where = sqlast.Comparison{Left: qualRef(parent, f), Op: sqlast.OpEq, Right: ph(parent, f)}
		return q, sm.realizeJoinProj(child, parent, a, f), true
	case "joinAgg":
		n := sm.numCol(child)
		f := sm.textCol(parent)
		if n == nil || f == nil {
			return nil, "", false
		}
		ag := sm.agg()
		q := sqlast.NewQuery()
		q.Select = []sqlast.SelectItem{{Agg: ag, Col: qualRef(child, n)}}
		q.From = sqlast.From{JoinPlaceholder: true}
		q.Where = sqlast.Comparison{Left: qualRef(parent, f), Op: sqlast.OpEq, Right: ph(parent, f)}
		return q, sm.realizeJoinAgg(child, parent, ag, n, f), true
	case "joinGroup":
		g := sm.textCol(parent)
		if g == nil {
			return nil, "", false
		}
		q := sqlast.NewQuery()
		q.Select = []sqlast.SelectItem{{Col: qualRef(parent, g)}, {Star: true, Agg: sqlast.AggCount}}
		q.From = sqlast.From{JoinPlaceholder: true}
		q.GroupBy = []sqlast.ColumnRef{qualRef(parent, g)}
		return q, sm.realizeJoinGroup(child, parent, g), true
	}
	return nil, "", false
}

// queryPatternSet collects the Pattern() of each question, used by the
// Table-4 coverage analysis.
func QueryPatternSet(qs []Question) map[string]bool {
	out := map[string]bool{}
	for _, q := range qs {
		p, err := sqlast.Parse(q.SQL)
		if err != nil {
			continue
		}
		out[p.Pattern()] = true
	}
	return out
}

// String renders a question for logs.
func (q Question) String() string {
	return fmt.Sprintf("[%s/%s] %s => %s", q.Schema, q.Difficulty, q.NL, q.SQL)
}
