package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/boot"
	"repro/internal/engine"
	"repro/internal/lemma"
	"repro/internal/patients"
	"repro/internal/runtime"
	"repro/internal/schema"
	"repro/internal/spider"
	"repro/internal/sqlast"
)

// Every tenant is served and trained with the CLIs' own defaults: the
// model seed and the synthetic row count never vary with the workload
// seed, which only shapes the request list.
const (
	serverSeed = 1
	serverRows = 40
)

// spec describes one workload: the tenant it targets and the nominal
// completion rate used to size the fixed request list for a requested
// run length (list length = nominalRPS × seconds, independent of how
// fast the server runs).
type spec struct {
	name       string
	schema     string
	nominalRPS float64
	// repeat selects the cycled Patients-benchmark list; otherwise
	// every request is a fresh spider-style question with a cache key
	// no earlier request of the run has used.
	repeat bool
}

var specs = []spec{
	{name: "ask-repeat", schema: "patients", nominalRPS: 1000, repeat: true},
	{name: "ask-novel", schema: "patients", nominalRPS: 180},
	// ask-join is not in BENCHMARK.json: the unbounded final execute
	// keeps it from repeating (NOTES.md, "Dropped: ask-join").
	{name: "ask-join", schema: "flights", nominalRPS: 150},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// request is one ask: the question exactly as sent, the gold SQL with
// the same constants bound, and the result-cache key the server will
// derive from the question.
type request struct {
	NL   string `json:"nl"`
	Gold string `json:"gold"`
	Key  string `json:"key"`
}

// tenant is the harness's own copy of a tenant's schema and database,
// built exactly as dbpal-serve builds it, used to bind constants,
// compute gold answers and derive cache keys.
type tenant struct {
	schema *schema.Schema
	db     *engine.Database
	ph     *runtime.ParameterHandler
}

func loadTenant(name string) (*tenant, error) {
	s, db, err := boot.ResolveSchema(name, serverRows, serverSeed)
	if err != nil {
		return nil, err
	}
	return &tenant{schema: s, db: db, ph: runtime.NewParameterHandler(db)}, nil
}

// cacheKey mirrors the serving layer's result-cache key: the schema
// name joined to the lemmatized anonymized question.
func (t *tenant) cacheKey(nl string) (string, error) {
	anon, err := t.ph.Anonymize(nl)
	if err != nil {
		return "", err
	}
	return t.schema.Name + "\x1f" + strings.Join(lemma.LemmatizeAll(anon.Tokens), " "), nil
}

// plan is a workload's fixed, seeded request lists.
type plan struct {
	warm     []request // sent once, untimed, before the measured phase
	measured []request
}

// buildPlan derives the request lists from the seed and, for the novel
// workloads, keep: a novel question is sent only if keep accepts it (nil
// accepts every question).
func buildPlan(sp spec, t *tenant, seed int64, seconds int, keep func(request) bool) (*plan, error) {
	n := int(math.Ceil(sp.nominalRPS * float64(seconds)))
	if sp.repeat {
		return repeatPlan(t, seed, n)
	}
	list, err := novelList(t, seed, n, keep)
	if err != nil {
		return nil, err
	}
	return &plan{measured: list}, nil
}

// repeatPlan cycles the 399 Patients-benchmark questions (57 queries ×
// 7 linguistic categories): one warm pass in benchmark order, then
// seeded permutations until n requests.
func repeatPlan(t *tenant, seed int64, n int) (*plan, error) {
	cases := patients.Cases()
	base := make([]request, len(cases))
	for i, c := range cases {
		key, err := t.cacheKey(c.NL)
		if err != nil {
			return nil, fmt.Errorf("case %s: %w", c.ID, err)
		}
		base[i] = request{NL: c.NL, Gold: c.SQL, Key: key}
	}
	rng := rand.New(rand.NewSource(seed))
	p := &plan{warm: base}
	for len(p.measured) < n {
		for _, i := range rng.Perm(len(base)) {
			if len(p.measured) == n {
				break
			}
			p.measured = append(p.measured, base[i])
		}
	}
	return p, nil
}

// novelList draws n spider-style questions over the tenant's schema,
// binds every placeholder to a value sampled from its database, and
// keeps only questions whose cache key is new to the list and that keep
// accepts.
func novelList(t *tenant, seed int64, n int, keep func(request) bool) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var out []request
	for round := int64(0); len(out) < n; round++ {
		if round > 1000 {
			return nil, fmt.Errorf("%s: only %d distinct questions after %d rounds", t.schema.Name, len(out), round)
		}
		for _, q := range spider.Workload(t.schema, 500, seed*7919+round) {
			r, ok, err := t.bind(q, rng)
			if err != nil {
				return nil, err
			}
			if !ok || seen[r.Key] {
				continue
			}
			seen[r.Key] = true
			if keep != nil && !keep(r) {
				continue
			}
			out = append(out, r)
			if len(out) == n {
				break
			}
		}
	}
	return out, nil
}

// bind replaces each placeholder of a pre-anonymized question with a
// value sampled from the referenced column, binding the gold SQL's
// placeholders to the same constants in order of appearance. ok is
// false for a question the parameter handler refuses outright.
func (t *tenant) bind(q spider.Question, rng *rand.Rand) (request, bool, error) {
	toks := strings.Fields(q.NL)
	var bindings []runtime.Binding
	for i, tok := range toks {
		if !strings.HasPrefix(tok, "@") {
			continue
		}
		name := strings.ToUpper(tok[1:])
		table, col, ok := strings.Cut(name, ".")
		if !ok {
			return request{}, false, fmt.Errorf("placeholder %q in %q has no column", tok, q.NL)
		}
		vals := t.db.DistinctValues(strings.ToLower(table), strings.ToLower(col))
		if len(vals) == 0 {
			return request{}, false, fmt.Errorf("no values for %s in %s", name, t.schema.Name)
		}
		v := vals[rng.Intn(len(vals))]
		toks[i] = v.String()
		sv := sqlast.StrValue(v.Str)
		if v.IsNum {
			sv = sqlast.NumValue(v.Num)
		}
		bindings = append(bindings, runtime.Binding{Placeholder: name, Value: sv})
	}
	gq, err := sqlast.Parse(q.SQL)
	if err != nil {
		return request{}, false, fmt.Errorf("gold %q: %w", q.SQL, err)
	}
	gq, err = runtime.PostProcess(gq, t.schema, bindings)
	if err != nil {
		return request{}, false, fmt.Errorf("binding gold %q: %w", q.SQL, err)
	}
	nl := strings.Join(toks, " ")
	key, err := t.cacheKey(nl)
	if err != nil {
		return request{}, false, nil
	}
	return request{NL: nl, Gold: gq.String(), Key: key}, true, nil
}

// answer is a result reduced to what answer accuracy compares: the
// rows rendered as the server renders them, as a sorted multiset.
type answer []string

func answerOf(columns int, rows [][]string) answer {
	out := make(answer, 0, len(rows))
	for _, r := range rows {
		out = append(out, strings.Join(r, "\x1f"))
	}
	sort.Strings(out)
	return append(out, fmt.Sprintf("cols=%d", columns))
}

// goldAnswer executes a gold query on the harness's copy of the
// tenant database.
func (t *tenant) goldAnswer(sql string) (answer, error) {
	q, err := sqlast.Parse(sql)
	if err != nil {
		return nil, err
	}
	res, err := t.db.Execute(q)
	if err != nil {
		return nil, err
	}
	return answerOf(len(res.Columns), renderRows(res)), nil
}

func renderRows(res *engine.Result) [][]string {
	rows := make([][]string, len(res.Rows))
	for i, row := range res.Rows {
		out := make([]string, len(row))
		for j, v := range row {
			out[j] = v.String()
		}
		rows[i] = out
	}
	return rows
}
