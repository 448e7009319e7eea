package critic

import (
	"context"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/sqlast"
)

// testDB builds a small, hand-checkable hospital database.
func testDB(t testing.TB) *engine.Database {
	t.Helper()
	s := &schema.Schema{
		Name: "hospital",
		Tables: []*schema.Table{
			{Name: "patients", Columns: []*schema.Column{
				{Name: "id", Type: schema.Number, PrimaryKey: true},
				{Name: "name", Type: schema.Text},
				{Name: "age", Type: schema.Number},
				{Name: "diagnosis", Type: schema.Text},
			}},
			{Name: "visits", Columns: []*schema.Column{
				{Name: "id", Type: schema.Number, PrimaryKey: true},
				{Name: "patient_id", Type: schema.Number},
				{Name: "cost", Type: schema.Number},
			}},
		},
		ForeignKeys: []schema.ForeignKey{
			{FromTable: "visits", FromColumn: "patient_id", ToTable: "patients", ToColumn: "id"},
		},
	}
	db := engine.NewDatabase(s)
	rows := []engine.Row{
		{engine.Num(1), engine.Str("alice"), engine.Num(80), engine.Str("influenza")},
		{engine.Num(2), engine.Str("bob"), engine.Num(40), engine.Str("diabetes")},
		{engine.Num(3), engine.Str("carol"), engine.Num(60), engine.Str("influenza")},
		{engine.Num(4), engine.Str("dave"), engine.Num(20), engine.Str("asthma")},
	}
	for _, r := range rows {
		if err := db.Insert("patients", r); err != nil {
			t.Fatal(err)
		}
	}
	visits := []engine.Row{
		{engine.Num(1), engine.Num(1), engine.Num(100)},
		{engine.Num(2), engine.Num(1), engine.Num(300)},
		{engine.Num(3), engine.Num(2), engine.Num(50)},
	}
	for _, r := range visits {
		if err := db.Insert("visits", r); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func newCritic(t testing.TB, cfg Config) *Critic {
	t.Helper()
	return New(testDB(t), cfg)
}

// --- static checks ---------------------------------------------------

func TestCheckValid(t *testing.T) {
	c := newCritic(t, Config{})
	for _, sql := range []string{
		"SELECT name FROM patients",
		"SELECT * FROM patients WHERE age > 50",
		"SELECT diagnosis, COUNT(*) FROM patients GROUP BY diagnosis",
		"SELECT name FROM patients WHERE id IN (SELECT patient_id FROM visits)",
		"SELECT diagnosis FROM patients GROUP BY diagnosis HAVING COUNT(*) > 1",
		"SELECT name FROM patients WHERE age > (SELECT AVG(age) FROM patients)",
	} {
		if cerr := c.Check(sqlast.MustParse(sql)); cerr != nil {
			t.Errorf("Check(%q) = %v, want nil", sql, cerr)
		}
	}
}

func TestCheckFailures(t *testing.T) {
	c := newCritic(t, Config{})
	cases := []struct {
		sql  string
		kind engine.ErrKind
	}{
		{"SELECT name FROM people", engine.ErrUnknownTable},
		{"SELECT salary FROM patients", engine.ErrUnknownColumn},
		{"SELECT patients.salary FROM patients", engine.ErrUnknownColumn},
		{"SELECT visits.cost FROM patients", engine.ErrUnknownColumn},
		{"SELECT id FROM patients, visits", engine.ErrAmbiguousColumn},
		{"SELECT SUM(name) FROM patients", engine.ErrTypeMismatch},
		{"SELECT age FROM patients WHERE age > '50'", engine.ErrTypeMismatch},
		{"SELECT name, COUNT(*) FROM patients", engine.ErrGrouping},
		{"SELECT *, COUNT(*) FROM patients", engine.ErrGrouping},
		{"SELECT name FROM patients WHERE age IN (SELECT * FROM visits)", engine.ErrArity},
		{"SELECT name FROM patients WHERE age > (SELECT * FROM visits)", engine.ErrArity},
	}
	for _, tc := range cases {
		cerr := c.Check(sqlast.MustParse(tc.sql))
		if cerr == nil {
			t.Errorf("Check(%q) = nil, want kind %v", tc.sql, tc.kind)
			continue
		}
		if cerr.Kind != tc.kind {
			t.Errorf("Check(%q) kind = %v (%s), want %v", tc.sql, cerr.Kind, cerr.Msg, tc.kind)
		}
	}
}

// A number column compared against a string literal that is not a
// number at all is left to the dry-run: the engine tolerates it and
// there is no repair to offer.
func TestCheckUnparseableStringPasses(t *testing.T) {
	c := newCritic(t, Config{})
	if cerr := c.Check(sqlast.MustParse("SELECT name FROM patients WHERE age = 'old'")); cerr != nil {
		t.Fatalf("Check = %v, want nil (unparseable literal is dry-run's problem)", cerr)
	}
}

// --- repair ----------------------------------------------------------

func TestRepairIdentifiers(t *testing.T) {
	c := newCritic(t, Config{Seed: 1})
	cases := []struct {
		in, want string
	}{
		{"SELECT name FROM patiens", "SELECT name FROM patients"},
		{"SELECT nme FROM patients", "SELECT name FROM patients"},
		{"SELECT patients.nme FROM patients", "SELECT patients.name FROM patients"},
		{"SELECT name FROM patients WHERE diagnosi = 'asthma'", "SELECT name FROM patients WHERE diagnosis = 'asthma'"},
		{"SELECT diagnosis, COUNT(*) FROM patients GROUP BY diagnosi", "SELECT diagnosis, COUNT(*) FROM patients GROUP BY diagnosis"},
		{"SELECT name FROM patients ORDER BY age2", "SELECT name FROM patients ORDER BY age ASC"},
	}
	for _, tc := range cases {
		q := sqlast.MustParse(tc.in)
		rq, rules, changed := c.Repair(q)
		if !changed {
			t.Errorf("Repair(%q): no change", tc.in)
			continue
		}
		if got := rq.String(); got != tc.want {
			t.Errorf("Repair(%q) = %q (rules %v), want %q", tc.in, got, rules, tc.want)
		}
		if q.String() != sqlast.MustParse(tc.in).String() {
			t.Errorf("Repair(%q) mutated its input", tc.in)
		}
	}
}

func TestRepairLeavesNoiseAlone(t *testing.T) {
	c := newCritic(t, Config{Seed: 1})
	// Nothing in the lexicon is plausibly "xqzw": below the similarity
	// floor the identifier must be left as-is, not invented.
	q := sqlast.MustParse("SELECT xqzw FROM patients")
	rq, _, changed := c.Repair(q)
	if changed {
		t.Fatalf("Repair invented %q out of noise", rq)
	}
}

func TestRepairCoerce(t *testing.T) {
	c := newCritic(t, Config{Seed: 1})
	rq, rules, changed := c.Repair(sqlast.MustParse("SELECT name FROM patients WHERE age > '50'"))
	if !changed || len(rules) != 1 || rules[0] != "coerce" {
		t.Fatalf("rules = %v changed=%v, want [coerce]", rules, changed)
	}
	if got, want := rq.String(), "SELECT name FROM patients WHERE age > 50"; got != want {
		t.Fatalf("repaired = %q, want %q", got, want)
	}
}

func TestRepairGroupBy(t *testing.T) {
	c := newCritic(t, Config{Seed: 1})
	rq, rules, changed := c.Repair(sqlast.MustParse("SELECT diagnosis, COUNT(*) FROM patients"))
	if !changed {
		t.Fatal("no change")
	}
	found := false
	for _, r := range rules {
		if r == "groupby" {
			found = true
		}
	}
	if !found {
		t.Fatalf("rules = %v, want groupby", rules)
	}
	if got, want := rq.String(), "SELECT diagnosis, COUNT(*) FROM patients GROUP BY diagnosis"; got != want {
		t.Fatalf("repaired = %q, want %q", got, want)
	}
}

// Repair is a pure function of (query, schema, seed): two critics with
// the same seed agree byte-for-byte; repeated repair is idempotent on
// the rendered SQL.
func TestRepairDeterministic(t *testing.T) {
	a := newCritic(t, Config{Seed: 42})
	b := newCritic(t, Config{Seed: 42})
	inputs := []string{
		"SELECT nme FROM patiens WHERE ag > '9'",
		"SELECT diagnos, COUNT(*) FROM patients",
		"SELECT patients.nam FROM patients ORDER BY agee",
	}
	for _, sql := range inputs {
		ra, _, _ := a.Repair(sqlast.MustParse(sql))
		rb, _, _ := b.Repair(sqlast.MustParse(sql))
		if ra.String() != rb.String() {
			t.Errorf("Repair(%q) diverged across same-seed critics: %q vs %q", sql, ra, rb)
		}
		again, _, _ := a.Repair(sqlast.MustParse(sql))
		if ra.String() != again.String() {
			t.Errorf("Repair(%q) not stable across calls: %q vs %q", sql, ra, again)
		}
	}
}

// --- review ----------------------------------------------------------

func TestReviewValid(t *testing.T) {
	c := newCritic(t, Config{})
	q := sqlast.MustParse("SELECT name FROM patients WHERE age > 50")
	got, out := c.Review(context.Background(), q)
	if out.Verdict != VerdictValid || got != q {
		t.Fatalf("verdict = %v (q %v), want valid with input returned", out, got)
	}
}

func TestReviewRepaired(t *testing.T) {
	c := newCritic(t, Config{Seed: 1})
	got, out := c.Review(context.Background(), sqlast.MustParse("SELECT nme FROM patiens"))
	if out.Verdict != VerdictRepaired {
		t.Fatalf("verdict = %v, want repaired", out)
	}
	if got == nil || got.String() != "SELECT name FROM patients" {
		t.Fatalf("repaired query = %v", got)
	}
}

func TestReviewInvalid(t *testing.T) {
	c := newCritic(t, Config{Seed: 1})
	got, out := c.Review(context.Background(), sqlast.MustParse("SELECT xqzw FROM patients"))
	if out.Verdict != VerdictInvalid || got != nil {
		t.Fatalf("verdict = %v (q %v), want invalid and nil", out, got)
	}
}

func TestReviewExecFailed(t *testing.T) {
	c := newCritic(t, Config{Seed: 1})
	// Statically sound, but the engine rejects the unresolved constant
	// placeholder at execution time.
	got, out := c.Review(context.Background(), sqlast.MustParse("SELECT name FROM patients WHERE age > @PATIENTS.AGE"))
	if out.Verdict != VerdictExecFailed || got != nil {
		t.Fatalf("verdict = %v (q %v), want exec_failed and nil", out, got)
	}
	if out.Err == nil || out.Err.Infra() {
		t.Fatalf("Err = %v, want a non-infra engine error", out.Err)
	}
	if engine.ErrKindOf(out.Err.Err) != engine.ErrPlaceholder {
		t.Fatalf("engine kind = %v, want placeholder", engine.ErrKindOf(out.Err.Err))
	}
}

// A row-budget abort on a LIMIT-less query gets an injected LIMIT; when
// that brings the scan inside the budget the candidate survives as
// repaired("limit").
func TestReviewLimitInjection(t *testing.T) {
	s := &schema.Schema{
		Name: "wide",
		Tables: []*schema.Table{
			{Name: "events", Columns: []*schema.Column{
				{Name: "id", Type: schema.Number, PrimaryKey: true},
			}},
		},
	}
	db := engine.NewDatabase(s)
	for i := 0; i < 1500; i++ {
		if err := db.Insert("events", engine.Row{engine.Num(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	c := New(db, Config{RowBudget: 1200})
	got, out := c.Review(context.Background(), sqlast.MustParse("SELECT id FROM events"))
	if out.Verdict != VerdictRepaired || len(out.Repairs) != 1 || out.Repairs[0] != "limit" {
		t.Fatalf("outcome = %v, want repaired(limit)", out)
	}
	if got == nil || got.Limit != 1000 {
		t.Fatalf("repaired query = %v, want LIMIT 1000", got)
	}
}

// When even the injected LIMIT cannot fit the budget, the budget abort
// proves nothing about the candidate: it passes through unverified
// rather than being rejected.
func TestReviewRowBudgetPassesUnverified(t *testing.T) {
	c := newCritic(t, Config{RowBudget: 2})
	q := sqlast.MustParse("SELECT name FROM patients")
	got, out := c.Review(context.Background(), q)
	if out.Verdict != VerdictValid || got != q {
		t.Fatalf("outcome = %v (q %v), want valid pass-through", out, got)
	}
	if !strings.Contains(out.Detail, "unverified") {
		t.Fatalf("Detail = %q, want an unverified note", out.Detail)
	}
	if !strings.Contains(out.String(), "unverified") {
		t.Fatalf("String() = %q, want the unverified note rendered", out.String())
	}
}

func TestSnapshotCounters(t *testing.T) {
	c := newCritic(t, Config{Seed: 1})
	ctx := context.Background()
	c.Review(ctx, sqlast.MustParse("SELECT name FROM patients"))                           // valid
	c.Review(ctx, sqlast.MustParse("SELECT nme FROM patiens"))                             // repaired
	c.Review(ctx, sqlast.MustParse("SELECT xqzw FROM patients"))                           // invalid -> rejected
	c.Review(ctx, sqlast.MustParse("SELECT name FROM patients WHERE age > @PATIENTS.AGE")) // exec_failed -> rejected
	got := c.Snapshot()
	want := Stats{Reviewed: 4, Valid: 1, Repaired: 1, Rejected: 2}
	if got != want {
		t.Fatalf("Snapshot = %+v, want %+v", got, want)
	}
}

// TestJaccard pins the bigram Jaccard index the repair step ranks
// lexicon entries by, edge cases included: the empty string, single
// runes, identical strings, and strings with equal bigram sets.
func TestJaccard(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"", "", 1},
		{"a", "", 0},
		{"", "a", 0},
		{"a", "a", 1},
		{"a", "b", 0},
		{"a", "ab", 0},
		{"abc", "abc", 1},
		{"abc", "xyz", 0},
		{"aaaa", "aa", 1}, // same bigram set {aa}
		{"ab", "ba", 0},
		{"male", "female", 3.0 / 5},
		{"influenza", "influenzas", 8.0 / 9},
		{"café", "cafe", 2.0 / 4},
	}
	for _, c := range cases {
		if got := Jaccard(c.a, c.b); got != c.want {
			t.Errorf("Jaccard(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := Jaccard(c.b, c.a); got != c.want {
			t.Errorf("Jaccard(%q, %q) = %v, want %v (symmetry)", c.b, c.a, got, c.want)
		}
	}
}
