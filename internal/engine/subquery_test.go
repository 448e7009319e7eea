package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/schema"
	"repro/internal/sqlast"
)

// run executes sql on a fresh executor and returns its result and how
// many environment rows it materialized.
func run(t *testing.T, db *Database, sql string) (*Result, int) {
	t.Helper()
	ex := &executor{db: db}
	res, err := ex.query(sqlast.MustParse(sql))
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res, ex.visited
}

// TestSubqueryRunsOncePerExecution: a scalar, IN or EXISTS subquery is
// evaluated once, not once per outer row, so the rows an execution
// materializes are the outer scan plus the inner scan, not their
// product.
func TestSubqueryRunsOncePerExecution(t *testing.T) {
	db := testDB(t)
	const outer, inner = 4, 3 // patients rows, visits rows
	for _, tc := range []struct {
		sql  string
		rows int
	}{
		{"SELECT name FROM patients WHERE age > (SELECT MAX(cost) FROM visits WHERE cost < 70)", 2},
		{"SELECT name FROM patients WHERE id IN (SELECT patient_id FROM visits)", 2},
		{"SELECT name FROM patients WHERE id NOT IN (SELECT patient_id FROM visits)", 2},
		{"SELECT name FROM patients WHERE EXISTS (SELECT * FROM visits WHERE cost > 250)", 4},
		{"SELECT name FROM patients WHERE NOT EXISTS (SELECT * FROM visits WHERE cost > 250)", 0},
	} {
		res, visited := run(t, db, tc.sql)
		if len(res.Rows) != tc.rows {
			t.Errorf("%s: %d rows, want %d", tc.sql, len(res.Rows), tc.rows)
		}
		if visited != outer+inner {
			t.Errorf("%s: visited %d environment rows, want %d outer + %d inner", tc.sql, visited, outer, inner)
		}
	}
	// Two distinct subqueries each run once; the same text twice is
	// two queries, two scans.
	_, visited := run(t, db, "SELECT name FROM patients WHERE id IN (SELECT patient_id FROM visits) AND age > (SELECT MIN(cost) FROM visits)")
	if visited != outer+2*inner {
		t.Errorf("two subqueries: visited %d, want %d", visited, outer+2*inner)
	}
	// A subquery in HAVING is memoized too.
	_, visited = run(t, db, "SELECT diagnosis, COUNT(*) FROM patients GROUP BY diagnosis HAVING COUNT(*) < (SELECT COUNT(*) FROM visits)")
	if visited != outer+inner {
		t.Errorf("HAVING subquery: visited %d, want %d", visited, outer+inner)
	}
}

// TestSubqueryMemoIsPerExecution: the memo lives on one execution, so
// the next Execute sees the table as it is then.
func TestSubqueryMemoIsPerExecution(t *testing.T) {
	db := testDB(t)
	q := sqlast.MustParse("SELECT name FROM patients WHERE id IN (SELECT patient_id FROM visits)")
	res, err := db.Execute(q)
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("before insert: %v rows, err %v", res, err)
	}
	if err := db.Insert("visits", Row{Num(4), Num(3), Num(10)}); err != nil {
		t.Fatal(err)
	}
	res, err = db.Execute(q)
	if err != nil || len(res.Rows) != 3 {
		t.Fatalf("after insert: %v, err %v; want carol added", res, err)
	}
}

// TestCorrelatedSubqueryStillFails: memoizing assumes uncorrelated
// subqueries, so an outer reference must keep failing to bind.
func TestCorrelatedSubqueryStillFails(t *testing.T) {
	db := testDB(t)
	for _, sql := range []string{
		"SELECT name FROM patients WHERE id IN (SELECT patient_id FROM visits WHERE visits.cost > patients.age)",
		"SELECT name FROM patients WHERE age > (SELECT MAX(cost) FROM visits WHERE visits.patient_id = patients.id)",
		"SELECT name FROM patients WHERE EXISTS (SELECT * FROM visits WHERE visits.patient_id = patients.id)",
	} {
		_, err := db.Execute(sqlast.MustParse(sql))
		if ErrKindOf(err) != ErrUnknownColumn {
			t.Errorf("%s: err %v (kind %v), want %v", sql, err, ErrKindOf(err), ErrUnknownColumn)
		}
	}
}

// TestRowBudgetCountsSubqueryOnce: a budget that the outer × inner
// product would exceed admits a query whose actual scans fit.
func TestRowBudgetCountsSubqueryOnce(t *testing.T) {
	db := testDB(t)
	q := sqlast.MustParse("SELECT name FROM patients WHERE id IN (SELECT patient_id FROM visits)")
	if _, err := db.ExecuteBudget(q, 7); err != nil {
		t.Fatalf("budget 7 = 4 outer + 3 inner rows: %v", err)
	}
	if _, err := db.ExecuteBudget(q, 6); ErrKindOf(err) != ErrRowBudget {
		t.Fatalf("budget 6: err %v, want %v", err, ErrRowBudget)
	}
}

// wideDB has tables a, b and c of n rows each; their cross product
// is far beyond anything a test can enumerate.
func wideDB(t *testing.T, n int) *Database {
	t.Helper()
	s := &schema.Schema{Name: "wide"}
	for _, name := range []string{"a", "b", "c"} {
		s.Tables = append(s.Tables, &schema.Table{Name: name, Columns: []*schema.Column{{Name: "x", Type: schema.Number}}})
	}
	db := NewDatabase(s)
	for _, name := range []string{"a", "b", "c"} {
		for i := 0; i < n; i++ {
			if err := db.Insert(name, Row{Num(float64(i))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// TestExecuteContextStopsRunawayQuery: a cross join of 8e9 rows under
// a 50 ms deadline returns promptly with the deadline error, and
// leaves no goroutine behind.
func TestExecuteContextStopsRunawayQuery(t *testing.T) {
	db := wideDB(t, 2000)
	q := sqlast.MustParse("SELECT COUNT(*) FROM a, b, c")
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := db.ExecuteContext(ctx, q)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the deadline", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("returned after %v; the deadline was 50ms", elapsed)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("goroutines %d after, %d before", n, base)
	}
	// A live context changes nothing.
	small := wideDB(t, 50)
	want, err := small.Execute(sqlast.MustParse("SELECT COUNT(*) FROM a, b"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := small.ExecuteContext(context.Background(), sqlast.MustParse("SELECT COUNT(*) FROM a, b"))
	if err != nil || fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
		t.Fatalf("ExecuteContext = %v, %v; want %v", got, err, want)
	}
}
