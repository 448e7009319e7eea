package patients

import (
	"strings"
	"testing"

	"repro/internal/sqlast"
)

func TestBenchmarkStructure(t *testing.T) {
	cs := Cases()
	if len(cs) != 399 {
		t.Fatalf("benchmark must have 399 cases (57 per 7 categories), got %d", len(cs))
	}
	if len(queries) != 57 {
		t.Fatalf("base queries = %d, want 57", len(queries))
	}
	perCat := map[Category]int{}
	for _, c := range cs {
		perCat[c.Category]++
	}
	for _, cat := range Categories {
		if perCat[cat] != 57 {
			t.Errorf("category %s has %d cases, want 57", cat, perCat[cat])
		}
	}
}

func TestGoldSQLExecutes(t *testing.T) {
	db, err := Database()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		res, err := db.Execute(sqlast.MustParse(q.SQL))
		if err != nil {
			t.Errorf("%s: gold SQL %q fails: %v", q.ID, q.SQL, err)
			continue
		}
		_ = res
	}
}

// Execution-based scoring only discriminates when gold results are
// non-empty for filtering queries; verify the curated data covers the
// constants used.
func TestGoldResultsNonEmpty(t *testing.T) {
	db, err := Database()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		parsed := sqlast.MustParse(q.SQL)
		res, err := db.Execute(parsed)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) == 0 {
			t.Errorf("%s: gold result empty; benchmark data must cover %q", q.ID, q.SQL)
		}
	}
}

func TestCaseIDsUniqueAndComplete(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Cases() {
		if c.NL == "" {
			t.Fatalf("case %s has empty NL", c.ID)
		}
		if seen[c.ID] {
			t.Fatalf("duplicate case id %s", c.ID)
		}
		seen[c.ID] = true
	}
}

func TestSchemaValid(t *testing.T) {
	if err := Schema().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCategoryNLsDiffer(t *testing.T) {
	// Each base query's seven renderings must be distinct phrasings.
	for _, q := range queries {
		seen := map[string]bool{}
		for _, nl := range q.NL {
			if seen[nl] {
				t.Errorf("%s repeats NL %q across categories", q.ID, nl)
			}
			seen[nl] = true
		}
	}
}

func TestMissingCategoryIsShorterOrImplicit(t *testing.T) {
	// The missing-information rendering should not mention the
	// attribute more explicitly than the naive one; as a proxy, it
	// must not be longer than the naive rendering.
	for _, q := range queries {
		naive := len(strings.Fields(q.NL[Naive]))
		missing := len(strings.Fields(q.NL[Missing]))
		if missing > naive {
			t.Errorf("%s: missing rendering longer than naive (%d > %d words)", q.ID, missing, naive)
		}
	}
}

func TestNumericConstantsUnambiguous(t *testing.T) {
	// Numeric constants in gold SQL must be attributable to exactly
	// one column by the parameter handler's value index (age vs
	// length_of_stay). Collect the value sets.
	db, err := Database()
	if err != nil {
		t.Fatal(err)
	}
	ages := map[float64]bool{}
	for _, v := range db.DistinctValues("patients", "age") {
		ages[v.Num] = true
	}
	stays := map[float64]bool{}
	for _, v := range db.DistinctValues("patients", "length_of_stay") {
		stays[v.Num] = true
	}
	for _, q := range queries {
		parsed := sqlast.MustParse(q.SQL)
		sqlast.WalkQueries(parsed, func(sub *sqlast.Query) {
			for _, e := range sqlast.Conjuncts(sub.Where) {
				cmp, ok := e.(sqlast.Comparison)
				if !ok {
					continue
				}
				v, ok := cmp.Right.(sqlast.Value)
				if !ok || !v.IsNum {
					continue
				}
				col := strings.ToLower(cmp.Left.Column)
				if col == "age" && stays[v.Num] {
					t.Errorf("%s: age constant %v also occurs in length_of_stay", q.ID, v.Num)
				}
				if col == "length_of_stay" && ages[v.Num] {
					t.Errorf("%s: stay constant %v also occurs in age", q.ID, v.Num)
				}
			}
		})
	}
}
