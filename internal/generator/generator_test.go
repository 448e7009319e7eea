package generator

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/templates"
)

func hospitalSchema() *schema.Schema {
	return &schema.Schema{
		Name: "hospital",
		Tables: []*schema.Table{
			{Name: "patients", Readable: "patient", Columns: []*schema.Column{
				{Name: "id", Type: schema.Number, PrimaryKey: true},
				{Name: "name", Type: schema.Text},
				{Name: "age", Type: schema.Number, Domain: schema.DomainAge},
				{Name: "diagnosis", Type: schema.Text},
				{Name: "length_of_stay", Type: schema.Number, Readable: "length of stay", Domain: schema.DomainDuration},
			}},
			{Name: "doctors", Readable: "doctor", Columns: []*schema.Column{
				{Name: "id", Type: schema.Number, PrimaryKey: true},
				{Name: "name", Type: schema.Text},
				{Name: "specialty", Type: schema.Text},
			}},
			{Name: "visits", Readable: "visit", Columns: []*schema.Column{
				{Name: "id", Type: schema.Number, PrimaryKey: true},
				{Name: "patient_id", Type: schema.Number},
				{Name: "doctor_id", Type: schema.Number},
				{Name: "cost", Type: schema.Number, Domain: schema.DomainMoney},
			}},
		},
		ForeignKeys: []schema.ForeignKey{
			{FromTable: "visits", FromColumn: "patient_id", ToTable: "patients", ToColumn: "id"},
			{FromTable: "visits", FromColumn: "doctor_id", ToTable: "doctors", ToColumn: "id"},
		},
	}
}

func TestGenerateAllSQLParses(t *testing.T) {
	g := New(hospitalSchema(), DefaultParams(), 42)
	pairs := g.Generate()
	if len(pairs) < 500 {
		t.Fatalf("too few pairs: %d", len(pairs))
	}
	for _, p := range pairs {
		if _, err := sqlast.Parse(p.SQL); err != nil {
			t.Fatalf("unparsable SQL %q from template %s: %v", p.SQL, p.TemplateID, err)
		}
		if strings.Contains(p.NL, "{") || strings.Contains(p.SQL, "{") {
			t.Fatalf("unresolved slot in pair %+v", p)
		}
		if strings.TrimSpace(p.NL) == "" {
			t.Fatalf("empty NL for template %s", p.TemplateID)
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a := New(hospitalSchema(), DefaultParams(), 42).Generate()
	b := New(hospitalSchema(), DefaultParams(), 42).Generate()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pair %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := New(hospitalSchema(), DefaultParams(), 43).Generate()
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds should produce different corpora")
	}
}

func TestGenerateBalanced(t *testing.T) {
	p := DefaultParams()
	p.SizeSlotFills = 5
	g := New(hospitalSchema(), p, 1)
	pairs := g.Generate()
	perTemplate := map[string]int{}
	for _, pr := range pairs {
		perTemplate[pr.TemplateID]++
	}
	// Budget per template = sizeSlotFills * numNLVariants (boosts are
	// 1.0 by default); the GROUP BY promotion can add nothing beyond
	// that. No template may exceed its budget.
	byID := map[string]templates.Template{}
	for _, tpl := range templates.All() {
		byID[tpl.ID] = tpl
	}
	for id, n := range perTemplate {
		tpl := byID[id]
		budget := p.SizeSlotFills * len(tpl.NL)
		if n > budget {
			t.Errorf("template %s produced %d instances, budget %d", id, n, budget)
		}
	}
}

func TestClassBoosts(t *testing.T) {
	low := DefaultParams()
	low.NestBoost = 0.25
	high := DefaultParams()
	high.NestBoost = 2.0
	count := func(p Params) int {
		n := 0
		for _, pr := range New(hospitalSchema(), p, 5).Generate() {
			if pr.Class == templates.CNested {
				n++
			}
		}
		return n
	}
	if count(low) >= count(high) {
		t.Fatalf("nestBoost should scale nested instances: low=%d high=%d", count(low), count(high))
	}
}

func TestGroupByPromotion(t *testing.T) {
	off := DefaultParams()
	off.GroupByP = 0
	on := DefaultParams()
	on.GroupByP = 1.0
	countPromoted := func(p Params) int {
		n := 0
		for _, pr := range New(hospitalSchema(), p, 5).Generate() {
			if pr.Class == templates.CAgg && strings.Contains(pr.SQL, "GROUP BY") {
				n++
			}
		}
		return n
	}
	if countPromoted(off) != 0 {
		t.Fatal("groupByP=0 must not promote")
	}
	if countPromoted(on) == 0 {
		t.Fatal("groupByP=1 should promote aggregate instances")
	}
}

func TestSizeTablesLimitsJoins(t *testing.T) {
	// With sizeTables=2 only directly connected pairs join; the
	// hospital graph connects patients-doctors only through visits, so
	// pairs between patients and doctors need sizeTables>=3.
	narrow := DefaultParams()
	narrow.SizeTables = 2
	joins := map[string]bool{}
	for _, pr := range New(hospitalSchema(), narrow, 3).Generate() {
		if pr.Class == templates.CJoin {
			q := sqlast.MustParse(pr.SQL)
			for _, c := range q.Columns() {
				if c.Table != "" {
					joins[strings.ToLower(c.Table)] = true
				}
			}
		}
	}
	// patients+doctors two-hop pairs are excluded at sizeTables=2 only
	// if every join instance touches visits.
	if joins["patients"] && joins["doctors"] {
		// Verify no single pair has patients and doctors without
		// visits: regenerate and inspect pairwise.
		for _, pr := range New(hospitalSchema(), narrow, 3).Generate() {
			if pr.Class != templates.CJoin {
				continue
			}
			q := sqlast.MustParse(pr.SQL)
			tables := map[string]bool{}
			for _, c := range q.Columns() {
				if c.Table != "" {
					tables[strings.ToLower(c.Table)] = true
				}
			}
			if tables["patients"] && tables["doctors"] {
				t.Fatalf("two-hop join generated at sizeTables=2: %s", pr.SQL)
			}
		}
	}
}

func TestPlaceholdersWellFormed(t *testing.T) {
	s := hospitalSchema()
	for _, pr := range New(s, DefaultParams(), 8).Generate() {
		q := sqlast.MustParse(pr.SQL)
		sqlast.WalkQueries(q, func(sub *sqlast.Query) {
			for _, e := range sqlast.Conjuncts(sub.Where) {
				cmp, ok := e.(sqlast.Comparison)
				if !ok {
					continue
				}
				ph, ok := cmp.Right.(sqlast.Placeholder)
				if !ok {
					continue
				}
				parts := strings.SplitN(ph.Name, ".", 2)
				if len(parts) != 2 {
					t.Fatalf("placeholder %q not TABLE.COL", ph.Name)
				}
				if s.Column(parts[0], parts[1]) == nil {
					t.Fatalf("placeholder %q references unknown column", ph.Name)
				}
			}
		})
		// NL side must mention the same placeholder tokens.
		for _, tok := range strings.Fields(pr.SQL) {
			if strings.HasPrefix(tok, "@") && !strings.EqualFold(tok, "@JOIN") {
				if !strings.Contains(pr.NL, strings.TrimRight(tok, ")")) {
					t.Fatalf("SQL placeholder %s missing from NL %q", tok, pr.NL)
				}
			}
		}
	}
}

func TestPluralize(t *testing.T) {
	cases := map[string]string{
		"patient": "patients", "city": "cities", "boy": "boys",
		"class": "classes", "box": "boxes", "dish": "dishes",
		"match": "matches", "": "", "person": "people",
	}
	for in, want := range cases {
		if got := Pluralize(in); got != want {
			t.Errorf("Pluralize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSingleTableSchema(t *testing.T) {
	s := &schema.Schema{
		Name: "solo",
		Tables: []*schema.Table{
			{Name: "items", Readable: "item", Columns: []*schema.Column{
				{Name: "id", Type: schema.Number, PrimaryKey: true},
				{Name: "name", Type: schema.Text},
				{Name: "price", Type: schema.Number},
				{Name: "weight", Type: schema.Number},
			}},
		},
	}
	pairs := New(s, DefaultParams(), 2).Generate()
	if len(pairs) == 0 {
		t.Fatal("single-table schema should still generate pairs")
	}
	for _, pr := range pairs {
		if pr.Class == templates.CJoin {
			t.Fatalf("join pair generated for single-table schema: %s", pr.SQL)
		}
	}
}

// Property: generation is schema-closed — every table mentioned in the
// SQL exists in the schema.
func TestGenerateSchemaClosedQuick(t *testing.T) {
	s := hospitalSchema()
	pairs := New(s, DefaultParams(), 10).Generate()
	f := func(i uint16) bool {
		pr := pairs[int(i)%len(pairs)]
		q, err := sqlast.Parse(pr.SQL)
		if err != nil {
			return false
		}
		ok := true
		sqlast.WalkQueries(q, func(sub *sqlast.Query) {
			for _, tn := range sub.From.Tables {
				if s.Table(tn) == nil {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
