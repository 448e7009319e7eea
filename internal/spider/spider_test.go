package spider

import (
	"strings"
	"testing"

	"repro/internal/sqlast"
	"repro/internal/tokens"
)

func TestZooValid(t *testing.T) {
	if len(AllSchemas()) < 14 {
		t.Fatalf("schema zoo too small: %d", len(AllSchemas()))
	}
	names := map[string]bool{}
	for _, s := range AllSchemas() {
		if err := s.Validate(); err != nil {
			t.Errorf("schema %s invalid: %v", s.Name, err)
		}
		if names[s.Name] {
			t.Errorf("duplicate schema name %s", s.Name)
		}
		names[s.Name] = true
		if !s.Connected() {
			t.Errorf("schema %s is not join-connected", s.Name)
		}
	}
}

func TestSplitsDisjoint(t *testing.T) {
	train := map[string]bool{}
	for _, s := range TrainSchemas() {
		train[s.Name] = true
	}
	for _, s := range TestSchemas() {
		if train[s.Name] {
			t.Fatalf("schema %s appears in both splits", s.Name)
		}
	}
	if SchemaByName("geo") == nil {
		t.Fatal("geo schema missing")
	}
	geoInTest := false
	for _, s := range TestSchemas() {
		if s.Name == "geo" {
			geoInTest = true
		}
	}
	if !geoInTest {
		t.Fatal("geo must be a test-split schema (hyperopt tuning workload)")
	}
}

func TestBuildShape(t *testing.T) {
	d := Build(DefaultConfig())
	if len(d.Train) < 900 || len(d.Test) < 250 {
		t.Fatalf("dataset too small: train=%d test=%d", len(d.Train), len(d.Test))
	}
	for _, q := range append(append([]Question{}, d.Train...), d.Test...) {
		if _, err := sqlast.Parse(q.SQL); err != nil {
			t.Fatalf("unparsable gold SQL %q: %v", q.SQL, err)
		}
		if strings.TrimSpace(q.NL) == "" {
			t.Fatalf("empty NL for %q", q.SQL)
		}
	}
}

func TestBuildDeterminism(t *testing.T) {
	a := Build(DefaultConfig())
	b := Build(DefaultConfig())
	if len(a.Train) != len(b.Train) || len(a.Test) != len(b.Test) {
		t.Fatal("nondeterministic sizes")
	}
	for i := range a.Train {
		if a.Train[i] != b.Train[i] {
			t.Fatalf("train question %d differs", i)
		}
	}
}

func TestDifficultyCoverage(t *testing.T) {
	d := Build(DefaultConfig())
	for _, split := range [][]Question{d.Train, d.Test} {
		st := map[sqlast.Difficulty]int{}
		for _, q := range split {
			st[q.Difficulty]++
		}
		for _, diff := range sqlast.Difficulties {
			if st[diff] == 0 {
				t.Errorf("difficulty %s missing from a split", diff)
			}
		}
	}
}

func TestTestOnlyKindsAbsentFromTrain(t *testing.T) {
	d := Build(DefaultConfig())
	testOnly := map[string]bool{}
	for _, k := range testOnlyKinds {
		testOnly[k] = true
	}
	for _, q := range d.Train {
		if testOnly[q.Kind] {
			t.Fatalf("test-only kind %s leaked into training split", q.Kind)
		}
	}
	found := map[string]bool{}
	for _, q := range d.Test {
		found[q.Kind] = true
	}
	for _, k := range testOnlyKinds {
		if !found[k] {
			t.Errorf("test-only kind %s never sampled", k)
		}
	}
}

func TestPlaceholdersConsistent(t *testing.T) {
	// Every placeholder in the SQL must appear in the NL (the paper's
	// pre-anonymized evaluation setup).
	d := Build(Config{TrainPerSchema: 40, TestPerSchema: 40, Seed: 5})
	check := func(qs []Question) {
		for _, q := range qs {
			nlPH := map[string]bool{}
			for _, tok := range tokens.Tokenize(q.NL) {
				if tokens.IsPlaceholder(tok) {
					nlPH[tok] = true
				}
			}
			parsed := sqlast.MustParse(q.SQL)
			sqlast.WalkQueries(parsed, func(sub *sqlast.Query) {
				for _, e := range sqlast.Conjuncts(sub.Where) {
					if cmp, ok := e.(sqlast.Comparison); ok {
						if ph, ok := cmp.Right.(sqlast.Placeholder); ok {
							if !nlPH["@"+strings.ToUpper(ph.Name)] {
								t.Errorf("placeholder @%s in SQL but not NL: %s", ph.Name, q)
							}
						}
					}
				}
			})
		}
	}
	check(d.Train)
	check(d.Test)
}

func TestPhrasingSplitDivergence(t *testing.T) {
	// The test split must use phrasings the training split never does
	// (modeling annotator variance); "enumerate" is test-only.
	d := Build(DefaultConfig())
	for _, q := range d.Train {
		if strings.Contains(" "+q.NL+" ", " enumerate ") {
			t.Fatalf("test-only phrasing leaked into train: %q", q.NL)
		}
	}
	found := false
	for _, q := range d.Test {
		if strings.Contains(" "+q.NL+" ", " enumerate ") {
			found = true
		}
	}
	if !found {
		t.Error("test split never used its extended phrasings")
	}
}

func TestGeoWorkload(t *testing.T) {
	geo := GeoWorkload(100, 9)
	if len(geo) < 80 {
		t.Fatalf("geo workload too small: %d", len(geo))
	}
	for _, q := range geo {
		if q.Schema != "geo" {
			t.Fatalf("geo workload contains schema %s", q.Schema)
		}
	}
}

func TestQueryPatternSet(t *testing.T) {
	d := Build(Config{TrainPerSchema: 50, TestPerSchema: 30, Seed: 3})
	ps := QueryPatternSet(d.Train)
	if len(ps) < 10 {
		t.Fatalf("pattern set too small: %d", len(ps))
	}
	for p := range ps {
		if strings.Contains(p, "patients") {
			t.Fatalf("pattern leaked schema tokens: %q", p)
		}
	}
}
