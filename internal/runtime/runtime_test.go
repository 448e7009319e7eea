package runtime

import (
	"context"
	"strings"
	"testing"

	"repro/internal/critic"
	"repro/internal/engine"
	"repro/internal/models"
	"repro/internal/patients"
	"repro/internal/schema"
	"repro/internal/sqlast"
)

func benchDB(t *testing.T) *engine.Database {
	t.Helper()
	db, err := patients.Database()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// mustAnon anonymizes a question the test knows to be well-formed.
func mustAnon(t *testing.T, ph *ParameterHandler, question string) *Anonymized {
	t.Helper()
	anon, err := ph.Anonymize(question)
	if err != nil {
		t.Fatalf("Anonymize(%q) = %v", question, err)
	}
	return anon
}

func TestAnonymizeNumber(t *testing.T) {
	ph := NewParameterHandler(benchDB(t))
	anon := mustAnon(t, ph, "show the names of all patients with age 80")
	joined := strings.Join(anon.Tokens, " ")
	if !strings.Contains(joined, "@PATIENTS.AGE") {
		t.Fatalf("age constant not anonymized: %q", joined)
	}
	if len(anon.Bindings) != 1 || anon.Bindings[0].Placeholder != "PATIENTS.AGE" {
		t.Fatalf("bindings = %+v", anon.Bindings)
	}
	if !anon.Bindings[0].Value.IsNum || anon.Bindings[0].Value.Num != 80 {
		t.Fatalf("bound value = %+v", anon.Bindings[0].Value)
	}
}

func TestAnonymizeUnknownNumberStaysLiteral(t *testing.T) {
	ph := NewParameterHandler(benchDB(t))
	anon := mustAnon(t, ph, "show the top 3 patients")
	joined := strings.Join(anon.Tokens, " ")
	if !strings.Contains(joined, "3") {
		t.Fatalf("literal 3 should survive: %q", joined)
	}
	if len(anon.Bindings) != 0 {
		t.Fatalf("no bindings expected, got %+v", anon.Bindings)
	}
}

func TestAnonymizeString(t *testing.T) {
	ph := NewParameterHandler(benchDB(t))
	anon := mustAnon(t, ph, "how many patients have diagnosis influenza")
	joined := strings.Join(anon.Tokens, " ")
	if !strings.Contains(joined, "@PATIENTS.DIAGNOSIS") {
		t.Fatalf("diagnosis constant not anonymized: %q", joined)
	}
	if anon.Bindings[0].Value.Str != "influenza" {
		t.Fatalf("bound value = %+v", anon.Bindings[0].Value)
	}
}

func TestAnonymizeFuzzyString(t *testing.T) {
	// The paper's "New York City" vs "NYC" case: a misspelled constant
	// maps to the most similar database value.
	ph := NewParameterHandler(benchDB(t))
	anon := mustAnon(t, ph, "how many patients have diagnosis influenzas")
	if len(anon.Bindings) != 1 || anon.Bindings[0].Value.Str != "influenza" {
		t.Fatalf("fuzzy match failed: %+v", anon.Bindings)
	}
}

func TestAnonymizeMultiTokenValue(t *testing.T) {
	ph := NewParameterHandler(benchDB(t))
	anon := mustAnon(t, ph, "show the age of the patient whose name is alice johnson")
	joined := strings.Join(anon.Tokens, " ")
	if !strings.Contains(joined, "@PATIENTS.NAME") {
		t.Fatalf("two-token name not anonymized: %q", joined)
	}
	if anon.Bindings[0].Value.Str != "alice johnson" {
		t.Fatalf("bound value = %+v", anon.Bindings[0].Value)
	}
}

func TestAnonymizeSkipsSchemaWords(t *testing.T) {
	ph := NewParameterHandler(benchDB(t))
	anon := mustAnon(t, ph, "show the age and gender of all patients")
	for _, b := range anon.Bindings {
		t.Fatalf("schema words must not bind constants: %+v", b)
	}
}

func TestAnonymizePreAnonymizedPassThrough(t *testing.T) {
	ph := NewParameterHandler(benchDB(t))
	anon := mustAnon(t, ph, "show patients with age @PATIENTS.AGE")
	joined := strings.Join(anon.Tokens, " ")
	if strings.Count(joined, "@PATIENTS.AGE") != 1 {
		t.Fatalf("placeholder pass-through broken: %q", joined)
	}
}

// spanSimilarity is the score the Parameter Handler gives phrase (its
// space-separated tokens, scored as one span) against a database
// whose only text value is value: the character-bigram Jaccard index
// bestTextMatch ranks candidate spans by, read off its inverted index.
func spanSimilarity(t *testing.T, phrase, value string) float64 {
	t.Helper()
	s := &schema.Schema{Name: "one", Tables: []*schema.Table{
		{Name: "t", Columns: []*schema.Column{{Name: "v", Type: schema.Text}}},
	}}
	db := engine.NewDatabase(s)
	if err := db.Insert("t", engine.Row{engine.Str(value)}); err != nil {
		t.Fatal(err)
	}
	ph := NewParameterHandler(db)
	toks := strings.Fields(phrase)
	_, _, sim := ph.bestTextMatch(ph.newSpanIndex(toks), 0, len(toks))
	return sim
}

// TestJaccard holds the span scorer to the bigram Jaccard index: 1
// for identical strings, 0 for disjoint ones, a near match in
// between, and equal to critic.Jaccard of the lower-cased strings.
func TestJaccard(t *testing.T) {
	if spanSimilarity(t, "abc", "abc") != 1 {
		t.Fatal("identical strings = 1")
	}
	if spanSimilarity(t, "abc", "xyz") != 0 {
		t.Fatal("disjoint strings = 0")
	}
	sim := spanSimilarity(t, "influenza", "influenzas")
	if sim <= 0.5 || sim >= 1 {
		t.Fatalf("near-match similarity = %v", sim)
	}
	if spanSimilarity(t, "male", "male") <= spanSimilarity(t, "male", "female") {
		t.Fatal("exact match must beat partial match")
	}
	for _, c := range [][2]string{
		{"abc", "abc"}, {"abc", "xyz"}, {"influenza", "influenzas"},
		{"male", "female"}, {"aaaa", "aa"}, {"ab", "ba"}, {"café", "cafe"},
		{"New York", "new york city"}, {"new york", "New York"},
	} {
		got := spanSimilarity(t, c[0], c[1])
		want := critic.Jaccard(strings.ToLower(c[0]), strings.ToLower(c[1]))
		if got != want {
			t.Errorf("span %q vs value %q = %v, want critic.Jaccard %v", c[0], c[1], got, want)
		}
	}
}

func TestPostProcessRestoresConstants(t *testing.T) {
	db := benchDB(t)
	q := sqlast.MustParse("SELECT name FROM patients WHERE age = @PATIENTS.AGE")
	out, err := PostProcess(q, db.Schema, []Binding{{Placeholder: "PATIENTS.AGE", Value: sqlast.NumValue(80)}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "age = 80") {
		t.Fatalf("constant not restored: %s", out)
	}
}

func TestPostProcessOrderedBindings(t *testing.T) {
	db := benchDB(t)
	q := sqlast.MustParse("SELECT name FROM patients WHERE age BETWEEN @PATIENTS.AGE AND @PATIENTS.AGE")
	out, err := PostProcess(q, db.Schema, []Binding{
		{Placeholder: "PATIENTS.AGE", Value: sqlast.NumValue(29)},
		{Placeholder: "PATIENTS.AGE", Value: sqlast.NumValue(45)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "BETWEEN 29 AND 45") {
		t.Fatalf("ordered restoration broken: %s", out)
	}
}

func TestPostProcessFallbackBinding(t *testing.T) {
	// The model hallucinated a different table for the placeholder;
	// the column-part fallback still restores the right constant.
	db := benchDB(t)
	q := sqlast.MustParse("SELECT name FROM patients WHERE age = @DOCTORS.AGE")
	out, err := PostProcess(q, db.Schema, []Binding{{Placeholder: "PATIENTS.AGE", Value: sqlast.NumValue(80)}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "age = 80") {
		t.Fatalf("fallback restoration broken: %s", out)
	}
}

func TestPostProcessMissingBinding(t *testing.T) {
	db := benchDB(t)
	q := sqlast.MustParse("SELECT name FROM patients WHERE age = @PATIENTS.AGE")
	if _, err := PostProcess(q, db.Schema, nil); err == nil {
		t.Fatal("missing binding should be an error")
	}
}

func TestPostProcessLikeWildcards(t *testing.T) {
	db := benchDB(t)
	q := sqlast.MustParse("SELECT name FROM patients WHERE name LIKE @PATIENTS.NAME")
	out, err := PostProcess(q, db.Schema, []Binding{{Placeholder: "PATIENTS.NAME", Value: sqlast.StrValue("john")}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "'%john%'") {
		t.Fatalf("LIKE wildcards missing: %s", out)
	}
}

// geoSchema tests @JOIN resolution over a multi-table schema.
func geoDB(t *testing.T) *engine.Database {
	t.Helper()
	s := spiderGeo()
	db, err := engine.GenerateData(s, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPostProcessResolvesJoin(t *testing.T) {
	db := geoDB(t)
	q := sqlast.MustParse("SELECT AVG(mountains.height) FROM @JOIN WHERE states.name = @STATES.NAME")
	out, err := PostProcess(q, db.Schema, []Binding{{Placeholder: "STATES.NAME", Value: sqlast.StrValue("vermont")}})
	if err != nil {
		t.Fatal(err)
	}
	if out.From.JoinPlaceholder {
		t.Fatal("@JOIN not resolved")
	}
	s := out.String()
	if !strings.Contains(s, "mountains") || !strings.Contains(s, "states") {
		t.Fatalf("join tables missing: %s", s)
	}
	if !strings.Contains(s, "mountains.state_id = states.id") {
		t.Fatalf("join predicate missing: %s", s)
	}
	if _, err := db.Execute(out); err != nil {
		t.Fatalf("resolved join does not execute: %v", err)
	}
}

func TestPostProcessRepairsFrom(t *testing.T) {
	db := geoDB(t)
	// The model picked the wrong table for a qualified column: the
	// post-processor must add the missing table and the join path.
	q := sqlast.MustParse("SELECT mountains.height FROM states WHERE states.name = 'vermont'")
	out, err := PostProcess(q, db.Schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.From.Tables) < 2 {
		t.Fatalf("FROM not repaired: %s", out)
	}
	if _, err := db.Execute(out); err != nil {
		t.Fatalf("repaired query does not execute: %v", err)
	}
}

func TestPostProcessDropsUnknownTables(t *testing.T) {
	db := geoDB(t)
	q := sqlast.MustParse("SELECT name FROM hallucinated")
	if _, err := PostProcess(q, db.Schema, nil); err == nil {
		t.Fatal("query over only unknown tables with no inferable column owner should fail")
	}
	q2 := sqlast.MustParse("SELECT height FROM hallucinated")
	out, err := PostProcess(q2, db.Schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	// height uniquely belongs to mountains: FROM is replaced.
	if len(out.From.Tables) != 1 || !strings.EqualFold(out.From.Tables[0], "mountains") {
		t.Fatalf("unknown FROM not replaced: %s", out)
	}
}

func TestEndToEndAsk(t *testing.T) {
	db := benchDB(t)
	tr := NewTranslator(db, oracleModel{db: db})
	res, q, err := tr.Ask(context.Background(), "show the names of all patients with age 80")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.String(), "80") {
		t.Fatalf("constant missing from final SQL: %s", q)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("expected 3 patients aged 80, got %d", len(res.Rows))
	}
}

// oracleModel is a fixed fake translator used to test the runtime
// plumbing in isolation from model quality.
type oracleModel struct {
	db *engine.Database
}

func (oracleModel) Name() string           { return "oracle" }
func (oracleModel) Train([]models.Example) {}

func (oracleModel) Translate(nl, schemaToks []string) []string {
	return strings.Fields("SELECT name FROM patients WHERE age = @PATIENTS.AGE")
}

// spiderGeo is a local copy of the geo schema shape used by the join
// post-processing tests.
func spiderGeo() *schema.Schema {
	return &schema.Schema{
		Name: "geo",
		Tables: []*schema.Table{
			{Name: "states", Readable: "state", Columns: []*schema.Column{
				{Name: "id", Type: schema.Number, PrimaryKey: true},
				{Name: "name", Type: schema.Text},
				{Name: "area", Type: schema.Number, Domain: schema.DomainArea},
			}},
			{Name: "mountains", Readable: "mountain", Columns: []*schema.Column{
				{Name: "id", Type: schema.Number, PrimaryKey: true},
				{Name: "name", Type: schema.Text},
				{Name: "height", Type: schema.Number, Domain: schema.DomainHeight},
				{Name: "state_id", Type: schema.Number},
			}},
		},
		ForeignKeys: []schema.ForeignKey{
			{FromTable: "mountains", FromColumn: "state_id", ToTable: "states", ToColumn: "id"},
		},
	}
}

func TestTraceRendering(t *testing.T) {
	db := benchDB(t)
	tr := NewTranslator(db, oracleModel{})
	_, trace, err := tr.Translate(context.Background(), "show the names of all patients with age 80")
	if err != nil {
		t.Fatal(err)
	}
	out := trace.String()
	for _, want := range []string{"question:", "anonymized:", "@PATIENTS.AGE", "lemmatized:", "model out:", "final SQL:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out)
		}
	}
}

// TestJaccardEdgeCases pins the scorer at its smallest inputs. A
// span is never empty (tokens are not), so the empty side that can
// occur is an empty database value, which shares no bigram with any
// span; critic's TestJaccard pins Jaccard("", "") itself.
func TestJaccardEdgeCases(t *testing.T) {
	if spanSimilarity(t, "a", "") != 0 {
		t.Fatal("empty vs non-empty = 0")
	}
	if spanSimilarity(t, "a", "a") != 1 {
		t.Fatal("single identical runes = 1")
	}
	if spanSimilarity(t, "a", "b") != 0 {
		t.Fatal("distinct single runes = 0")
	}
	if spanSimilarity(t, "a", "ab") != 0 {
		t.Fatal("a single rune shares no bigram with a pair")
	}
	if spanSimilarity(t, "A", "a") != 1 {
		t.Fatal("spans are scored lower-cased")
	}
}

func TestAnonymizeTopKWords(t *testing.T) {
	ph := NewParameterHandler(benchDB(t))
	// "3" exists in length_of_stay, but after "top" it stays literal.
	anon := mustAnon(t, ph, "show the top 3 patients by age")
	if len(anon.Bindings) != 0 {
		t.Fatalf("top-k number bound as constant: %+v", anon.Bindings)
	}
	// Without the top-k cue it binds.
	anon2 := mustAnon(t, ph, "show patients with length of stay 3")
	if len(anon2.Bindings) != 1 {
		t.Fatalf("plain constant not bound: %+v", anon2.Bindings)
	}
}
