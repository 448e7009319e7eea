package models

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/patients"
	"repro/internal/schema"
	"repro/internal/spider"
	"repro/internal/sqlast"
	"repro/internal/tokens"
)

func patientsSchema() *schema.Schema {
	return &schema.Schema{
		Name: "hospital",
		Tables: []*schema.Table{
			{Name: "patients", Readable: "patient", Columns: []*schema.Column{
				{Name: "id", Type: schema.Number, PrimaryKey: true},
				{Name: "name", Type: schema.Text},
				{Name: "age", Type: schema.Number, Domain: schema.DomainAge},
				{Name: "diagnosis", Type: schema.Text},
			}},
		},
	}
}

func TestSchemaTokens(t *testing.T) {
	toks := SchemaTokens(patientsSchema())
	want := []string{"patients", "name", "patients.name", "@PATIENTS.NAME", "@JOIN"}
	for _, w := range want {
		found := false
		for _, tok := range toks {
			if tok == w {
				found = true
			}
		}
		if !found {
			t.Errorf("SchemaTokens missing %q: %v", w, toks)
		}
	}
	// No duplicates.
	seen := map[string]bool{}
	for _, tok := range toks {
		if seen[tok] {
			t.Fatalf("duplicate schema token %q", tok)
		}
		seen[tok] = true
	}
}

func TestNormalizeSQLTokens(t *testing.T) {
	in := []string{"select", "Name", "FROM", "Patients", "WHERE", "AGE", "=", "@patients.age"}
	got := NormalizeSQLTokens(in)
	want := []string{"SELECT", "name", "FROM", "patients", "WHERE", "age", "=", "@PATIENTS.AGE"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("normalize = %v", got)
	}
}

func TestPairExamples(t *testing.T) {
	s := patientsSchema()
	pairs := []core.Pair{
		{NL: "show the name of patient with age @PATIENTS.AGE", SQL: "SELECT name FROM patients WHERE age = @PATIENTS.AGE"},
		{NL: "broken sql", SQL: "NOT VALID SQL"},
	}
	exs := PairExamples(pairs, s)
	if len(exs) != 1 {
		t.Fatalf("invalid SQL should be skipped, got %d examples", len(exs))
	}
	ex := exs[0]
	if ex.NL[len(ex.NL)-1] != "@PATIENTS.AGE" {
		t.Fatalf("NL tokens = %v", ex.NL)
	}
	if ex.SQL[0] != "SELECT" || ex.SQL[len(ex.SQL)-1] != "@PATIENTS.AGE" {
		t.Fatalf("SQL tokens = %v", ex.SQL)
	}
	if len(ex.Schema) == 0 {
		t.Fatal("schema context missing")
	}
}

// TestPairExamplesSharesParsedSQL: the memoized conversion gives the
// examples a per-pair parse gives, on Patients and on a Spider-zoo
// schema, with unparseable SQL (seen twice) skipped both times, and
// every example with the same SQL string shares one token array.
func TestPairExamplesSharesParsedSQL(t *testing.T) {
	for _, s := range []*schema.Schema{patients.Schema(), spider.AllSchemas()[0]} {
		pairs := core.New(s, core.DefaultParams(), 1).Run()
		bad := core.Pair{NL: "broken sql", SQL: "NOT VALID SQL"}
		pairs = append(append([]core.Pair{bad}, pairs...), bad)
		st := SchemaTokens(s)
		var want []Example
		var sqls []string // the SQL string of each kept pair
		for _, p := range pairs {
			q, err := sqlast.Parse(p.SQL)
			if err != nil {
				continue
			}
			want = append(want, Example{NL: tokens.Tokenize(p.NL), SQL: NormalizeSQLTokens(q.Tokens()), Schema: st})
			sqls = append(sqls, p.SQL)
		}
		got := PairExamples(pairs, s)
		if len(want) != len(pairs)-2 {
			t.Fatalf("%s: the reference kept %d of %d pairs", s.Name, len(want), len(pairs))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: memoized examples differ from the per-pair conversion", s.Name)
		}
		first := map[string]*string{}
		for i, sql := range sqls {
			p := &got[i].SQL[0]
			if f, ok := first[sql]; !ok {
				first[sql] = p
			} else if f != p {
				t.Fatalf("%s: examples with SQL %q do not share one token array", s.Name, sql)
			}
		}
		t.Logf("%s: %d examples, %d distinct SQL strings", s.Name, len(got), len(first))
	}
}

// BenchmarkPairExamples times converting the Patients corpus's pairs
// into examples, which dbpal-train and every server boot do once:
//
//	go test -run '^$' -bench BenchmarkPairExamples -benchmem ./internal/models/
func BenchmarkPairExamples(b *testing.B) {
	s := patients.Schema()
	pairs := core.New(s, core.DefaultParams(), 1).Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PairExamples(pairs, s)
	}
}

func TestInputSequence(t *testing.T) {
	seq := InputSequence([]string{"a", "b"}, []string{"t", "c"})
	want := []string{"a", "b", tokens.SepToken, "t", "c"}
	if !reflect.DeepEqual(seq, want) {
		t.Fatalf("InputSequence = %v", seq)
	}
}

func trainingExamples() []Example {
	st := []string{"patients", "name", "age", "diagnosis", "patients.name", "patients.age",
		"patients.diagnosis", "@PATIENTS.AGE", "@PATIENTS.DIAGNOSIS", "@JOIN"}
	return []Example{
		{NL: strings.Fields("show the name of patient with age @PATIENTS.AGE"), SQL: strings.Fields("SELECT name FROM patients WHERE age = @PATIENTS.AGE"), Schema: st},
		{NL: strings.Fields("show the diagnosis of patient with age @PATIENTS.AGE"), SQL: strings.Fields("SELECT diagnosis FROM patients WHERE age = @PATIENTS.AGE"), Schema: st},
		{NL: strings.Fields("how many patient be there"), SQL: strings.Fields("SELECT COUNT ( * ) FROM patients"), Schema: st},
		{NL: strings.Fields("what be the average age of patient"), SQL: strings.Fields("SELECT AVG ( age ) FROM patients"), Schema: st},
		{NL: strings.Fields("list patient with diagnosis @PATIENTS.DIAGNOSIS"), SQL: strings.Fields("SELECT * FROM patients WHERE diagnosis = @PATIENTS.DIAGNOSIS"), Schema: st},
	}
}

func TestSeq2SeqOverfitSmall(t *testing.T) {
	cfg := DefaultSeq2SeqConfig()
	cfg.Epochs = 150
	cfg.EmbDim = 24
	cfg.HidDim = 48
	m := NewSeq2Seq(cfg)
	exs := trainingExamples()
	m.Train(exs)
	for _, ex := range exs {
		got := strings.Join(m.Translate(ex.NL, ex.Schema), " ")
		want := strings.Join(ex.SQL, " ")
		if got != want {
			t.Fatalf("seq2seq failed to overfit %v: got %q want %q", ex.NL, got, want)
		}
	}
	if m.NumParams() == 0 {
		t.Fatal("NumParams should be positive after training")
	}
}

func TestSeq2SeqCopiesUnseenSchemaTokens(t *testing.T) {
	cfg := DefaultSeq2SeqConfig()
	cfg.Epochs = 200
	cfg.EmbDim = 24
	cfg.HidDim = 48
	m := NewSeq2Seq(cfg)
	m.Train(trainingExamples())
	// A schema never seen in training: the copy mechanism must emit
	// its tokens.
	st := []string{"ships", "label", "tonnage", "ships.label", "ships.tonnage", "@SHIPS.TONNAGE", "@JOIN"}
	out := m.Translate(strings.Fields("show the label of ship with tonnage @SHIPS.TONNAGE"), st)
	joined := strings.Join(out, " ")
	// "tonnage" and "@SHIPS.TONNAGE" are out-of-vocabulary: only the
	// copy mechanism can emit them. (Five training examples are not
	// enough for reliable table selection, so we assert copying, not
	// full correctness — the experiments cover the latter at scale.)
	if !strings.Contains(joined, "tonnage") {
		t.Fatalf("expected copied OOV token in %q", joined)
	}
}

func TestSeq2SeqUntrained(t *testing.T) {
	m := NewSeq2Seq(DefaultSeq2SeqConfig())
	if out := m.Translate([]string{"x"}, []string{"t"}); out != nil {
		t.Fatalf("untrained model should return nil, got %v", out)
	}
}

func TestSeq2SeqPersistence(t *testing.T) {
	cfg := DefaultSeq2SeqConfig()
	cfg.Epochs = 60
	cfg.EmbDim = 16
	cfg.HidDim = 24
	m := NewSeq2Seq(cfg)
	exs := trainingExamples()
	m.Train(exs)

	var buf bytes.Buffer
	if err := m.SaveFull(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadSeq2Seq(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range exs {
		a := strings.Join(m.Translate(ex.NL, ex.Schema), " ")
		b := strings.Join(m2.Translate(ex.NL, ex.Schema), " ")
		if a != b {
			t.Fatalf("restored model differs: %q vs %q", a, b)
		}
	}
}

func TestSketchPersistence(t *testing.T) {
	cfg := DefaultSketchConfig()
	cfg.Epochs = 40
	m := NewSketch(cfg)
	exs := trainingExamples()
	m.Train(exs)

	var buf bytes.Buffer
	if err := m.SaveFull(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadSketch(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.NumSketches() != m.NumSketches() {
		t.Fatalf("sketch inventory differs: %d vs %d", m2.NumSketches(), m.NumSketches())
	}
	for _, ex := range exs {
		a := strings.Join(m.Translate(ex.NL, ex.Schema), " ")
		b := strings.Join(m2.Translate(ex.NL, ex.Schema), " ")
		if a != b {
			t.Fatalf("restored sketch model differs: %q vs %q", a, b)
		}
	}
}

func TestSaveUntrainedFails(t *testing.T) {
	var buf bytes.Buffer
	if err := NewSeq2Seq(DefaultSeq2SeqConfig()).SaveFull(&buf); err == nil {
		t.Fatal("saving an untrained seq2seq should fail")
	}
	if err := NewSketch(DefaultSketchConfig()).SaveFull(&buf); err == nil {
		t.Fatal("saving an untrained sketch should fail")
	}
}

func TestSketchUnseenSchemaUsesLinking(t *testing.T) {
	cfg := DefaultSketchConfig()
	cfg.Epochs = 60
	m := NewSketch(cfg)
	m.Train(trainingExamples())
	// Unseen schema; the linking features should pick the mentioned
	// column.
	st := []string{"ships", "label", "tonnage", "ships.label", "ships.tonnage", "@SHIPS.TONNAGE", "@JOIN"}
	out := strings.Join(m.Translate(strings.Fields("show the label of ship with tonnage @SHIPS.TONNAGE"), st), " ")
	if !strings.Contains(out, "label") || !strings.Contains(out, "ships") {
		t.Fatalf("linking failed on unseen schema: %q", out)
	}
}

func TestTranslatorInterfaceCompliance(t *testing.T) {
	var _ Translator = (*Seq2Seq)(nil)
	var _ Translator = (*Sketch)(nil)
	if NewSeq2Seq(DefaultSeq2SeqConfig()).Name() != "seq2seq" {
		t.Fatal("seq2seq name")
	}
	if NewSketch(DefaultSketchConfig()).Name() != "sketch" {
		t.Fatal("sketch name")
	}
}

func TestTrainEmptyCorpus(t *testing.T) {
	m := NewSeq2Seq(DefaultSeq2SeqConfig())
	m.Train(nil) // must not panic
	m2 := NewSketch(DefaultSketchConfig())
	m2.Train(nil)
}

func TestSeq2SeqLossDecreases(t *testing.T) {
	cfg := DefaultSeq2SeqConfig()
	cfg.Epochs = 0 // build-only via Train of empty? Train(nil) returns; instead train in two stages
	cfg.EmbDim = 16
	cfg.HidDim = 24
	exs := trainingExamples()

	before := NewSeq2Seq(cfg)
	before.Train(exs) // epochs=0: builds vocab+params without updates

	lossAt := func(m *Seq2Seq) float64 {
		total := 0.0
		for _, ex := range exs {
			total += m.Loss(ex)
		}
		return total
	}
	l0 := lossAt(before)

	cfg.Epochs = 40
	after := NewSeq2Seq(cfg)
	after.Train(exs)
	l1 := lossAt(after)
	if l1 >= l0 {
		t.Fatalf("training did not reduce loss: %.2f -> %.2f", l0, l1)
	}
	if l1 > l0/2 {
		t.Fatalf("loss reduction too small: %.2f -> %.2f", l0, l1)
	}
}
