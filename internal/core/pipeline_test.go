package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/patients"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/templates"
)

func miniSchema() *schema.Schema {
	return &schema.Schema{
		Name: "hospital",
		Tables: []*schema.Table{
			{Name: "patients", Readable: "patient", Columns: []*schema.Column{
				{Name: "id", Type: schema.Number, PrimaryKey: true},
				{Name: "name", Type: schema.Text},
				{Name: "age", Type: schema.Number, Domain: schema.DomainAge},
				{Name: "diagnosis", Type: schema.Text},
			}},
			{Name: "visits", Readable: "visit", Columns: []*schema.Column{
				{Name: "id", Type: schema.Number, PrimaryKey: true},
				{Name: "patient_id", Type: schema.Number},
				{Name: "cost", Type: schema.Number, Domain: schema.DomainMoney},
			}},
		},
		ForeignKeys: []schema.ForeignKey{
			{FromTable: "visits", FromColumn: "patient_id", ToTable: "patients", ToColumn: "id"},
		},
	}
}

func TestPipelineProducesValidatedPairs(t *testing.T) {
	p := New(miniSchema(), DefaultParams(), 7)
	pairs := p.Run()
	if len(pairs) < 1000 {
		t.Fatalf("pipeline produced only %d pairs", len(pairs))
	}
	for _, pr := range pairs {
		if _, err := sqlast.Parse(pr.SQL); err != nil {
			t.Fatalf("bad SQL %q: %v", pr.SQL, err)
		}
	}
}

func TestPipelineLemmatizes(t *testing.T) {
	p := New(miniSchema(), DefaultParams(), 7)
	pairs := p.Run()
	// Lemmatized corpora normalize plurals: "patients" -> "patient".
	for _, pr := range pairs {
		for _, tok := range strings.Fields(pr.NL) {
			if tok == "patients" || tok == "visits" {
				t.Fatalf("unlemmatized token %q in %q", tok, pr.NL)
			}
		}
	}
	// Dropping the lemma stage from the composition keeps surface forms.
	raw := p.Graph(p.GenerateStage(), p.AugmentStage(), DedupStage()).Collect()
	found := false
	for _, pr := range raw {
		if strings.Contains(" "+pr.NL+" ", " patients ") {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("dropping the lemma stage should keep surface forms")
	}
}

func TestPipelineAugments(t *testing.T) {
	on := DefaultParams()
	off := DefaultParams()
	off.Augmentation.SizePara = 0
	off.Augmentation.NumPara = 0
	off.Augmentation.NumMissing = 0
	off.Augmentation.RandDropP = 0
	nOn := len(New(miniSchema(), on, 7).Run())
	nOff := len(New(miniSchema(), off, 7).Run())
	if nOn <= nOff {
		t.Fatalf("augmentation should grow the corpus: on=%d off=%d", nOn, nOff)
	}
}

func TestPipelineDeterminism(t *testing.T) {
	a := New(miniSchema(), DefaultParams(), 3).Run()
	b := New(miniSchema(), DefaultParams(), 3).Run()
	if len(a) != len(b) {
		t.Fatalf("sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pair %d differs", i)
		}
	}
}

func TestLemmatizeNL(t *testing.T) {
	got := LemmatizeNL("Show me the names of all patients with age @PATIENTS.AGE!")
	want := "show me the name of all patient with age @PATIENTS.AGE"
	if got != want {
		t.Fatalf("LemmatizeNL = %q, want %q", got, want)
	}
}

func TestTemplateFraction(t *testing.T) {
	all := TemplateFraction(1.0, 1)
	if len(all) != len(templates.All()) {
		t.Fatalf("fraction 1.0 = %d templates", len(all))
	}
	half := TemplateFraction(0.5, 1)
	if len(half) != (len(templates.All())+1)/2 {
		t.Fatalf("fraction 0.5 = %d templates", len(half))
	}
	none := TemplateFraction(0, 1)
	if len(none) != 0 {
		t.Fatalf("fraction 0 = %d templates", len(none))
	}
	// Deterministic per seed, different across seeds.
	again := TemplateFraction(0.5, 1)
	for i := range half {
		if half[i].ID != again[i].ID {
			t.Fatal("fraction selection not deterministic")
		}
	}
	other := TemplateFraction(0.5, 2)
	diff := false
	for i := range half {
		if half[i].ID != other[i].ID {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds should select different subsets")
	}
}

func TestPipelineWithTemplateSubset(t *testing.T) {
	p := New(miniSchema(), DefaultParams(), 7)
	p.Templates = TemplateFraction(0.1, 9)
	subset := p.Run()
	fullP := New(miniSchema(), DefaultParams(), 7)
	full := fullP.Run()
	if len(subset) >= len(full) {
		t.Fatalf("10%% of templates should yield fewer pairs: %d vs %d", len(subset), len(full))
	}
	allowed := map[string]bool{}
	for _, tpl := range p.Templates {
		allowed[tpl.ID] = true
	}
	for _, pr := range subset {
		if !allowed[pr.TemplateID] {
			t.Fatalf("pair from excluded template %s", pr.TemplateID)
		}
	}
}

// TestStageSelfTimesSumToRun checks the Stats contract on the Patients
// corpus: each stage's WallNS is its self time, so the four add up to
// the run's wall time (within 5%; the rest is the caller's emit and
// the run's own set-up).
func TestStageSelfTimesSumToRun(t *testing.T) {
	g := New(patients.Schema(), DefaultParams(), 1).Graph()
	pairs := 0
	start := time.Now()
	if err := g.Run(context.Background(), func(Pair) error { pairs++; return nil }); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start).Nanoseconds()
	var sum int64
	for _, st := range g.Stats() {
		if st.WallNS <= 0 {
			t.Fatalf("stage %q has no self time: %+v", st.Stage, g.Stats())
		}
		sum += st.WallNS
	}
	if pairs == 0 || sum > wall || float64(sum) < 0.95*float64(wall) {
		t.Fatalf("stage self times sum to %d ns, run took %d ns (%d pairs): %+v", sum, wall, pairs, g.Stats())
	}
}
