package boot

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/models"
	"repro/internal/patients"
)

// TestBootStreamedIndexMatchesAssemble: a server that loads its weights
// indexes the corpus for its fallback tier as the stage graph emits it.
// Its tier must be the index Assemble builds from the whole corpus
// (PairExamples over Pairs), answer the benchmark questions and a
// stride of corpus questions alike, and report the same corpus size.
func TestBootStreamedIndexMatchesAssemble(t *testing.T) {
	ctx := context.Background()
	s := patients.Schema()
	ps, err := Pairs(ctx, s, Spec{}.ParamsOrDefault(), 1)
	if err != nil {
		t.Fatal(err)
	}
	exs := models.PairExamples(ps, s)

	// The primary model only has to load; a tiny sketch trained on a
	// few examples will do.
	cfg := models.DefaultSketchConfig()
	cfg.Epochs, cfg.EmbDim, cfg.HidDim, cfg.SampleCap = 1, 4, 4, 20
	sk := models.NewSketch(cfg)
	sk.Train(exs[:20])
	path := filepath.Join(t.TempDir(), "sketch.gob")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sk.SaveFull(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	sp := Spec{Schema: "patients", LoadPath: path, Fallback: true, Seed: 1}
	u, err := Build(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	if u.Pairs != len(ps) || u.Pairs != 22404 {
		t.Fatalf("streamed build reports %d pairs, the corpus has %d (want 22404)", u.Pairs, len(ps))
	}
	want := Assemble(sp, u.Schema, u.DB, u.Model, exs, len(ps))
	if len(u.Translator.Fallbacks) != 1 || len(want.Translator.Fallbacks) != 1 {
		t.Fatalf("fallback tiers: streamed %d, assembled %d; want 1 each",
			len(u.Translator.Fallbacks), len(want.Translator.Fallbacks))
	}
	got, ref := u.Translator.Fallbacks[0], want.Translator.Fallbacks[0]
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("the streamed fallback index differs from the one Assemble builds")
	}

	var qs [][]string
	for _, c := range patients.Cases() {
		_, nl, err := u.Translator.Preprocess(c.NL)
		if err != nil {
			t.Fatalf("preprocess %q: %v", c.NL, err)
		}
		qs = append(qs, nl)
	}
	for i := 0; i < len(exs); i += 97 {
		qs = append(qs, exs[i].NL)
	}
	for _, q := range qs {
		if a, b := got.Translate(q, nil), ref.Translate(q, nil); !slices.Equal(a, b) {
			t.Fatalf("question %q: streamed tier answered %q, assembled %q", q, a, b)
		}
	}
}
