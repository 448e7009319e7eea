package boot

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/models"
)

// TestBootLoadServesCriticBeam: a server that loads its weights runs
// no stage graph (Unit.Pairs is 0) and serves the model alone, with no
// fallback tier. A critic-on tenant decodes CriticBeam candidates per
// question; a critic-off one decodes its single top translation.
func TestBootLoadServesCriticBeam(t *testing.T) {
	// The model only has to load; a tiny sketch trained on two
	// hand-written examples will do.
	var exs []models.Example
	for _, p := range [][2]string{
		{"show all patients", "SELECT * FROM patients"},
		{"how many patients are there", "SELECT COUNT(*) FROM patients"},
	} {
		exs = append(exs, models.Example{NL: strings.Fields(p[0]), SQL: strings.Fields(p[1])})
	}
	cfg := models.DefaultSketchConfig()
	cfg.Epochs, cfg.EmbDim, cfg.HidDim = 1, 4, 4
	sk := models.NewSketch(cfg)
	sk.Train(exs)
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

	for _, tc := range []struct {
		critic bool
		beam   int
	}{{true, CriticBeam}, {false, 0}} {
		u, err := Build(context.Background(), Spec{Schema: "patients", LoadPath: path, Seed: 1, Critic: tc.critic})
		if err != nil {
			t.Fatal(err)
		}
		tr := u.Translator
		if u.Pairs != 0 || len(tr.Fallbacks) != 0 || tr.Beam != tc.beam || (tr.Critic != nil) != tc.critic {
			t.Fatalf("critic %v: Pairs %d, %d fallback tiers, beam %d, critic %v; want 0, 0, %d, %v",
				tc.critic, u.Pairs, len(tr.Fallbacks), tr.Beam, tr.Critic != nil, tc.beam, tc.critic)
		}
	}
}
