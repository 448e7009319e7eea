package lexicon

import (
	"testing"

	"repro/internal/schema"
)

func TestSlotFillsNonEmpty(t *testing.T) {
	slots := []string{
		SlotSelect, SlotCount, SlotFrom, SlotWhere, SlotEqual,
		SlotGreater, SlotLess, SlotBetween, SlotMax, SlotMin, SlotAvg,
		SlotSum, SlotGroup, SlotOrderAsc, SlotOrderDsc, SlotAnd, SlotOr,
		SlotNot, SlotDistinct, SlotExists,
	}
	for _, s := range slots {
		fills := SlotFills[s]
		if len(fills) < 2 {
			t.Errorf("slot %s has %d fills; every slot needs alternatives", s, len(fills))
		}
		seen := map[string]bool{}
		for _, f := range fills {
			if f == "" {
				t.Errorf("slot %s has an empty fill", s)
			}
			if seen[f] {
				t.Errorf("slot %s has duplicate fill %q", s, f)
			}
			seen[f] = true
		}
	}
}

func TestCanonicalFirstFill(t *testing.T) {
	// The generator relies on the first fill being the canonical
	// phrasing used in documentation examples.
	if SlotFills[SlotSelect][0] != "show me" {
		t.Errorf("canonical SelectPhrase = %q", SlotFills[SlotSelect][0])
	}
	if SlotFills[SlotCount][0] != "how many" {
		t.Errorf("canonical CountPhrase = %q", SlotFills[SlotCount][0])
	}
}

func TestComparativeFor(t *testing.T) {
	c, ok := ComparativeFor(schema.DomainAge)
	if !ok {
		t.Fatal("age domain must have comparatives")
	}
	if len(c.Greater) == 0 || c.Greater[0] != "older than" {
		t.Fatalf("age greater = %v", c.Greater)
	}
	if len(c.Less) == 0 || c.Less[0] != "younger than" {
		t.Fatalf("age less = %v", c.Less)
	}
	if _, ok := ComparativeFor(schema.DomainNone); ok {
		t.Fatal("DomainNone has no comparatives")
	}
	for _, d := range []schema.Domain{
		schema.DomainLength, schema.DomainHeight, schema.DomainArea,
		schema.DomainMoney, schema.DomainDuration, schema.DomainWeight,
		schema.DomainCount,
	} {
		if c, ok := ComparativeFor(d); !ok || len(c.Greater) == 0 || len(c.Less) == 0 {
			t.Errorf("domain %s missing comparatives", d)
		}
	}
}

func TestSynonyms(t *testing.T) {
	if got := Synonyms("doctor"); len(got) == 0 || got[0] != "physician" {
		t.Fatalf("doctor synonyms = %v", got)
	}
	if Synonyms("zzz-not-a-word") != nil {
		t.Fatal("unknown word should have nil synonyms")
	}
	// Synonyms must not contain the head word itself.
	for w, syns := range GeneralSynonyms {
		for _, s := range syns {
			if s == w {
				t.Errorf("word %q lists itself as a synonym", w)
			}
		}
	}
}
