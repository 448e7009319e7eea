package templates

import (
	"strings"
	"testing"
)

// byID returns the seed template with the given id.
func byID(t *testing.T, id string) *Template {
	t.Helper()
	all := All()
	for i := range all {
		if all[i].ID == id {
			return &all[i]
		}
	}
	t.Fatalf("no template %q", id)
	return nil
}

func TestTemplateCount(t *testing.T) {
	// The paper ships "approximately 100 seed templates".
	if n := len(All()); n < 80 {
		t.Fatalf("seed template count = %d; want approximately 100", n)
	}
}

func TestUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, tpl := range All() {
		if tpl.ID == "" {
			t.Fatal("template with empty id")
		}
		if seen[tpl.ID] {
			t.Fatalf("duplicate template id %q", tpl.ID)
		}
		seen[tpl.ID] = true
	}
}

func TestEveryClassRepresented(t *testing.T) {
	perClass := map[Class]int{}
	for _, tpl := range All() {
		perClass[tpl.Class]++
	}
	for _, c := range Classes {
		if perClass[c] == 0 {
			t.Errorf("class %s has no templates", c)
		}
	}
	// Key classes need meaningful coverage.
	if perClass[CFilter] < 10 {
		t.Errorf("filter class too small: %d", perClass[CFilter])
	}
	if perClass[CJoin] < 8 {
		t.Errorf("join class too small: %d", perClass[CJoin])
	}
	if perClass[CNested] < 8 {
		t.Errorf("nested class too small: %d", perClass[CNested])
	}
}

func TestNLVariants(t *testing.T) {
	validCats := map[string]bool{"": true, "syntactic": true, "lexical": true, "morphological": true, "semantic": true}
	paraphrased := 0
	for _, tpl := range All() {
		if len(tpl.NL) == 0 {
			t.Fatalf("template %s has no NL variants", tpl.ID)
		}
		if tpl.NL[0].Category != "" {
			t.Errorf("template %s: first NL variant must be the naive one", tpl.ID)
		}
		for _, nl := range tpl.NL {
			if !validCats[nl.Category] {
				t.Errorf("template %s: invalid category %q", tpl.ID, nl.Category)
			}
			if strings.TrimSpace(nl.Text) == "" {
				t.Errorf("template %s: empty NL text", tpl.ID)
			}
		}
		if len(tpl.NL) > 1 {
			paraphrased++
		}
	}
	if paraphrased < len(All())/2 {
		t.Errorf("only %d/%d templates have paraphrased variants", paraphrased, len(All()))
	}
}

func TestSlotsAreKnown(t *testing.T) {
	phraseSlots := map[string]bool{
		"Select": true, "Count": true, "From": true, "Where": true,
		"Equal": true, "Greater": true, "Less": true, "Between": true,
		"Max": true, "Min": true, "Avg": true, "Sum": true, "Group": true,
		"OrderAsc": true, "OrderDesc": true, "And": true, "Or": true,
		"Not": true, "Distinct": true, "Exists": true,
	}
	knownBase := func(name string) bool {
		if name == "t" || name == "u" || name == "t+" || name == "u+" {
			return true
		}
		if phraseSlots[name] {
			return true
		}
		base := strings.TrimPrefix(name, "@")
		base = strings.TrimPrefix(base, "t.")
		base = strings.TrimPrefix(base, "u.")
		_, ok := AttrSlotByName(base)
		return ok
	}
	for _, tpl := range All() {
		for _, slot := range tpl.Slots() {
			if !knownBase(slot) {
				t.Errorf("template %s uses unknown slot {%s}", tpl.ID, slot)
			}
		}
	}
}

func TestUsesTwoTables(t *testing.T) {
	if byID(t, "select-attr").UsesTwoTables() {
		t.Error("select-attr is single-table")
	}
	if !byID(t, "join-avg").UsesTwoTables() {
		t.Error("join-avg uses two tables")
	}
	if !byID(t, "nested-in-fk").UsesTwoTables() {
		t.Error("nested-in-fk uses two tables")
	}
}

func TestRequiredSlots(t *testing.T) {
	req := byID(t, "join-avg").RequiredSlots()
	names := map[string]bool{}
	for _, r := range req {
		names[r.Name] = true
	}
	if !names["na"] || !names["tb"] {
		t.Fatalf("join-avg required slots = %v", req)
	}
	// Every filter template needs at least one value placeholder slot.
	for _, tpl := range All() {
		if tpl.Class != CFilter {
			continue
		}
		hasPH := false
		for _, s := range tpl.Slots() {
			if strings.HasPrefix(s, "@") {
				hasPH = true
			}
		}
		if !hasPH {
			t.Errorf("filter template %s has no placeholder slot", tpl.ID)
		}
	}
}

func TestJoinTemplatesUseJoinPlaceholder(t *testing.T) {
	for _, tpl := range All() {
		if tpl.Class != CJoin {
			continue
		}
		if !strings.Contains(tpl.SQL, "@JOIN") {
			t.Errorf("join template %s must use FROM @JOIN, got %q", tpl.ID, tpl.SQL)
		}
	}
}

func TestNestedTemplatesNest(t *testing.T) {
	for _, tpl := range All() {
		if tpl.Class != CNested {
			continue
		}
		if strings.Count(tpl.SQL, "SELECT") < 2 {
			t.Errorf("nested template %s has no subquery: %q", tpl.ID, tpl.SQL)
		}
	}
}
