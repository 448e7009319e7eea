// Package generator implements DBPal's data-instantiation step: it
// fills the seed templates' slots with schema elements and slot-fill
// lexicon phrases to produce an initial training set of NL–SQL pairs.
//
// Instantiation is balanced: instead of exhaustively expanding every
// slot combination (which would let slot-heavy templates dominate the
// training set and bias the model, as the paper warns), the generator
// randomly samples up to a per-template budget of instances. The
// Table-1 parameters sizeSlotFills, sizeTables, groupByP, joinBoost,
// aggBoost, and nestBoost control the budget and the class balance.
package generator

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/lexicon"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/templates"
)

// Pair is one NL–SQL training example. NL is a space-separated token
// string (pre-lemmatization); SQL is the placeholder-bearing SQL text.
// Stage and Origin are provenance, stamped by the pipeline stage that
// first created the pair and carried unchanged through every later
// stage: Stage names the creator ("generate", "augment"), Origin the
// mechanism within it ("template", "paraphrase", "dropout",
// "comparative").
type Pair struct {
	NL         string
	SQL        string
	TemplateID string
	Class      templates.Class
	Stage      string
	Origin     string
}

// Key is the identity of a pair for deduplication: the (NL, SQL) text
// alone, ignoring template and provenance. Used by the generator's and
// augmenter's internal dedup and by the pipeline's Dedup stage.
func (p Pair) Key() string { return p.NL + "\x1f" + p.SQL }

// Provenance values stamped by the generator.
const (
	StageGenerate  = "generate"
	OriginTemplate = "template"
)

// Params are the data-instantiation knobs from the paper's Table 1.
type Params struct {
	// SizeSlotFills is the maximum number of instances created for a
	// NL–SQL template pair using slot-filling dictionaries.
	SizeSlotFills int
	// SizeTables is the maximum number of tables supported in join
	// queries (the longest join path spans SizeTables tables).
	SizeTables int
	// GroupByP is the probability of generating a GROUP BY version of
	// an eligible aggregate query pair.
	GroupByP float64
	// JoinBoost, AggBoost, and NestBoost scale the instance budget of
	// join, aggregate (incl. group-by), and nested templates relative
	// to the base classes.
	JoinBoost float64
	AggBoost  float64
	NestBoost float64
}

// DefaultParams are the empirically determined defaults the paper
// ships (before per-schema hyperparameter tuning).
func DefaultParams() Params {
	return Params{
		SizeSlotFills: 12,
		SizeTables:    3,
		GroupByP:      0.25,
		JoinBoost:     1.0,
		AggBoost:      1.0,
		NestBoost:     1.0,
	}
}

// Generator instantiates seed templates against one schema.
type Generator struct {
	Schema    *schema.Schema
	Params    Params
	Templates []templates.Template
	rng       *rand.Rand
	lastNum   int // @NUM constant chosen while rendering the SQL side
}

// New returns a generator over the full seed template library.
func New(s *schema.Schema, p Params, seed int64) *Generator {
	return &Generator{
		Schema:    s,
		Params:    p,
		Templates: templates.All(),
		rng:       rand.New(rand.NewSource(seed)),
	}
}

// NewWithTemplates returns a generator restricted to the given
// templates (used by the seed-template-fraction experiment, Figure 3).
func NewWithTemplates(s *schema.Schema, p Params, seed int64, tpls []templates.Template) *Generator {
	g := New(s, p, seed)
	g.Templates = tpls
	return g
}

// Generate instantiates every template and returns the deduplicated
// initial training set.
//
//lint:allow deadcode reference implementation: core's stage-equivalence golden compares the streaming stage against it
func (g *Generator) Generate() []Pair {
	var out []Pair
	g.Stream(func(p Pair) { out = append(out, p) })
	return out
}

// Stream instantiates every template in order, emitting each
// deduplicated pair as it is produced — the streaming form Generate
// collects and the pipeline's generate stage feeds downstream without
// materializing the corpus. One Stream call consumes the generator's
// RNG; use a fresh Generator per run.
func (g *Generator) Stream(emit func(Pair)) {
	seen := map[string]bool{}
	for _, t := range g.Templates {
		budget := g.budget(t.Class)
		for _, nlv := range t.NL {
			attempts := budget * 4 // sampling may repeat bindings
			produced := 0
			for i := 0; i < attempts && produced < budget; i++ {
				p, ok := g.instantiate(&t, nlv)
				if !ok {
					break // no valid binding exists for this schema
				}
				if seen[p.Key()] {
					continue
				}
				seen[p.Key()] = true
				emit(p)
				produced++
			}
		}
	}
}

// budget is the per-(template, NL variant) instance budget after class
// boosts.
func (g *Generator) budget(c templates.Class) int {
	b := float64(g.Params.SizeSlotFills)
	switch c {
	case templates.CJoin:
		b *= g.Params.JoinBoost
	case templates.CAgg, templates.CGroupBy:
		b *= g.Params.AggBoost
	case templates.CNested:
		b *= g.Params.NestBoost
	}
	n := int(b + 0.5)
	if n < 1 && b > 0 {
		n = 1
	}
	return n
}

// binding holds the chosen schema elements for one instantiation.
type binding struct {
	t, u  *schema.Table
	attrs map[string]*schema.Column // slot name -> column
}

// instantiate samples a binding and renders one NL–SQL pair. It
// returns ok=false when the schema cannot satisfy the template at all.
func (g *Generator) instantiate(t *templates.Template, nlv templates.NL) (Pair, bool) {
	b, ok := g.sampleBinding(t)
	if !ok {
		return Pair{}, false
	}
	sqlText, ok := g.renderSQL(t, b)
	if !ok {
		return Pair{}, false
	}
	nlText, ok := g.renderNL(nlv.Text, b)
	if !ok {
		return Pair{}, false
	}

	// GROUP BY promotion (groupByP): eligible aggregate instances
	// gain a grouping attribute.
	if t.Class == templates.CAgg && g.rng.Float64() < g.Params.GroupByP {
		if s2, n2, ok := g.promoteGroupBy(sqlText, nlText, b); ok {
			sqlText, nlText = s2, n2
		}
	}
	return Pair{
		NL: nlText, SQL: sqlText, TemplateID: t.ID, Class: t.Class,
		Stage: StageGenerate, Origin: OriginTemplate,
	}, true
}

// sampleBinding picks tables and attributes satisfying the template's
// slot requirements.
func (g *Generator) sampleBinding(t *templates.Template) (*binding, bool) {
	req := t.RequiredSlots()
	two := t.UsesTwoTables()
	b := &binding{attrs: map[string]*schema.Column{}}

	if two {
		pairs := g.joinablePairs(needsDirectFK(req))
		if len(pairs) == 0 {
			return nil, false
		}
		pick := pairs[g.rng.Intn(len(pairs))]
		b.t, b.u = pick[0], pick[1]
	} else {
		if len(g.Schema.Tables) == 0 {
			return nil, false
		}
		b.t = g.Schema.Tables[g.rng.Intn(len(g.Schema.Tables))]
	}

	used := map[string]map[string]bool{} // table name -> column name used
	markUsed := func(tab *schema.Table, c *schema.Column) {
		if used[tab.Name] == nil {
			used[tab.Name] = map[string]bool{}
		}
		used[tab.Name][c.Name] = true
	}
	for _, slot := range req {
		tab := b.t
		if slot.Table == 2 {
			tab = b.u
		}
		if tab == nil {
			return nil, false
		}
		var col *schema.Column
		switch slot.Kind {
		case templates.KeyAttr:
			k, fk, ok := g.fkPair(b.t, b.u)
			if !ok {
				return nil, false
			}
			if slot.Name == "k" {
				col = k
			} else {
				col = fk
			}
		default:
			col = g.sampleColumn(tab, slot.Kind, used[tab.Name])
			if col == nil {
				return nil, false
			}
		}
		b.attrs[slot.Name] = col
		markUsed(tab, col)
	}
	return b, true
}

// needsDirectFK reports whether the slot set includes the {k}/{fk}
// join-pair slots, which require a direct foreign key edge.
func needsDirectFK(req []templates.AttrSlot) bool {
	for _, s := range req {
		if s.Kind == templates.KeyAttr {
			return true
		}
	}
	return false
}

// joinablePairs enumerates ordered table pairs connected within the
// sizeTables budget (or by a direct FK when required).
func (g *Generator) joinablePairs(direct bool) [][2]*schema.Table {
	var out [][2]*schema.Table
	maxHops := g.Params.SizeTables - 1
	if maxHops < 1 {
		maxHops = 1
	}
	for _, t := range g.Schema.Tables {
		for _, u := range g.Schema.Tables {
			if t == u {
				continue
			}
			if direct {
				if _, _, ok := g.fkPair(t, u); ok {
					out = append(out, [2]*schema.Table{t, u})
				}
				continue
			}
			p := g.Schema.JoinPath(t.Name, u.Name)
			if p != nil && len(p) >= 1 && len(p) <= maxHops {
				out = append(out, [2]*schema.Table{t, u})
			}
		}
	}
	return out
}

// fkPair returns the (t-side, u-side) columns of a direct foreign key
// between t and u, in either direction.
func (g *Generator) fkPair(t, u *schema.Table) (*schema.Column, *schema.Column, bool) {
	if t == nil || u == nil {
		return nil, nil, false
	}
	for _, fk := range g.Schema.ForeignKeys {
		if strings.EqualFold(fk.FromTable, u.Name) && strings.EqualFold(fk.ToTable, t.Name) {
			return t.Column(fk.ToColumn), u.Column(fk.FromColumn), true
		}
		if strings.EqualFold(fk.FromTable, t.Name) && strings.EqualFold(fk.ToTable, u.Name) {
			return t.Column(fk.FromColumn), u.Column(fk.ToColumn), true
		}
	}
	return nil, nil, false
}

// sampleColumn picks a random column of the requested kind not already
// used in this binding. Primary-key id columns are deprioritized for
// non-key slots (they rarely appear in natural questions).
func (g *Generator) sampleColumn(t *schema.Table, kind templates.AttrKind, used map[string]bool) *schema.Column {
	var candidates []*schema.Column
	for _, c := range t.Columns {
		if used[c.Name] {
			continue
		}
		switch kind {
		case templates.NumAttr:
			if c.Type != schema.Number {
				continue
			}
		case templates.TextAttr:
			if c.Type != schema.Text {
				continue
			}
		}
		candidates = append(candidates, c)
	}
	if len(candidates) == 0 {
		return nil
	}
	// Prefer non-PK columns when any exist.
	var nonPK []*schema.Column
	for _, c := range candidates {
		if !c.PrimaryKey && !strings.HasSuffix(strings.ToLower(c.Name), "_id") && strings.ToLower(c.Name) != "id" {
			nonPK = append(nonPK, c)
		}
	}
	if len(nonPK) > 0 && g.rng.Float64() < 0.9 {
		return nonPK[g.rng.Intn(len(nonPK))]
	}
	return candidates[g.rng.Intn(len(candidates))]
}

// renderSQL substitutes schema slots into the SQL skeleton and
// validates the result parses. @NUM literals become small constants.
func (g *Generator) renderSQL(t *templates.Template, b *binding) (string, bool) {
	out := t.SQL
	out = strings.ReplaceAll(out, "{t}", b.t.Name)
	if b.u != nil {
		out = strings.ReplaceAll(out, "{u}", b.u.Name)
	}
	for slot, col := range b.attrs {
		tab := g.tableOf(slot, b)
		out = strings.ReplaceAll(out, "{t."+slot+"}", tab.Name+"."+col.Name)
		out = strings.ReplaceAll(out, "{u."+slot+"}", tab.Name+"."+col.Name)
		out = strings.ReplaceAll(out, "{@"+slot+"}", placeholderFor(tab, col))
		out = strings.ReplaceAll(out, "{"+slot+"}", col.Name)
	}
	if strings.Contains(out, "@NUM") {
		n := g.rng.Intn(9) + 2
		out = strings.ReplaceAll(out, "@NUM", fmt.Sprintf("%d", n))
		// NL side replaces @NUM with the same constant via binding; we
		// stash it in attrs-free channel below by returning both parts.
		// (Handled by renderPairNum in callers; see instantiate.)
		g.lastNum = n
	} else {
		g.lastNum = 0
	}
	if strings.Contains(out, "{") {
		return "", false // unresolved slot: template/schema mismatch
	}
	if _, err := sqlast.Parse(out); err != nil {
		return "", false
	}
	return out, true
}

// tableOf returns the table a slot binds to.
func (g *Generator) tableOf(slot string, b *binding) *schema.Table {
	if as, ok := templates.AttrSlotByName(slot); ok && as.Table == 2 {
		return b.u
	}
	return b.t
}

// placeholderFor renders the anonymized-constant token for a column.
func placeholderFor(t *schema.Table, c *schema.Column) string {
	return "@" + strings.ToUpper(t.Name) + "." + strings.ToUpper(c.Name)
}

// renderNL substitutes phrase and schema slots into the NL skeleton.
func (g *Generator) renderNL(text string, b *binding) (string, bool) {
	out := text
	// Phrase slots (iterated in sorted order so rng use is
	// deterministic).
	for _, slot := range sortedSlotNames() {
		fills := lexicon.SlotFills[slot]
		marker := "{" + strings.TrimSuffix(slot, "Phrase") + "}"
		for strings.Contains(out, marker) {
			out = strings.Replace(out, marker, fills[g.rng.Intn(len(fills))], 1)
		}
	}
	// Table nouns.
	out = strings.ReplaceAll(out, "{t+}", g.pluralNoun(b.t))
	out = strings.ReplaceAll(out, "{t}", g.singularNoun(b.t))
	if b.u != nil {
		out = strings.ReplaceAll(out, "{u+}", g.pluralNoun(b.u))
		out = strings.ReplaceAll(out, "{u}", g.singularNoun(b.u))
	}
	// Attribute nouns and placeholders (sorted for determinism; the
	// noun synonym draw only happens when the marker is present).
	for _, slot := range sortedAttrSlots(b) {
		col := b.attrs[slot]
		tab := g.tableOf(slot, b)
		out = strings.ReplaceAll(out, "{@"+slot+"}", placeholderFor(tab, col))
		marker := "{" + slot + "}"
		if strings.Contains(out, marker) {
			out = strings.ReplaceAll(out, marker, g.attrNoun(col))
		}
	}
	if g.lastNum > 0 {
		out = strings.ReplaceAll(out, "@NUM", fmt.Sprintf("%d", g.lastNum))
	}
	if strings.Contains(out, "{") {
		return "", false
	}
	// Normalize whitespace.
	return strings.Join(strings.Fields(out), " "), true
}

// sortedSlotNames returns the lexicon slot names in sorted order.
func sortedSlotNames() []string {
	names := make([]string, 0, len(lexicon.SlotFills))
	for k := range lexicon.SlotFills {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// sortedAttrSlots returns the binding's attribute slot names sorted.
func sortedAttrSlots(b *binding) []string {
	names := make([]string, 0, len(b.attrs))
	for k := range b.attrs {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// attrNoun chooses a surface form for a column: the readable name or,
// occasionally, an annotated/general synonym.
func (g *Generator) attrNoun(c *schema.Column) string {
	forms := c.SurfaceForms()
	if syns := lexicon.Synonyms(forms[0]); len(syns) > 0 {
		forms = append(forms, syns...)
	}
	if len(forms) > 1 && g.rng.Float64() < 0.35 {
		return forms[1+g.rng.Intn(len(forms)-1)]
	}
	return forms[0]
}

// singularNoun chooses a surface form for a table.
func (g *Generator) singularNoun(t *schema.Table) string {
	forms := t.SurfaceForms()
	if syns := lexicon.Synonyms(forms[0]); len(syns) > 0 {
		forms = append(forms, syns...)
	}
	if len(forms) > 1 && g.rng.Float64() < 0.35 {
		return forms[1+g.rng.Intn(len(forms)-1)]
	}
	return forms[0]
}

// pluralNoun naively pluralizes the chosen table noun.
func (g *Generator) pluralNoun(t *schema.Table) string {
	return Pluralize(g.singularNoun(t))
}

// Pluralize applies naive English pluralization.
func Pluralize(noun string) string {
	switch {
	case noun == "":
		return noun
	case strings.HasSuffix(noun, "s") || strings.HasSuffix(noun, "x") ||
		strings.HasSuffix(noun, "ch") || strings.HasSuffix(noun, "sh"):
		return noun + "es"
	case strings.HasSuffix(noun, "y") && len(noun) > 1 && !isVowelByte(noun[len(noun)-2]):
		return noun[:len(noun)-1] + "ies"
	case strings.HasSuffix(noun, "person"):
		return strings.TrimSuffix(noun, "person") + "people"
	default:
		return noun + "s"
	}
}

func isVowelByte(c byte) bool {
	switch c {
	case 'a', 'e', 'i', 'o', 'u':
		return true
	}
	return false
}

// promoteGroupBy turns an aggregate instance into its GROUP BY version
// (paper parameter groupByP): a grouping attribute is added to the
// SELECT list and the GROUP BY clause, and a grouping phrase to the NL.
func (g *Generator) promoteGroupBy(sqlText, nlText string, b *binding) (string, string, bool) {
	q, err := sqlast.Parse(sqlText)
	if err != nil || len(q.GroupBy) > 0 || q.From.JoinPlaceholder {
		return "", "", false
	}
	used := map[string]bool{}
	for _, c := range b.attrs {
		used[c.Name] = true
	}
	grp := g.sampleColumn(b.t, templates.AnyAttr, used)
	if grp == nil {
		return "", "", false
	}
	q.Select = append([]sqlast.SelectItem{{Col: sqlast.ColumnRef{Column: grp.Name}}}, q.Select...)
	q.GroupBy = append(q.GroupBy, sqlast.ColumnRef{Column: grp.Name})
	fills := lexicon.SlotFills[lexicon.SlotGroup]
	phrase := fills[g.rng.Intn(len(fills))]
	return q.String(), nlText + " " + phrase + " " + g.attrNoun(grp), true
}
