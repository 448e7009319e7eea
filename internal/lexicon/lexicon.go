// Package lexicon holds the manually crafted slot-fill dictionaries
// that the generator uses to instantiate the NL side of the seed
// templates ("what is" / "show me" for the SelectPhrase, and so on),
// plus domain-aware comparative and superlative phrase dictionaries
// used by the "other augmentations" step of the paper (e.g. replacing
// "greater than" with "older than" when the column domain is age).
package lexicon

import (
	"repro/internal/schema"
)

// Slot names used by the NL templates.
const (
	SlotSelect   = "SelectPhrase"
	SlotCount    = "CountPhrase"
	SlotFrom     = "FromPhrase"
	SlotWhere    = "WherePhrase"
	SlotEqual    = "EqualPhrase"
	SlotGreater  = "GreaterPhrase"
	SlotLess     = "LessPhrase"
	SlotBetween  = "BetweenPhrase"
	SlotMax      = "MaxPhrase"
	SlotMin      = "MinPhrase"
	SlotAvg      = "AvgPhrase"
	SlotSum      = "SumPhrase"
	SlotGroup    = "GroupPhrase"
	SlotOrderAsc = "OrderAscPhrase"
	SlotOrderDsc = "OrderDescPhrase"
	SlotAnd      = "AndPhrase"
	SlotOr       = "OrPhrase"
	SlotNot      = "NotPhrase"
	SlotDistinct = "DistinctPhrase"
	SlotExists   = "ExistsPhrase"
)

// SlotFills maps each slot to its manually crafted phrase alternatives.
// The first entry of each slot is the most "canonical" phrasing.
var SlotFills = map[string][]string{
	SlotSelect: {
		"show me", "what is", "what are", "list", "give me", "display",
		"show", "find", "tell me", "get", "return", "retrieve", "present",
		"i want to see", "can you show me", "output",
	},
	SlotCount: {
		"how many", "what is the number of", "count the", "give me the number of",
		"find the number of", "show me the count of", "what is the total number of",
	},
	SlotFrom: {
		"of all", "of", "of the", "for all", "for", "from all", "from the",
		"among all", "belonging to",
	},
	SlotWhere: {
		"with", "whose", "where", "that have", "having", "for which",
		"in which", "such that",
	},
	SlotEqual: {
		"is", "equals", "equal to", "is exactly", "being", "of", "at",
		"is equal to",
	},
	SlotGreater: {
		"greater than", "more than", "above", "over", "higher than",
		"exceeding", "at least", "bigger than",
	},
	SlotLess: {
		"less than", "smaller than", "below", "under", "lower than",
		"at most", "fewer than",
	},
	SlotBetween: {
		"between", "in the range of", "ranging from", "from",
	},
	SlotMax: {
		"maximum", "highest", "largest", "greatest", "biggest", "top",
		"most",
	},
	SlotMin: {
		"minimum", "lowest", "smallest", "least", "bottom", "fewest",
	},
	SlotAvg: {
		"average", "mean", "typical", "expected",
	},
	SlotSum: {
		"total", "sum of", "overall", "combined", "aggregate",
	},
	SlotGroup: {
		"for each", "per", "grouped by", "by each", "broken down by",
		"for every",
	},
	SlotOrderAsc: {
		"sorted by", "ordered by", "in ascending order of", "arranged by",
		"ranked by",
	},
	SlotOrderDsc: {
		"sorted descending by", "in descending order of",
		"ordered from highest to lowest by", "ranked top down by",
	},
	SlotAnd: {
		"and", "as well as", "and also", "along with",
	},
	SlotOr: {
		"or", "or else", "or alternatively",
	},
	SlotNot: {
		"not", "is not", "other than", "excluding", "except",
	},
	SlotDistinct: {
		"distinct", "different", "unique",
	},
	SlotExists: {
		"that have", "that appear in", "present in", "that exist in",
	},
}

// Comparative describes domain-specific phrasing for a comparison
// direction.
type Comparative struct {
	Greater []string
	Less    []string
	Max     []string
	Min     []string
}

// comparatives maps column domains to domain-aware phrasings. The
// augmenter substitutes these for the generic phrases when the
// predicate's column carries the domain annotation.
var comparatives = map[schema.Domain]Comparative{
	schema.DomainAge: {
		Greater: []string{"older than", "above the age of", "aged over"},
		Less:    []string{"younger than", "below the age of", "aged under"},
		Max:     []string{"oldest"},
		Min:     []string{"youngest"},
	},
	schema.DomainLength: {
		Greater: []string{"longer than"},
		Less:    []string{"shorter than"},
		Max:     []string{"longest"},
		Min:     []string{"shortest"},
	},
	schema.DomainHeight: {
		Greater: []string{"taller than", "higher than"},
		Less:    []string{"shorter than", "lower than"},
		Max:     []string{"tallest", "highest"},
		Min:     []string{"shortest", "lowest"},
	},
	schema.DomainArea: {
		Greater: []string{"larger than", "bigger than"},
		Less:    []string{"smaller than"},
		Max:     []string{"largest", "biggest"},
		Min:     []string{"smallest"},
	},
	schema.DomainMoney: {
		Greater: []string{"more expensive than", "costlier than"},
		Less:    []string{"cheaper than"},
		Max:     []string{"most expensive", "priciest"},
		Min:     []string{"cheapest"},
	},
	schema.DomainDuration: {
		Greater: []string{"longer than"},
		Less:    []string{"shorter than"},
		Max:     []string{"longest"},
		Min:     []string{"shortest"},
	},
	schema.DomainWeight: {
		Greater: []string{"heavier than"},
		Less:    []string{"lighter than"},
		Max:     []string{"heaviest"},
		Min:     []string{"lightest"},
	},
	schema.DomainCount: {
		Greater: []string{"more numerous than"},
		Less:    []string{"fewer than"},
		Max:     []string{"most numerous"},
		Min:     []string{"fewest"},
	},
}

// ComparativeFor returns the domain-aware comparative phrasing for a
// domain, and whether one exists.
func ComparativeFor(d schema.Domain) (Comparative, bool) {
	c, ok := comparatives[d]
	return c, ok
}

// GeneralSynonyms is a small general-purpose synonym dictionary used to
// instantiate simple variations of NL words ("doctor" vs "physician").
// Schema annotations extend these per-column/table.
var GeneralSynonyms = map[string][]string{
	"doctor":     {"physician", "clinician"},
	"patient":    {"case", "inpatient"},
	"hospital":   {"clinic", "medical center"},
	"disease":    {"illness", "condition", "ailment"},
	"diagnosis":  {"finding"},
	"city":       {"town", "municipality"},
	"state":      {"province", "region"},
	"country":    {"nation"},
	"mountain":   {"peak", "summit"},
	"river":      {"stream", "waterway"},
	"lake":       {"reservoir"},
	"population": {"number of residents", "number of inhabitants"},
	"area":       {"size", "surface area"},
	"name":       {"title"},
	"age":        {"years of age"},
	"salary":     {"pay", "wage", "compensation"},
	"employee":   {"worker", "staff member"},
	"department": {"division", "unit"},
	"student":    {"pupil"},
	"teacher":    {"instructor"},
	"course":     {"class"},
	"flight":     {"trip"},
	"airline":    {"carrier"},
	"airport":    {"airfield"},
	"car":        {"vehicle", "automobile"},
	"price":      {"cost"},
	"customer":   {"client", "buyer"},
	"order":      {"purchase"},
	"product":    {"item", "good"},
	"song":       {"track", "tune"},
	"album":      {"record"},
	"team":       {"club", "squad"},
	"player":     {"athlete"},
	"stadium":    {"arena", "venue"},
	"length":     {"duration", "extent"},
	"height":     {"elevation", "altitude"},
	"gender":     {"sex"},
}

// Synonyms returns the synonym list for a word (nil when none).
func Synonyms(word string) []string {
	return GeneralSynonyms[word]
}
