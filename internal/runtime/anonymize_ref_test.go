package runtime

// The Parameter Handler's span scan as it was before it precomputed
// each question's lower-cased runes, bigram keys and index lookups
// once: it joins, lower-cases, rune-converts and sorts every candidate
// span afresh. FuzzAnonymizeMatchesReference holds Anonymize to these
// tokens and bindings.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/lemma"
	"repro/internal/sqlast"
	"repro/internal/tokens"
)

// refAnonymize is Anonymize as it was.
func refAnonymize(ph *ParameterHandler, question string) (*Anonymized, error) {
	if err := ph.validate(question); err != nil {
		return nil, err
	}
	toks := tokens.Tokenize(question)
	if max := ph.maxTokens(); len(toks) > max {
		return nil, &ValidationError{Reason: fmt.Sprintf("question has %d tokens; the limit is %d", len(toks), max)}
	}
	// Per-token facts used by the span scan below, computed once
	// instead of once per candidate span (this runs on every request;
	// see DESIGN.md, "Inference hot path").
	schemaTok := make([]bool, len(toks))
	numOrPh := make([]bool, len(toks))
	for k, t := range toks {
		schemaTok[k] = ph.schemaWords[lemma.Lemmatize(t)]
		if tokens.IsPlaceholder(t) {
			numOrPh[k] = true
		} else if _, err := strconv.ParseFloat(t, 64); err == nil {
			numOrPh[k] = true
		}
	}
	// spanEligible: a span is a constant candidate unless it contains a
	// number/placeholder or consists entirely of schema surface words.
	spanEligible := func(i, n int) bool {
		all := true
		for k := i; k < i+n; k++ {
			if numOrPh[k] {
				return false
			}
			all = all && schemaTok[k]
		}
		return !all
	}

	out := &Anonymized{}
	var counts []int32 // bestTextMatch scratch, shared by every span
	i := 0
	for i < len(toks) {
		tok := toks[i]
		// Pre-anonymized input: pass placeholders through.
		if tokens.IsPlaceholder(tok) {
			out.Tokens = append(out.Tokens, tok)
			i++
			continue
		}
		// Numbers: bind to a column holding the exact value — except
		// in top-k contexts ("top 3", "first 5"), where the number is
		// a result count, not a data constant.
		if n, err := strconv.ParseFloat(tok, 64); err == nil {
			topK := i > 0 && isTopKWord(toks[i-1])
			if cols, ok := ph.numValues[n]; ok && len(cols) > 0 && !topK {
				ref := cols[0]
				name := placeholderName(ref)
				out.Tokens = append(out.Tokens, "@"+name)
				out.Bindings = append(out.Bindings, Binding{Placeholder: name, Value: sqlast.NumValue(n)})
				i++
				continue
			}
			out.Tokens = append(out.Tokens, tok)
			i++
			continue
		}
		// Text spans, longest first.
		matched := false
		for n := 4; n >= 1 && !matched; n-- {
			if i+n > len(toks) {
				continue
			}
			if !spanEligible(i, n) {
				continue
			}
			phrase := strings.Join(toks[i:i+n], " ")
			if counts == nil {
				counts = make([]int32, len(ph.textValues))
			}
			ref, dbValue, sim := refBestTextMatch(ph, phrase, counts)
			if sim < ph.MinSimilarity {
				continue
			}
			name := placeholderName(ref)
			out.Tokens = append(out.Tokens, "@"+name)
			out.Bindings = append(out.Bindings, Binding{Placeholder: name, Value: sqlast.StrValue(dbValue)})
			i += n
			matched = true
		}
		if !matched {
			out.Tokens = append(out.Tokens, tok)
			i++
		}
	}
	return out, nil
}

// refBestTextMatch is bestTextMatch as it was.
func refBestTextMatch(ph *ParameterHandler, phrase string, counts []int32) (sqlast.ColumnRef, string, float64) {
	var bestRef sqlast.ColumnRef
	bestVal := ""
	bestSim := 0.0
	pb := refBigramKeys(strings.ToLower(phrase))
	for _, g := range pb {
		for _, id := range ph.gramIndex[g] {
			counts[id]++
		}
	}
	for id, inter := range counts {
		if inter == 0 {
			continue
		}
		iv := &ph.textValues[id]
		sim := 1.0
		if union := len(pb) + iv.ngrams - int(inter); union != int(inter) {
			sim = float64(inter) / float64(union)
		}
		if sim > bestSim {
			bestSim = sim
			bestVal = iv.value
			bestRef = iv.cols[0]
		}
	}
	clear(counts)
	return bestRef, bestVal, bestSim
}

// refBigramKeys is bigramKeys as it was.
func refBigramKeys(s string) []uint64 {
	r := []rune(s)
	if len(r) == 1 {
		return []uint64{uint64(uint32(r[0]))}
	}
	out := make([]uint64, 0, len(r))
	for i := 0; i+1 < len(r); i++ {
		out = append(out, uint64(uint32(r[i]))<<32|uint64(uint32(r[i+1])))
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	w := 0
	for i, g := range out {
		if i == 0 || g != out[w-1] {
			out[w] = g
			w++
		}
	}
	return out[:w]
}
