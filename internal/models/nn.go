package models

import (
	"slices"
	"strings"
)

// NearestNeighbor is the last tier of the runtime degradation chain: a
// non-parametric Translator that memorizes its training pairs and
// answers a question with the SQL of the stored example whose NL
// tokens are closest under Jaccard similarity over token sets. It has
// no parameters, cannot panic on any input, and trains in O(n) — the
// always-available floor beneath the neural tiers.
//
// Ties are broken by the lowest stored index, so the answer depends
// only on the training order, never on map iteration or scheduling.
//
// The examples are held as a token-postings index, not as token sets:
// each distinct NL token has the ascending list of the examples that
// contain it, all lists flattened into one array, and each example
// keeps only its distinct-token count and its SQL. A question merges
// the postings of its distinct known tokens, so it touches only the
// examples that share a token with it, and allocates in proportion to
// the question, not the corpus. An example that shares no token scores
// 0 and can never be the answer, so the merge scores exactly the
// examples a full scan could pick.
type NearestNeighbor struct {
	ids   map[string]int32 // NL token → token id
	off   []int32          // token id's postings: post[off[id]:off[id+1]]
	post  []int32          // example indices, ascending within a token
	sizes []int32          // per example: its distinct NL token count
	sql   [][]string       // per example: its SQL tokens (read-only)
}

// NewNearestNeighbor returns an untrained nearest-neighbor matcher.
func NewNearestNeighbor() *NearestNeighbor { return &NearestNeighbor{} }

// Name implements Translator.
func (m *NearestNeighbor) Name() string { return "template-nn" }

// Train implements Translator: it replaces the index with one over the
// examples, in their order.
func (m *NearestNeighbor) Train(examples []Example) {
	var b NNBuilder
	for _, ex := range examples {
		b.Add(ex)
	}
	*m = *b.Build()
}

// NNBuilder fills a NearestNeighbor index one example at a time, so a
// caller can index a corpus as it streams without holding it: Add each
// example in order, then Build once. The zero value is an empty
// builder.
type NNBuilder struct {
	nn    NearestNeighbor
	lists [][]int32 // per token id: its postings so far
}

// Add appends ex to the index as the next example. The index keeps
// ex.SQL, which must not be modified afterwards, and of ex.NL only a
// copy of each token it has not seen before.
func (b *NNBuilder) Add(ex Example) {
	if b.nn.ids == nil {
		b.nn.ids = map[string]int32{}
	}
	i := int32(len(b.nn.sizes))
	n := int32(0)
	for _, t := range ex.NL {
		id, ok := b.nn.ids[t]
		if !ok {
			// A token may be a substring of a longer text; clone it so
			// the index does not keep that text alive.
			id = int32(len(b.lists))
			b.nn.ids[strings.Clone(t)] = id
			b.lists = append(b.lists, nil)
		}
		l := b.lists[id]
		if len(l) > 0 && l[len(l)-1] == i {
			continue // repeated within ex
		}
		b.lists[id] = append(l, i)
		n++
	}
	b.nn.sizes = append(b.nn.sizes, n)
	b.nn.sql = append(b.nn.sql, ex.SQL)
}

// Build flattens the postings and returns the finished index. The
// builder is empty afterwards.
func (b *NNBuilder) Build() *NearestNeighbor {
	nn := b.nn
	total := 0
	for _, l := range b.lists {
		total += len(l)
	}
	nn.off = make([]int32, len(b.lists)+1)
	nn.post = make([]int32, 0, total)
	for id, l := range b.lists {
		nn.post = append(nn.post, l...)
		nn.off[id+1] = int32(len(nn.post))
	}
	nn.sizes = slices.Clip(nn.sizes)
	nn.sql = slices.Clip(nn.sql)
	*b = NNBuilder{}
	return &nn
}

// nnWindow is how many consecutive examples Translate counts at once.
const nnWindow = 256

// Translate implements Translator: the SQL of the nearest stored
// example by Jaccard similarity of NL token sets, or nil when nothing
// was stored or the question is empty.
//
// It walks the postings of the question's distinct known tokens in
// ascending example order, a window of nnWindow examples at a time:
// the window starts at the lowest example at the head of any list, and
// each list is advanced past it, counting a hit per example in a
// window-sized array, so an example's count is the size of its
// intersection with the question. Each counted example is then scored,
// in ascending order, with the same float64 expression as the Jaccard
// of the two sets, and only a strictly greater similarity replaces the
// best, so ties go to the lowest index.
func (m *NearestNeighbor) Translate(nl, _ []string) []string {
	if len(nl) == 0 || len(m.sizes) == 0 {
		return nil
	}
	toks := slices.Clone(nl)
	slices.Sort(toks)
	toks = slices.Compact(toks)
	type cursor struct{ at, end int32 }
	heads := make([]cursor, 0, len(toks))
	for _, t := range toks {
		if id, ok := m.ids[t]; ok {
			heads = append(heads, cursor{m.off[id], m.off[id+1]})
		}
	}
	q := len(toks)
	best, bestSim := -1, 0.0
	var inter [nnWindow]int32
	for len(heads) > 0 {
		lo := m.post[heads[0].at]
		for _, c := range heads[1:] {
			lo = min(lo, m.post[c.at])
		}
		hi := lo + nnWindow
		live := heads[:0]
		for _, c := range heads {
			for ; c.at < c.end && m.post[c.at] < hi; c.at++ {
				inter[m.post[c.at]-lo]++
			}
			if c.at < c.end {
				live = append(live, c)
			}
		}
		heads = live
		for j, n := range inter {
			if n == 0 {
				continue
			}
			inter[j] = 0
			e := int(lo) + j
			if sim := float64(n) / float64(q+int(m.sizes[e])-int(n)); sim > bestSim {
				best, bestSim = e, sim
			}
		}
	}
	if best < 0 {
		return nil
	}
	return append([]string(nil), m.sql[best]...)
}
