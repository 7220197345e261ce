// Package textutil provides the lightweight text processing primitives used
// throughout the pipeline: one-pass tokenization of a post into a Doc and
// Jaccard similarity over hashed token sets. Jaccard distance over token
// sets is the micro-blog clustering metric used by the paper (citing Uddin
// et al.).
package textutil

import (
	"slices"
	"strings"
	"unicode"
)

// Doc is one text tokenized once, in the two forms the raw-post path
// reads: the token sequence (phrase matching, Naive Bayes lookups) and the
// set of its tokens as sorted, distinct 64-bit hashes (Jaccard, lexicon
// tests). A Doc is immutable and its slices may be shared.
//
// Sets compare tokens by Hash alone. Two distinct tokens collide with
// probability 2⁻⁶⁴ per pair, so a vocabulary of a million tokens holds a
// colliding pair with probability below 3·10⁻⁸; a collision would merge
// the two tokens in every set and nothing else. The shipped vocabulary
// (trace generator, both Naive Bayes corpora, the attitude lexicons) is
// tested collision-free.
type Doc struct {
	// Lower is the lowercased text the tokens are slices of.
	Lower string
	// Tokens is the token sequence, as Tokenize returns it.
	Tokens []string
	// Set is Hash of every token: ascending, without repeats.
	Set []uint64
}

// NewDoc tokenizes text. Hashtags and mentions keep their leading marker
// stripped so "#osu" and "osu" collide, matching the keyword-matching
// heuristics of the paper's preprocessing. Punctuation is dropped; URLs
// are kept whole so retweet detection can match them.
func NewDoc(text string) Doc {
	d := Doc{Lower: strings.ToLower(text)}
	fields := strings.Fields(d.Lower)
	tokens := fields[:0] // filtered and trimmed in place
	for _, f := range fields {
		if !strings.HasPrefix(f, "http://") && !strings.HasPrefix(f, "https://") {
			f = strings.TrimFunc(f, func(r rune) bool {
				return !unicode.IsLetter(r) && !unicode.IsNumber(r)
			})
		}
		if f != "" {
			tokens = append(tokens, f)
		}
	}
	if len(tokens) > 0 { // none is the nil sequence
		d.Tokens = tokens
	}
	d.Set = HashSet(d.Tokens)
	return d
}

// Tokenize splits text into lowercase word tokens (NewDoc's sequence).
func Tokenize(text string) []string { return NewDoc(text).Tokens }

// Hash is the 64-bit FNV-1a hash of a token.
func Hash(token string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(token); i++ {
		h ^= uint64(token[i])
		h *= 1099511628211
	}
	return h
}

// HashSet returns the set of tokens as sorted, distinct hashes. The tokens
// are hashed as given: a lexicon entry that Tokenize would not produce
// matches nothing.
func HashSet(tokens []string) []uint64 {
	set := make([]uint64, len(tokens))
	for i, tok := range tokens {
		set[i] = Hash(tok)
	}
	slices.Sort(set)
	return slices.Compact(set)
}

// intersection counts the hashes two sorted sets share. The merge steps by
// comparison results instead of branching on them: which side advances is
// a coin flip the branch predictor loses.
func intersection(a, b []uint64) int {
	n := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		x, y := a[i], b[j]
		n += b2i(x == y)
		i += b2i(x <= y)
		j += b2i(y <= x)
	}
	return n
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Jaccard returns the Jaccard similarity |A∩B| / |A∪B| of two hash sets.
// Two empty sets are defined to have similarity 1.
func Jaccard(a, b []uint64) float64 { return JaccardCount(intersection(a, b), len(a), len(b)) }

// JaccardCount is Jaccard of two sets of na and nb hashes that share
// inter, for a caller that counted the intersection itself.
func JaccardCount(inter, na, nb int) float64 {
	if na == 0 && nb == 0 {
		return 1
	}
	return float64(inter) / float64(na+nb-inter)
}

// JaccardBound bounds Jaccard of sets of na and nb hashes from above: they
// share at most min(na, nb) of max(na, nb) or more. IEEE division and 1 − x
// are monotone, so a pair the float64 bound rules out is ruled out exactly.
func JaccardBound(na, nb int) float64 { return JaccardCount(min(na, nb), na, nb) }

// JaccardDistance returns 1 - Jaccard(a, b).
func JaccardDistance(a, b []uint64) float64 { return 1 - Jaccard(a, b) }

// HasAny reports whether any token of the doc is in the sorted set.
func (d Doc) HasAny(set []uint64) bool { return intersection(d.Set, set) > 0 }

// HasPhrase reports whether the token sequence phrase occurs contiguously
// in the doc. The empty phrase occurs in every doc.
func (d Doc) HasPhrase(phrase []string) bool {
outer:
	for i := 0; i+len(phrase) <= len(d.Tokens); i++ {
		for j, p := range phrase {
			if d.Tokens[i+j] != p {
				continue outer
			}
		}
		return true
	}
	return false
}
