// Package textutil provides the lightweight text processing primitives used
// throughout the pipeline: one-pass tokenization of a post into a Doc and
// Jaccard similarity over hashed token sets. Jaccard distance over token
// sets is the micro-blog clustering metric used by the paper (citing Uddin
// et al.).
package textutil

import (
	"math"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
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
//
// One scan over the lowercased text splits it at white space, trims each
// field to the span from its first letter or number to the end of its
// last, and hashes that token on the way.
func NewDoc(text string) Doc {
	lower := strings.ToLower(text)
	// The tokens and their hashes wait on the stack for their final size.
	tokens, set := make([]string, 0, 32), make([]uint64, 0, 32)
	for i := 0; i < len(lower); {
		class, size := byteClass[lower[i]], 1
		if class == wide {
			class, size = classAt(lower, i)
		}
		if class == space {
			i += size
			continue
		}
		next, first, end, h := field(lower, i)
		if f := lower[i:next]; strings.HasPrefix(f, "http://") || strings.HasPrefix(f, "https://") {
			tokens, set = append(tokens, f), append(set, Hash(f))
		} else if first >= 0 {
			tokens, set = append(tokens, lower[first:end]), append(set, h)
		}
		i = next
	}
	slices.Sort(set)
	set = slices.Compact(set)
	d := Doc{Lower: lower, Set: append(make([]uint64, 0, len(set)), set...)}
	if len(tokens) > 0 { // none is the nil sequence
		d.Tokens = append(make([]string, 0, len(tokens)), tokens...)
	}
	return d
}

// field scans the field that starts at s[i] up to the next white space or
// the end of s, which it returns as next. The field's token is s[first:end]
// and hashes to h; first is -1 when the field holds no letter or number.
func field(s string, i int) (next, first, end int, h uint64) {
	first = -1
	var run uint64 // the hash from first to i
	for i < len(s) {
		class, size := byteClass[s[i]], 1
		if class == wide {
			class, size = classAt(s, i)
		}
		if class == space {
			break
		}
		if first < 0 && class == word {
			first, run = i, offset64
		}
		for j := i; j < i+size; j++ { // before first, run is dropped
			run = (run ^ uint64(s[j])) * prime64
		}
		if i += size; class == word {
			end, h = i, run
		}
	}
	return i, first, end, h
}

// The classes of a rune: a letter or number is part of a token, white
// space separates fields, anything else is trimmed from a field's ends.
// A byte of 0x80 or more is wide: it starts a rune classAt decodes.
const word, other, space, wide uint8 = 0, 1, 2, 3

// classAt is the class of the rune at s[i] and its width in bytes.
func classAt(s string, i int) (uint8, int) {
	r, size := utf8.DecodeRuneInString(s[i:])
	switch {
	case unicode.IsSpace(r):
		return space, size
	case unicode.IsLetter(r) || unicode.IsNumber(r):
		return word, size
	}
	return other, size
}

// byteClass is classAt of every ASCII byte, and wide for the rest.
var byteClass = func() (c [256]uint8) {
	for b := range c {
		if c[b] = wide; b < utf8.RuneSelf {
			c[b], _ = classAt(string(rune(b)), 0)
		}
	}
	return c
}()

// Tokenize splits text into lowercase word tokens (NewDoc's sequence).
func Tokenize(text string) []string { return NewDoc(text).Tokens }

// Hash is the 64-bit FNV-1a hash of a token.
func Hash(token string) uint64 {
	h := uint64(offset64)
	for i := 0; i < len(token); i++ {
		h = (h ^ uint64(token[i])) * prime64
	}
	return h
}

// FNV-1a's 64-bit offset basis and prime.
const offset64, prime64 = 14695981039346656037, 1099511628211

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

// JaccardCount is Jaccard of two sets of na and nb hashes that share
// inter, for a caller that counted the intersection itself.
func JaccardCount(inter, na, nb int) float64 {
	if na == 0 && nb == 0 {
		return 1
	}
	return float64(inter) / float64(na+nb-inter)
}

// MinOverlap is the least count k of shared hashes at which sets of na and
// nb hashes reach JaccardCount(k, na, nb) ≥ sim, or min(na, nb)+1 when no
// count does. JaccardCount is monotone in k, so the walk from the real
// root to where the float expression itself flips is exact for every sim.
func MinOverlap(na, nb int, sim float64) int {
	m := min(na, nb)
	k := m + 1
	if est := math.Ceil(sim * float64(na+nb) / (1 + sim)); est <= 0 {
		k = 0
	} else if est < float64(k) {
		k = int(est)
	}
	for k > 0 && JaccardCount(k-1, na, nb) >= sim {
		k--
	}
	for k <= m && !(JaccardCount(k, na, nb) >= sim) {
		k++
	}
	return k
}

// Overlap counts the hashes sorted sets a and b share when they share at
// least need, with ok true, and gives up with ok false once more than
// len(a) − need of a's or len(b) − need of b's go unmatched. The merge
// steps by comparisons instead of branching on them: which side advances
// is a coin flip the branch predictor loses.
func Overlap(a, b []uint64, need int) (n int, ok bool) {
	missA, missB := len(a)-need, len(b)-need
	for i, j := 0, 0; i < len(a) && j < len(b) && missA|missB >= 0; {
		x, y := a[i], b[j]
		eq, da, db := b2i(x == y), b2i(x <= y), b2i(y <= x)
		n, i, j = n+eq, i+da, j+db
		missA, missB = missA-da+eq, missB-db+eq
	}
	return n, n >= need // a merge that gave up counted fewer
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// HasAny reports whether any token of the doc is in the sorted set.
func (d Doc) HasAny(set []uint64) bool {
	_, ok := Overlap(d.Set, set, 1)
	return ok
}

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
