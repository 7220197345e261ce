// Package textutil provides the lightweight text processing primitives used
// throughout the pipeline: tokenizing and hashing a post once, into a Doc,
// and Jaccard similarity over hashed token sets. Jaccard distance over token
// sets is the micro-blog clustering metric used by the paper (citing Uddin
// et al.).
package textutil

import (
	"math"
	"math/bits"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Doc is one text tokenized once, in the forms the raw-post path reads:
// the token sequence, each token's hash in sequence order (phrase
// matching, Naive Bayes lookups) and the set of its tokens as sorted,
// distinct 64-bit hashes (Jaccard, lexicon tests). A Doc is immutable and
// its slices may be shared.
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
	// Hashes is Hash of every token, in token order.
	Hashes []uint64
	// Set is Hash of every token: ascending, without repeats.
	Set []uint64
}

// NewDoc tokenizes text. Hashtags and mentions keep their leading marker
// stripped so "#osu" and "osu" collide, matching the keyword-matching
// heuristics of the paper's preprocessing. Punctuation is dropped; URLs
// are kept whole so retweet detection can match them.
//
// One branch-free pass lowers the ASCII letters of the text and classes
// its bytes. Text that is not ASCII is lowered by strings.ToLower instead
// and classed a rune at a time. A Doc is 88 bytes: readers take it by
// pointer.
func NewDoc(text string) Doc {
	var lowBuf, clsBuf [256]byte
	low, cls := lowBuf[:], clsBuf[:]
	if len(text) > len(low) {
		low, cls = make([]byte, len(text)), make([]byte, len(text))
	}
	var upper, high byte // the bits lowering changed; every byte's bits
	for i := 0; i < len(text); i++ {
		c := text[i]
		l := lowerByte[c]
		low[i], cls[i], upper, high = l, byteClass[c], upper|(l^c), high|c
	}
	s := text
	if high >= utf8.RuneSelf {
		if s = strings.ToLower(text); len(s) > len(cls) {
			cls = make([]byte, len(s))
		}
		for i := 0; i < len(s); { // each byte of a rune gets the rune's class
			class, size := classAt(s, i)
			for end := i + size; i < end; i++ {
				cls[i] = class
			}
		}
	} else if upper != 0 {
		s = string(low[:len(text)])
	}
	var spanBuf [32][2]int // each token's bounds in s
	spans := tokens(s, cls[:len(s)], spanBuf[:0])
	d, n := Doc{Lower: s}, len(spans)
	hashes := make([]uint64, 2*n) // Hashes, then Set: one allocation
	if n > 0 {                    // none is the nil sequence
		d.Tokens = make([]string, n)
		for k, sp := range spans {
			d.Tokens[k] = s[sp[0]:sp[1]]
			hashes[k] = Hash(d.Tokens[k])
		}
	}
	copy(hashes[n:], hashes[:n])
	slices.Sort(hashes[n:])
	set := slices.Compact(hashes[n:])
	d.Hashes, d.Set = hashes[:n:n], set[:len(set):len(set)]
	return d
}

// tokens appends to spans the bounds of the tokens of s, whose bytes are
// of the classes cls: each field between white space is a URL kept whole
// or, trimmed to the span from its first letter or number to the end of
// its last, a token when that is not empty.
func tokens(s string, cls []byte, spans [][2]int) [][2]int {
	for i := 0; i < len(cls); {
		for i < len(cls) && cls[i] == space {
			i++
		}
		start := i
		for i < len(cls) && cls[i] != space {
			i++
		}
		first, end := start, i
		for first < end && cls[first] != word {
			first++
		}
		for end > first && cls[end-1] != word {
			end--
		}
		if f := s[start:i]; f != "" && f[0] == 'h' && (strings.HasPrefix(f, "http://") || strings.HasPrefix(f, "https://")) {
			spans = append(spans, [2]int{start, i})
		} else if first < end {
			spans = append(spans, [2]int{first, end})
		}
	}
	return spans
}

// The classes of a rune: a letter or number is part of a token, white
// space separates fields, anything else is trimmed from a field's ends.
const word, other, space uint8 = 0, 1, 2

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

// byteClass is classAt of every ASCII byte (and of no other: NewDoc
// classes text that is not ASCII a rune at a time). lowerByte lowers the
// ASCII letters and keeps every other byte.
var byteClass, lowerByte = func() (c, l [256]byte) {
	for b := range l {
		if l[b] = byte(b); b < utf8.RuneSelf {
			c[b], _ = classAt(string(rune(b)), 0)
			l[b] = byte(unicode.ToLower(rune(b)))
		}
	}
	return c, l
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

// Sig is the signature of a hash set: bit h>>58 of each of its hashes h.
func Sig(set []uint64) (sig uint64) {
	for _, h := range set {
		sig |= 1 << (h >> 58)
	}
	return sig
}

// MayHold is false when a set of signature sig cannot hold hash h.
func MayHold(sig, h uint64) bool { return sig>>(h>>58)&1 != 0 }

// SharedBound bounds the hashes sets of na and nb hashes and signatures
// sa and sb share: each sets a bit of sa&sb, and at most
// min(na − |sa|, nb − |sb|) of them a bit another has set.
func SharedBound(na int, sa uint64, nb int, sb uint64) int {
	return bits.OnesCount64(sa&sb) + min(na-bits.OnesCount64(sa), nb-bits.OnesCount64(sb))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// HasAny reports whether any token of the doc is in the set. The doc's
// signature passes over most of the set without a search.
func (d *Doc) HasAny(set []uint64) bool {
	sig := Sig(d.Set)
	for _, h := range set {
		if !MayHold(sig, h) {
			continue
		} else if _, ok := slices.BinarySearch(d.Set, h); ok {
			return true
		}
	}
	return false
}

// HasPhrase reports whether the token hashes phrase occur contiguously in
// the doc's Hashes. The empty phrase occurs in every doc.
func (d *Doc) HasPhrase(phrase []uint64) bool {
	for i := 0; i+len(phrase) <= len(d.Hashes); i++ {
		if slices.Equal(d.Hashes[i:i+len(phrase)], phrase) {
			return true
		}
	}
	return false
}
