package textutil

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"unicode"
)

// referenceTokenize is the tokenizer as it stood before NewDoc: split on
// white space, lowercase and trim field by field. NewDoc lowercases the
// whole text once and slices it; the two must agree on every input.
func referenceTokenize(text string) []string {
	var tokens []string
	for _, f := range strings.Fields(text) {
		lf := strings.ToLower(f)
		if strings.HasPrefix(lf, "http://") || strings.HasPrefix(lf, "https://") {
			tokens = append(tokens, lf)
			continue
		}
		cleaned := strings.TrimFunc(lf, func(r rune) bool {
			return !unicode.IsLetter(r) && !unicode.IsNumber(r)
		})
		cleaned = strings.TrimLeft(cleaned, "#@")
		if cleaned != "" {
			tokens = append(tokens, cleaned)
		}
	}
	return tokens
}

// FuzzTokenize checks, for arbitrary input, that the tokenizer never
// panics, never emits empty tokens, agrees with the reference tokenizer,
// and that the Doc's hash set is sorted, distinct and exactly the set of
// its token sequence.
func FuzzTokenize(f *testing.F) {
	seeds := []string{
		"",
		"There was a shooting at Ohio state #osu",
		"RT @user: explosions!!",
		"https://t.co/abc 日本語 café",
		"\x00\xff\xfe broken utf8",
		"#### @@@@",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		d := NewDoc(text)
		if want := referenceTokenize(text); !reflect.DeepEqual(d.Tokens, want) {
			t.Fatalf("NewDoc(%q).Tokens = %q, reference tokenizer gives %q", text, d.Tokens, want)
		}
		distinct := make(map[uint64]bool)
		for i, tok := range d.Tokens {
			if tok == "" {
				t.Fatalf("empty token at %d for %q", i, text)
			}
			distinct[Hash(tok)] = true
			if _, ok := slices.BinarySearch(d.Set, Hash(tok)); !ok {
				t.Fatalf("token %q of %q is not in the hash set", tok, text)
			}
		}
		if len(d.Set) != len(distinct) {
			t.Fatalf("hash set of %q has %d entries for %d distinct token hashes", text, len(d.Set), len(distinct))
		}
		for i := 1; i < len(d.Set); i++ {
			if d.Set[i-1] >= d.Set[i] {
				t.Fatalf("hash set of %q is not strictly ascending: %v", text, d.Set)
			}
		}
		// Jaccard of the text with itself is 1 (or both-empty).
		if j := Jaccard(d.Set, d.Set); j != 1 {
			t.Fatalf("self-similarity = %v for %q", j, text)
		}
	})
}
