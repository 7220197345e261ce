package textutil

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"unicode"
)

// referenceDoc is NewDoc as it stood before the one-scan tokenizer: split
// the lowercased text with strings.Fields, trim each field with
// strings.TrimFunc and hash each token with Hash. NewDoc must agree with
// it on every input, down to the nil sequence and the empty, non-nil set
// of a text without tokens.
func referenceDoc(text string) Doc {
	d := Doc{Lower: strings.ToLower(text)}
	fields := strings.Fields(d.Lower)
	tokens := fields[:0]
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
	if len(tokens) > 0 {
		d.Tokens = tokens
	}
	d.Hashes = make([]uint64, len(d.Tokens))
	set := make([]uint64, len(d.Tokens))
	for i, tok := range d.Tokens {
		d.Hashes[i], set[i] = Hash(tok), Hash(tok)
	}
	slices.Sort(set)
	d.Set = slices.Compact(set)
	return d
}

// FuzzTokenize checks, for arbitrary input, that the tokenizer never
// panics, never emits empty tokens, builds the reference's Doc field for
// field, and that the Doc's hash set is sorted, distinct and exactly the
// set of its token sequence.
func FuzzTokenize(f *testing.F) {
	seeds := []string{
		"",
		"There was a shooting at Ohio state #osu",
		"RT @user: explosions!!",
		"https://t.co/abc 日本語 café",
		"\x00\xff\xfe broken utf8",
		"#### @@@@",
		"http://x.y/a,b https:// http:/ HTTPS://T.CO/Q (https://t.co/q)",
		"tab\tnew\nline\vvt\fff\rcr\u0085nel\u00a0nbsp\u2003em\u3000ideo",
		"ÀÉÎ İstanbul ǅemal ß ﬁ ½ ²³ ٣ x̧ ‐dash‐ «quote» 'don't'",
		"a\xe6\x97 b\xe6\x97\xa5 \xef\xbf\xbd \xc0\x80 c\xed\xa0\x80d",
		strings.Repeat("w ", 70) + strings.Repeat("v", 40),
		strings.Repeat("Word#1 ", 50) + "HTTPS://T.CO/Long,",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		d, want := NewDoc(text), referenceDoc(text)
		// DeepEqual tells a nil slice from an empty one.
		if !reflect.DeepEqual(d, want) {
			t.Fatalf("NewDoc(%q) = %#v, reference gives %#v", text, d, want)
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
