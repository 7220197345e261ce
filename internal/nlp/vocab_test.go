package nlp

import (
	"testing"

	"github.com/social-sensing/sstd/internal/textutil"
	"github.com/social-sensing/sstd/internal/tracegen"
)

// TestShippedVocabularyHashesWithoutCollision: hashed token sets equal
// string token sets only while distinct tokens hash apart. Every token
// this repository can produce or look up — each profile's topics, keywords
// and generated texts (which carry every hedge prefix, denial phrase and
// agreement suffix of the trace generator), the hedge corpus and
// both attitude lexicons — must hash to a value of its own.
func TestShippedVocabularyHashesWithoutCollision(t *testing.T) {
	byHash := make(map[uint64]string)
	add := func(texts ...string) {
		for _, text := range texts {
			for _, tok := range textutil.Tokenize(text) {
				if prev, ok := byHash[textutil.Hash(tok)]; ok && prev != tok {
					t.Fatalf("tokens %q and %q share hash %#x", prev, tok, textutil.Hash(tok))
				}
				byHash[textutil.Hash(tok)] = tok
			}
		}
	}
	for _, prof := range tracegen.Profiles() {
		add(prof.Topics...)
		add(prof.Keywords...)
		gen, err := tracegen.New(prof, 7)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := gen.Generate(0.02)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tr.Reports {
			add(r.Text)
		}
	}
	for _, s := range hedgeCorpus() {
		add(s.Text)
	}
	for _, lex := range []Lexicon{defaultLexicon, sportsLexicon} {
		add(lex.DenyWords...)
		add(lex.DenyPhrases...)
		add(lex.SupportWords...)
		add(lex.SupportPhrases...)
	}
	if len(byHash) < 250 {
		t.Errorf("only %d distinct tokens collected; the vocabulary sources are not all being read", len(byHash))
	}
}
