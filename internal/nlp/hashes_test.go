package nlp

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/social-sensing/sstd/internal/socialsensing"
	"github.com/social-sensing/sstd/internal/textutil"
)

// refAttitude is AttitudeScorer.ScoreDoc on token strings, as it stood
// before phrases were compiled to hashes: a word matches a token equal to
// it as given, a phrase its tokens in a row.
func refAttitude(lex Lexicon, tokens []string) socialsensing.Attitude {
	phrases := func(in []string) (out [][]string) {
		for _, p := range in {
			if pt := textutil.Tokenize(p); len(pt) > 0 {
				out = append(out, pt)
			}
		}
		return out
	}
	has := func(words []string, phrases [][]string) bool {
		for _, w := range words {
			if slices.Contains(tokens, w) {
				return true
			}
		}
		for _, p := range phrases {
			for i := 0; i+len(p) <= len(tokens); i++ {
				if slices.Equal(tokens[i:i+len(p)], p) {
					return true
				}
			}
		}
		return false
	}
	support := phrases(lex.SupportPhrases)
	switch {
	case len(tokens) == 0:
		return socialsensing.NoReport
	case has(lex.DenyWords, phrases(lex.DenyPhrases)):
		return socialsensing.Disagree
	case len(lex.SupportWords) == 0 && len(support) == 0:
		return socialsensing.Agree
	case has(lex.SupportWords, support):
		return socialsensing.Agree
	}
	return socialsensing.Disagree
}

// TestAttitudeMatchesStringReference scores random posts drawn from the
// lexicons' own words, the pieces of their phrases and filler, upper case
// mixed in, and requires the hash-compiled scorer to agree with the
// string reference on every one, under the emergency and the sports
// lexicons and one whose words are not all tokens.
func TestAttitudeMatchesStringReference(t *testing.T) {
	odd := Lexicon{DenyWords: []string{"Fake", "#rumor", "hoax"}, DenyPhrases: []string{"not true", "?!", "did NOT happen"}, SupportPhrases: []string{"field goal"}}
	rng := rand.New(rand.NewSource(5))
	for _, lex := range []Lexicon{defaultLexicon, sportsLexicon, odd} {
		s := NewAttitudeScorer(lex)
		var vocab []string
		for _, list := range [][]string{lex.DenyWords, lex.DenyPhrases, lex.SupportWords, lex.SupportPhrases, {"the", "police", "bridge", "is", "closed", "not", "true", "no"}} {
			for _, entry := range list {
				vocab = append(vocab, strings.Fields(entry)...)
			}
		}
		hits := map[socialsensing.Attitude]int{}
		for trial := 0; trial < 20000; trial++ {
			words := make([]string, rng.Intn(9))
			for i := range words {
				if words[i] = vocab[rng.Intn(len(vocab))]; rng.Intn(5) == 0 {
					words[i] = strings.ToUpper(words[i])
				}
			}
			text := strings.Join(words, " ")
			d := textutil.NewDoc(text)
			got, want := s.ScoreDoc(&d), refAttitude(lex, d.Tokens)
			if got != want {
				t.Fatalf("%+v: ScoreDoc(%q) = %v, string reference %v", lex, text, got, want)
			}
			hits[got]++
		}
		if len(hits) < 3 && len(lex.SupportWords)+len(lex.SupportPhrases) > 0 || hits[socialsensing.Disagree] == 0 {
			t.Fatalf("%+v: outcomes %v; the posts test too little", lex, hits)
		}
	}
}

// refProbPositive is binaryNB.probPositive on token strings: the model
// trained on the corpus as trainBinaryNB trains it, but kept by token, and
// each of the text's tokens looked up by its string.
func refProbPositive(corpus []LabeledSentence, text string) float64 {
	counts := make(map[string][2]float64)
	var totals, docs [2]float64
	for _, ex := range corpus {
		class := 0
		if ex.Hedged {
			class = 1
		}
		docs[class]++
		for _, tok := range textutil.Tokenize(ex.Text) {
			c := counts[tok]
			c[class]++
			counts[tok] = c
			totals[class]++
		}
	}
	v := float64(len(counts))
	logPos, logNeg := math.Log(docs[1]/(docs[1]+docs[0])), math.Log(docs[0]/(docs[1]+docs[0]))
	for _, tok := range textutil.Tokenize(text) {
		if c, ok := counts[tok]; ok {
			logPos += math.Log((c[1] + 1) / (totals[1] + v))
			logNeg += math.Log((c[0] + 1) / (totals[0] + v))
		}
	}
	m := math.Max(logPos, logNeg)
	pp, pn := math.Exp(logPos-m), math.Exp(logNeg-m)
	return math.Min(1-1e-4, math.Max(1e-4, pp/(pp+pn)))
}

// TestNaiveBayesMatchesTokenReference requires the hedge classifier, which
// looks each token's hash up in its table, to give the string reference's
// probability bit for bit: on every corpus sentence, on random mixes of
// corpus words, repeats and unknown words, and for a corpus of one token.
func TestNaiveBayesMatchesTokenReference(t *testing.T) {
	corpus := hedgeCorpus()
	var vocab []string
	for _, ex := range corpus {
		vocab = append(vocab, strings.Fields(ex.Text)...)
	}
	vocab = append(vocab, "zzz", "Unknown", "#might", "MAYBE!!")
	rng := rand.New(rand.NewSource(9))
	texts := []string{"", "zzz qqq"}
	for _, ex := range corpus {
		texts = append(texts, ex.Text)
	}
	for range 5000 {
		words := make([]string, rng.Intn(15))
		for i := range words {
			words[i] = vocab[rng.Intn(len(vocab))]
		}
		texts = append(texts, strings.Join(words, " "))
	}
	tiny := []LabeledSentence{{Text: "maybe", Hedged: true}, {Text: "maybe maybe", Hedged: false}}
	for _, c := range [][]LabeledSentence{corpus, tiny} {
		h, err := TrainHedgeClassifier(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, text := range texts {
			d := textutil.NewDoc(text)
			if got, want := h.UncertaintyDoc(&d), refProbPositive(c, text); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("UncertaintyDoc(%q) = %v, string reference %v", text, got, want)
			}
		}
	}
}
