package nlp

import (
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/socialsensing"
	"github.com/social-sensing/sstd/internal/textutil"
)

func TestDefaultAttitudeScorer(t *testing.T) {
	s := NewDefaultAttitudeScorer()
	tests := []struct {
		name string
		text string
		want socialsensing.Attitude
	}{
		{"plain report agrees", "There was a shooting at Ohio state please pray", socialsensing.Agree},
		{"fake flips to disagree", "Liberals putting out fake claims about the attack", socialsensing.Disagree},
		{"rumor flips", "that bomb threat is just a rumor", socialsensing.Disagree},
		{"phrase not true", "the shooting story is not true", socialsensing.Disagree},
		{"fake news phrase", "classic fake news from that account", socialsensing.Disagree},
		{"empty is no report", "   ", socialsensing.NoReport},
		{"debunked", "this was debunked hours ago", socialsensing.Disagree},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := s.Score(tt.text); got != tt.want {
				t.Errorf("Score(%q) = %v, want %v", tt.text, got, tt.want)
			}
		})
	}
}

// sportsLexicon is the College Football trace's: tweets containing
// score-change language agree with the "score changed" claim, everything
// else disagrees.
var sportsLexicon = Lexicon{
	DenyWords:   []string{"false", "fake", "rumor", "rumour"},
	DenyPhrases: []string{"not true", "no score", "still scoreless"},
	SupportWords: []string{
		"score", "scored", "scores", "touchdown", "td", "fieldgoal", "tied",
	},
	SupportPhrases: []string{"taking the lead", "takes the lead", "field goal", "in the lead"},
}

// doc tokenizes text for the scorers, which read a Doc by pointer.
func doc(text string) *textutil.Doc {
	d := textutil.NewDoc(text)
	return &d
}

// Score is ScoreDoc for untokenized text.
func (s *AttitudeScorer) Score(text string) socialsensing.Attitude {
	return s.ScoreDoc(doc(text))
}

func TestSportsAttitudeScorer(t *testing.T) {
	s := NewAttitudeScorer(sportsLexicon)
	tests := []struct {
		name string
		text string
		want socialsensing.Attitude
	}{
		{"touchdown agrees", "TOUCHDOWN Irish!!", socialsensing.Agree},
		{"taking the lead agrees", "the irish are taking the lead", socialsensing.Agree},
		{"tied agrees", "game is tied at 14", socialsensing.Agree},
		{"field goal phrase agrees", "Field goal is good!", socialsensing.Agree},
		{"chatter disagrees", "great tailgate today go irish", socialsensing.Disagree},
		{"no score phrase disagrees", "still no score in the second quarter", socialsensing.Disagree},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := s.Score(tt.text); got != tt.want {
				t.Errorf("Score(%q) = %v, want %v", tt.text, got, tt.want)
			}
		})
	}
}

// TestPhraseWithoutTokensIgnored scores lexicons holding a phrase that
// tokenizes to nothing. Kept as an empty sequence, such a phrase would
// occur in every post: a denial phrase would flip every report to
// Disagree, a support phrase would make every report agree.
func TestPhraseWithoutTokensIgnored(t *testing.T) {
	const plain = "the bridge is closed by police"
	tests := []struct {
		name string
		lex  Lexicon
		text string
		want socialsensing.Attitude
	}{
		{"deny ?! ignored", Lexicon{DenyWords: []string{"fake"}, DenyPhrases: []string{"not true", "?!"}}, plain, socialsensing.Agree},
		{"deny blank ignored", Lexicon{DenyPhrases: []string{"   "}}, plain, socialsensing.Agree},
		{"real deny phrase kept", Lexicon{DenyPhrases: []string{"not true", "?!"}}, "that is not true ?!", socialsensing.Disagree},
		{"deny word kept", Lexicon{DenyWords: []string{"fake"}, DenyPhrases: []string{"?!"}}, "fake bridge story", socialsensing.Disagree},
		{"support !!! ignored", Lexicon{SupportWords: []string{"score"}, SupportPhrases: []string{"!!!"}}, plain, socialsensing.Disagree},
		{"support word kept", Lexicon{SupportWords: []string{"score"}, SupportPhrases: []string{"!!!"}}, "what a score !!!", socialsensing.Agree},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := NewAttitudeScorer(tt.lex).Score(tt.text); got != tt.want {
				t.Errorf("Score(%q) = %v, want %v", tt.text, got, tt.want)
			}
		})
	}
}

func TestHedgeClassifierSeparates(t *testing.T) {
	c := NewDefaultHedgeClassifier()
	hedged := []string{
		"there might be a second suspect maybe",
		"possibly another device near the library",
		"unconfirmed reports suggest casualties",
		"i think the game could be delayed",
	}
	plain := []string{
		"police confirmed the arrest",
		"notre dame scored a touchdown",
		"the library is on lockdown",
		"two explosions at the marathon finish line",
	}
	for _, h := range hedged {
		if u := c.UncertaintyDoc(doc(h)); u <= 0.5 {
			t.Errorf("Uncertainty(%q) = %v, want > 0.5", h, u)
		}
	}
	for _, p := range plain {
		if u := c.UncertaintyDoc(doc(p)); u >= 0.5 {
			t.Errorf("Uncertainty(%q) = %v, want < 0.5", p, u)
		}
	}
}

func TestHedgeClassifierBounds(t *testing.T) {
	c := NewDefaultHedgeClassifier()
	texts := []string{"", "zzz qqq xxx unknownwords", "might might might", "confirmed confirmed"}
	for _, x := range texts {
		u := c.UncertaintyDoc(doc(x))
		if u <= 0 || u >= 1 {
			t.Errorf("Uncertainty(%q) = %v, want strictly in (0,1)", x, u)
		}
	}
}

func TestHedgeClassifierUnknownFallsBackToPrior(t *testing.T) {
	c := NewDefaultHedgeClassifier()
	// Built-in corpus is balanced, so unknown text should be ~0.5.
	u := c.UncertaintyDoc(doc("zzzz yyyy xxxx"))
	if u < 0.4 || u > 0.6 {
		t.Errorf("prior fallback = %v, want near 0.5", u)
	}
}

func TestTrainHedgeClassifierErrors(t *testing.T) {
	if _, err := TrainHedgeClassifier(nil); err == nil {
		t.Error("empty corpus accepted")
	}
	onlyHedged := []LabeledSentence{{Text: "maybe", Hedged: true}}
	if _, err := TrainHedgeClassifier(onlyHedged); err == nil {
		t.Error("single-class corpus accepted")
	}
}

func TestIndependenceScorerRetweets(t *testing.T) {
	s := NewIndependenceScorer()
	t0 := time.Date(2013, 4, 15, 14, 0, 0, 0, time.UTC)
	if got := s.ScoreDoc("c1", doc("RT @user: two explosions at the finish line"), t0); got != s.CopyScore {
		t.Errorf("retweet independence = %v, want %v", got, s.CopyScore)
	}
	if got := s.ScoreDoc("c1", doc("I saw smoke near the finish line myself"), t0.Add(time.Minute)); got != s.OriginalScore {
		t.Errorf("original independence = %v, want %v", got, s.OriginalScore)
	}
}

func TestIndependenceScorerNearDuplicates(t *testing.T) {
	s := NewIndependenceScorer()
	t0 := time.Date(2013, 4, 15, 14, 0, 0, 0, time.UTC)
	orig := "two explosions reported at the boston marathon finish line"
	if got := s.ScoreDoc("c1", doc(orig), t0); got != s.OriginalScore {
		t.Fatalf("first report scored %v, want original", got)
	}
	// Near-identical copy inside the window.
	if got := s.ScoreDoc("c1", doc("two explosions reported at the boston marathon finish line!"), t0.Add(2*time.Minute)); got != s.CopyScore {
		t.Errorf("near-duplicate scored %v, want copy %v", got, s.CopyScore)
	}
	// Same text after the window has expired is original again.
	if got := s.ScoreDoc("c1", doc(orig+" update"), t0.Add(time.Hour)); got != s.OriginalScore {
		t.Errorf("post-window duplicate scored %v, want original", got)
	}
}

func TestIndependenceScorerPerClaimIsolation(t *testing.T) {
	s := NewIndependenceScorer()
	t0 := time.Date(2015, 1, 7, 11, 0, 0, 0, time.UTC)
	text := "shots fired at the charlie hebdo office in paris"
	s.ScoreDoc("c1", doc(text), t0)
	// The same text on a different claim is not a copy.
	if got := s.ScoreDoc("c2", doc(text), t0.Add(time.Minute)); got != s.OriginalScore {
		t.Errorf("cross-claim duplicate scored %v, want original", got)
	}
}

func TestIndependenceScorerZeroValueUsable(t *testing.T) {
	var s IndependenceScorer
	s.Window = 5 * time.Minute
	s.SimilarityThreshold = 0.8
	s.CopyScore = 0.1
	s.OriginalScore = 0.9
	got := s.ScoreDoc("c", doc("hello world report"), time.Now())
	if got != 0.9 {
		t.Errorf("zero-value scorer = %v, want 0.9", got)
	}
}

// TestHedgeCuesRaiseUncertainty: each hedge cue the classifier learns from
// its corpus lifts the uncertainty of a plain statement it is added to.
func TestHedgeCuesRaiseUncertainty(t *testing.T) {
	c := NewDefaultHedgeClassifier()
	plain := "there was an explosion downtown"
	base := c.UncertaintyDoc(doc(plain))
	for _, cue := range []string{"might", "maybe", "possibly", "may"} {
		if u := c.UncertaintyDoc(doc(cue + " " + plain)); u <= base {
			t.Errorf("cue %q: uncertainty %v, want above the plain text's %v", cue, u, base)
		}
	}
}
