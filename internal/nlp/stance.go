package nlp

import (
	"errors"

	"github.com/social-sensing/sstd/internal/socialsensing"
	"github.com/social-sensing/sstd/internal/textutil"
)

// AttitudeModel is anything that can derive a report's stance from text.
// Both the keyword AttitudeScorer (the paper's evaluation heuristic) and
// the trained StanceClassifier (the NLP upgrade the paper plans in §VII:
// "polarity analysis is often used to automatically decide whether a tweet
// is expressing negative or positive feelings towards a claim") satisfy
// it.
type AttitudeModel interface {
	Score(text string) socialsensing.Attitude
	// ScoreDoc is Score for a text that is already tokenized.
	ScoreDoc(d textutil.Doc) socialsensing.Attitude
}

// Interface compliance checks.
var (
	_ AttitudeModel = (*AttitudeScorer)(nil)
	_ AttitudeModel = (*StanceClassifier)(nil)
)

// StanceClassifier is a trained Naive Bayes polarity model: it classifies
// whether a text supports or denies the claim it was matched to.
type StanceClassifier struct {
	nb *binaryNB
	// NeutralBand is the half-width of the probability band around 0.5
	// mapped to NoReport: texts the model cannot call either way carry
	// no stance (and therefore a zero contribution score). Default 0.1.
	NeutralBand float64
}

// LabeledStance is one training example: Supports is true when the text
// asserts its claim.
type LabeledStance struct {
	Text     string
	Supports bool
}

// ErrEmptyStanceCorpus is returned when either class has no examples.
var ErrEmptyStanceCorpus = errors.New("nlp: stance corpus must contain both supporting and denying examples")

// TrainStanceClassifier fits the polarity model.
func TrainStanceClassifier(corpus []LabeledStance) (*StanceClassifier, error) {
	nb := trainBinaryNB(len(corpus), func(i int) (string, bool) { return corpus[i].Text, corpus[i].Supports })
	if nb == nil {
		return nil, ErrEmptyStanceCorpus
	}
	return &StanceClassifier{nb: nb, NeutralBand: 0.1}, nil
}

// NewDefaultStanceClassifier trains the classifier on the built-in stance
// corpus. It panics only on programmer error (an invalid built-in corpus),
// which is checked by tests.
func NewDefaultStanceClassifier() *StanceClassifier {
	c, err := TrainStanceClassifier(stanceCorpus())
	if err != nil {
		panic("nlp: built-in stance corpus invalid: " + err.Error())
	}
	return c
}

// Score implements AttitudeModel: Agree above the neutral band, Disagree
// below it, NoReport inside it or for empty text.
func (c *StanceClassifier) Score(text string) socialsensing.Attitude {
	return c.ScoreDoc(textutil.NewDoc(text))
}

// ScoreDoc is Score for a text that is already tokenized.
func (c *StanceClassifier) ScoreDoc(d textutil.Doc) socialsensing.Attitude {
	if len(d.Tokens) == 0 {
		return socialsensing.NoReport
	}
	p := c.nb.probPositive(d)
	switch {
	case p > 0.5+c.NeutralBand:
		return socialsensing.Agree
	case p < 0.5-c.NeutralBand:
		return socialsensing.Disagree
	default:
		return socialsensing.NoReport
	}
}

// stanceCorpus is the built-in training set: short social-media texts
// labelled by whether they assert or deny the claim they discuss.
func stanceCorpus() []LabeledStance {
	supports := []string{
		"there was a shooting at the campus happening now",
		"confirmed two explosions at the marathon finish line",
		"police made an arrest this afternoon",
		"i saw the smoke myself this is real",
		"officials report casualties downtown",
		"shots fired near the engineering building stay safe",
		"the suspect was spotted near the library",
		"breaking the bridge is closed by police",
		"touchdown the irish take the lead",
		"the score just changed field goal is good",
		"the game is tied now",
		"hostages taken at the market right now",
		"second device found by the bomb squad",
		"lockdown in effect please shelter in place",
		"the attacker fled on foot toward the stadium",
		"it happened i was there",
		"casualties confirmed by the hospital",
		"evacuation underway at the finish line",
		"the quarterback left the game injured",
		"emergency services confirmed the road closure",
	}
	denies := []string{
		"that story is fake news stop spreading it",
		"this is a rumor there was no shooting",
		"debunked the bomb threat is not true",
		"false alarm nothing happened at the library",
		"police say reports of a second shooter are untrue",
		"no truth to the arrest claim",
		"the explosion story was made up",
		"stop sharing misinformation it did not happen",
		"that photo is from another event this is a hoax",
		"officials deny any casualties",
		"no score change the kick was missed",
		"not true the game is not tied",
		"the suspect sighting was false",
		"the evacuation rumor is wrong classes continue",
		"there is no lockdown campus is open",
		"this claim was already debunked hours ago",
		"fake the bridge is open traffic is normal",
		"that is an old video not from today",
		"reports of a hostage situation are false",
		"the injury rumor is untrue he is fine",
	}
	out := make([]LabeledStance, 0, len(supports)+len(denies))
	for _, s := range supports {
		out = append(out, LabeledStance{Text: s, Supports: true})
	}
	for _, d := range denies {
		out = append(out, LabeledStance{Text: d, Supports: false})
	}
	return out
}
