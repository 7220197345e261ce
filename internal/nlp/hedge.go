package nlp

import (
	"errors"

	"github.com/social-sensing/sstd/internal/textutil"
)

// HedgeClassifier is a multinomial Naive Bayes text classifier that scores
// how hedged (uncertain) a report is, in (0,1). It plays the role of the
// scikit-learn classifier the paper trains on the CoNLL-2010 hedge
// detection shared task: the returned probability is used directly as the
// report's Uncertainty Score (Definition 2).
type HedgeClassifier struct {
	nb *binaryNB
}

// LabeledSentence is one training example for the hedge classifier.
type LabeledSentence struct {
	Text   string
	Hedged bool
}

// ErrEmptyCorpus is returned by TrainHedgeClassifier when either class has
// no examples.
var ErrEmptyCorpus = errors.New("nlp: hedge corpus must contain both hedged and plain examples")

// TrainHedgeClassifier fits a multinomial Naive Bayes model with Laplace
// smoothing on the labelled corpus.
func TrainHedgeClassifier(corpus []LabeledSentence) (*HedgeClassifier, error) {
	nb := trainBinaryNB(len(corpus), func(i int) (string, bool) { return corpus[i].Text, corpus[i].Hedged })
	if nb == nil {
		return nil, ErrEmptyCorpus
	}
	return &HedgeClassifier{nb: nb}, nil
}

// NewDefaultHedgeClassifier trains the classifier on the built-in hedge
// corpus (hedgeCorpus). It panics only on programmer error (an invalid
// built-in corpus), which is checked by tests.
func NewDefaultHedgeClassifier() *HedgeClassifier {
	c, err := TrainHedgeClassifier(hedgeCorpus())
	if err != nil {
		panic("nlp: built-in hedge corpus invalid: " + err.Error())
	}
	return c
}

// UncertaintyDoc returns P(hedged | d) in (0,1) under the NB model. A text
// with no known tokens falls back to the class prior.
func (c *HedgeClassifier) UncertaintyDoc(d *textutil.Doc) float64 { return c.nb.probPositive(d) }

// hedgeCorpus is the built-in training set standing in for the CoNLL-2010
// shared-task data: short social-media style sentences labelled hedged
// (speculative) or plain (assertive).
func hedgeCorpus() []LabeledSentence {
	hedged := []string{
		"there might be a shooting on campus",
		"possibly a bomb near the library",
		"i think the suspect is still at large",
		"maybe the police have arrested someone",
		"reports suggest there could be casualties",
		"it seems like something happened downtown",
		"unconfirmed reports of an explosion",
		"apparently there was gunfire near the stadium",
		"not sure if this is real but stay safe",
		"rumored second device found perhaps",
		"could be a false alarm though",
		"possibly more victims than reported",
		"i heard there may be a second suspect",
		"allegedly the attacker fled on foot",
		"it appears the game might be delayed",
		"seems the score may have changed",
		"they probably scored just now",
		"i guess the irish are winning maybe",
		"supposedly the quarterback is injured",
		"likely a touchdown but waiting for confirmation",
		"perhaps the marathon route was evacuated",
		"might be tons of police near the engineering building",
		"word is the bridge may be closed",
		"some say the suspect was seen near campus",
		"if true this could be very bad",
		"hearing possible reports of smoke downtown",
		"can anyone confirm the explosion near the finish line",
		"unverified claim that an arrest was made",
		"this may turn out to be nothing",
		"potentially dangerous situation developing it seems",
	}
	plain := []string{
		"there was a shooting at ohio state",
		"police confirmed two explosions at the marathon",
		"the suspect has been arrested",
		"officials report three casualties",
		"the library is on lockdown right now",
		"i am on campus and i see tons of police",
		"the bomb squad cleared the jfk library",
		"notre dame scored a touchdown",
		"the irish take the lead",
		"field goal is good the score is now ten to seven",
		"the game is tied at fourteen",
		"final score buckeyes win by three",
		"the marathon finish line was evacuated",
		"authorities closed the bridge",
		"the attacker fled on foot toward the stadium",
		"breaking two blasts near the finish line",
		"shelter in place order issued for campus",
		"the quarterback left the game with an injury",
		"police made an arrest this afternoon",
		"the all clear was given at noon",
		"fire crews are on the scene",
		"the second device was disarmed",
		"classes are cancelled for the rest of the day",
		"the suspect was photographed leaving the store",
		"stadium security confirmed the delay",
		"the score changed twice in the last quarter",
		"emergency services confirmed the road closure",
		"city officials announced a curfew tonight",
		"the team announced the starting lineup",
		"the mayor held a press conference about the attack",
	}
	out := make([]LabeledSentence, 0, len(hedged)+len(plain))
	for _, h := range hedged {
		out = append(out, LabeledSentence{Text: h, Hedged: true})
	}
	for _, p := range plain {
		out = append(out, LabeledSentence{Text: p, Hedged: false})
	}
	return out
}
